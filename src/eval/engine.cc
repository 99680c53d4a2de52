#include "eval/engine.h"

#include <algorithm>

#include "eval/answer_sink.h"
#include "eval/eval_artifacts.h"
#include "eval/rex_image.h"
#include "util/check.h"
#include "util/flat_set.h"

namespace binchain {
namespace {

uint64_t NodeKey(uint32_t state, TermId term) {
  return (static_cast<uint64_t>(state) << 32) | term;
}

// What the overflow hash spends per node: 8-byte slots at <= 70% load,
// rounded up. Rows may use at most this many bytes per node inserted so
// far, so the dense layout never costs more memory than hashing would.
constexpr uint64_t kHashBytesPerNode = 16;

}  // namespace

Engine::Engine(const EquationSystem* eqs, ViewRegistry* views,
               const std::unordered_map<SymbolId, Nfa>* shared_machines)
    : eqs_(eqs), views_(views), shared_machines_(shared_machines) {}

Result<const Nfa*> Engine::Machine(SymbolId pred) {
  if (shared_machines_ != nullptr) {
    auto sit = shared_machines_->find(pred);
    if (sit != shared_machines_->end()) {
      return Result<const Nfa*>(&sit->second);
    }
  }
  auto it = machines_.find(pred);
  if (it != machines_.end()) return Result<const Nfa*>(&it->second);
  if (!eqs_->Has(pred)) {
    return Status::NotFound("no equation for predicate '" +
                            views_->symbols().Name(pred) + "'");
  }
  // Validate that every non-derived leaf has a registered view.
  std::unordered_set<SymbolId> preds;
  CollectPreds(eqs_->Rhs(pred), preds);
  for (SymbolId q : preds) {
    if (!eqs_->Has(q) && views_->Find(q) == nullptr) {
      return Status::NotFound("no relation view registered for '" +
                              views_->symbols().Name(q) + "'");
    }
  }
  Nfa nfa = BuildNfa(eqs_->Rhs(pred),
                     [this](SymbolId q) { return eqs_->Has(q); });
  auto [mit, _] = machines_.emplace(pred, std::move(nfa));
  return Result<const Nfa*>(&mit->second);
}

Result<size_t> Engine::CyclicIterationBound(SymbolId pred, TermId source,
                                            const CancelToken* cancel) {
  auto nit = normal_forms_.find(pred);
  if (nit == normal_forms_.end()) {
    LinearNormalForm fresh;
    if (!MatchLinearNormalForm(*eqs_, pred, &fresh)) {
      return Status::FailedPrecondition(
          "cyclic iteration bound requires the form p = e0 U e1.p.e2");
    }
    nit = normal_forms_.emplace(pred, std::move(fresh)).first;
  }
  const LinearNormalForm& nf = nit->second;
  // The three traversals below are closure *precomputation* — they run
  // before the main loop's own cancellation points, and on dense cyclic
  // data D1/D2 can dwarf the query itself, so each threads the token.
  // D1: nodes accessible from the query constant through e1.
  auto d1 = ClosureUnderRex(*views_, nf.e1, {source}, nullptr, cancel);
  if (!d1.ok()) return d1.status();
  // D2: nodes accessible through e2 from the e0-images of D1.
  auto landings = ImageUnderRex(*views_, nf.e0, d1.value(), nullptr, cancel);
  if (!landings.ok()) return landings.status();
  auto d2 = ClosureUnderRex(*views_, nf.e2, landings.value(), nullptr, cancel);
  if (!d2.ok()) return d2.status();
  size_t b1 = std::max<size_t>(1, d1.value().size());
  size_t b2 = std::max<size_t>(1, d2.value().size());
  return b1 * b2;
}

uint32_t Engine::AddCopy(const Nfa* m, uint32_t ret) {
  uint32_t id = static_cast<uint32_t>(copies_.size());
  uint32_t base = static_cast<uint32_t>(copy_of_.size());
  copies_.push_back(Copy{m, base, ret});
  copy_of_.resize(base + m->NumStates(), id);
  child_.resize(base + m->NumStates(), kNone);
  slot_.resize(base + m->NumStates(), kEmptySlot);
  return id;
}

bool Engine::InsertNode(uint32_t q, TermId u, uint64_t nodes) {
  if (u >= width_) return g_.insert(NodeKey(q, u));
  uint32_t& slot = slot_[q];
  if (slot >= kRowTag && slot < kOverflowSlot) {
    uint64_t& word = rows_[size_t{slot - kRowTag} * row_words_ + (u >> 6)];
    const uint64_t bit = 1ull << (u & 63);
    if (word & bit) return false;
    word |= bit;
    return true;
  }
  if (slot == kEmptySlot) {
    slot = u;
    return true;
  }
  if (slot == u) return false;
  if (slot == kOverflowSlot) return g_.insert(NodeKey(q, u));
  // A second distinct term: promote the state to a row, or, past the
  // budget, move it to the overflow set for the rest of the query.
  const size_t begin = size_t{rows_used_} * row_words_;
  const size_t end = begin + row_words_;
  if (end * sizeof(uint64_t) > kHashBytesPerNode * nodes) {
    g_.insert(NodeKey(q, slot));
    slot = kOverflowSlot;
    return g_.insert(NodeKey(q, u));
  }
  // The arena outlives the query and W may differ from the last one, so
  // old bits can sit anywhere in [begin, end): zero the whole row.
  if (rows_.size() < end) rows_.resize(end);
  std::fill(rows_.begin() + begin, rows_.begin() + end, 0);
  rows_[begin + (slot >> 6)] |= 1ull << (slot & 63);
  rows_[begin + (u >> 6)] |= 1ull << (u & 63);
  BINCHAIN_CHECK(rows_used_ < kOverflowSlot - kRowTag);
  slot = kRowTag | rows_used_++;
  return true;
}

Result<std::vector<TermId>> Engine::EvalFrom(SymbolId pred, TermId source,
                                             const EvalOptions& options,
                                             EvalStats* stats) {
  EvalStats local;
  EvalStats& st = (stats != nullptr) ? *stats : local;
  st = EvalStats{};
  uint64_t tls_fetches_before = Relation::ThreadFetchCount();
  uint64_t tls_wide_before = Relation::ThreadWideScanCount();
  uint64_t tls_memo_before = EvalArtifacts::ThreadMemoHits();

  // Reset-and-reuse: empty the scratch sets but keep their capacity, so a
  // query stream on one engine stops paying per-query growth. Rows are
  // zeroed when handed out, so the arena needs no clearing; like g_, it is
  // released when the last query used under a quarter of it, so one large
  // query's peak does not stay allocated for every query after it.
  slot_.clear();
  if (size_t{rows_used_} * row_words_ * 4 < rows_.size()) {
    std::vector<uint64_t>().swap(rows_);
  }
  rows_used_ = 0;
  // W is the symbol count: every unary term (its own constant) fits, and
  // every tuple term lies past it (a tagged id is at least kTupleTag).
  static_assert(TermPool::kTupleTag == kRowTag);
  width_ = static_cast<TermId>(
      std::min<size_t>(views_->symbols().size(), kRowTag));
  row_words_ = (width_ + 63) / 64;
  g_.clear();
  copies_.clear();
  copy_of_.clear();
  child_.clear();
  continuations_.clear();
  stack_.clear();
  seeds_.clear();

  auto machine = Machine(pred);
  if (!machine.ok()) return machine.status();

  size_t iteration_cap = options.max_iterations;
  if (options.use_cyclic_bound) {
    auto bound = CyclicIterationBound(pred, source, options.cancel);
    if (!bound.ok()) {
      // A cancelled precomputation is a partial (empty) answer, not an
      // error: report it the way a mid-traversal unwind would, so the
      // service maps it to kCancelled/kDeadlineExceeded with partial=true.
      if (bound.status().code() == StatusCode::kCancelled) {
        st.cancelled = true;
        return std::vector<TermId>{};
      }
      return bound.status();
    }
    if (iteration_cap == 0 || bound.value() < iteration_cap) {
      iteration_cap = bound.value();
    }
  }

  // EM(p, 1) is the root copy of M(e_p) at base 0. Its final state stays
  // the final state of every EM(p, i).
  AddCopy(machine.value(), kNone);
  const uint32_t final_state = machine.value()->final();

  std::vector<TermId> answers;
  // Streaming: answers[flushed..] are derived but not yet delivered to the
  // term sink. Flushes ride the cancellation-point cadence below, so the
  // no-sink hot path pays nothing beyond the poll branch it already had.
  AnswerTermSink* term_sink = options.term_sink;
  size_t flushed = 0;
  auto flush_answers = [&] {
    if (term_sink != nullptr && flushed < answers.size()) {
      term_sink->OnTerms(answers.data() + flushed, answers.size() - flushed);
      flushed = answers.size();
    }
  };

  // Transition predicates repeat across nodes; resolve each view once
  // through a dense SymbolId-indexed cache instead of a map lookup per arc.
  // The cache outlives the query: registry entries are stable.
  auto find_view = [&](SymbolId p) -> BinaryRelationView* {
    if (p < view_cache_.size() && view_cache_[p] != nullptr) {
      return view_cache_[p];
    }
    BinaryRelationView* v = views_->Find(p);
    if (v != nullptr) {
      if (p >= view_cache_.size()) view_cache_.resize(p + 1, nullptr);
      view_cache_[p] = v;
    }
    return v;
  };

  auto try_insert = [&](uint32_t q, TermId u) {
    if (!InsertNode(q, u, st.nodes)) return;
    ++st.nodes;
    if (q == final_state) answers.push_back(u);
    stack_.emplace_back(q, u);
  };

  Status view_error = Status::Ok();
  // Cancellation points: the token is polled every kCancelCheckStride node
  // expansions (stack pops), so the steady_clock read amortizes to noise.
  // With no token the whole machinery is one never-taken branch per pop.
  const CancelToken* cancel = options.cancel;
  // The sink shares the token's decimated schedule: with either present
  // the stride countdown runs; a stride tick first flushes new answers
  // (streamed latency is bounded by the same few-ms worst case the token
  // doc argues), then polls the token if one rides the query.
  const bool stride_active = cancel != nullptr || term_sink != nullptr;
  size_t cancel_countdown = kCancelCheckStride;
  auto traverse = [&]() {
    while (!stack_.empty()) {
      if (stride_active && --cancel_countdown == 0) {
        cancel_countdown = kCancelCheckStride;
        flush_answers();
        if (cancel != nullptr) {
          ++st.cancel_checks;
          if (cancel->ShouldStop()) {
            st.cancelled = true;
            return;
          }
        }
      }
      auto [q, u] = stack_.back();
      stack_.pop_back();
      // copies_ only grows between iterations, so `c` is stable here.
      const Copy& c = copies_[copy_of_[q]];
      const uint32_t local = q - c.base;
      for (const NfaTransition& t : c.m->Out(local)) {
        const uint32_t target = c.base + t.target;
        switch (t.label.kind) {
          case NfaLabel::Kind::kId:
            ++st.arcs;
            try_insert(target, u);
            break;
          case NfaLabel::Kind::kRel: {
            BinaryRelationView* view = find_view(t.label.pred);
            if (view == nullptr) {
              view_error = Status::NotFound(
                  "no relation view registered for '" +
                  views_->symbols().Name(t.label.pred) + "'");
              return;
            }
            auto emit = [&](TermId v) {
              ++st.arcs;
              try_insert(target, v);
            };
            if (t.label.inverted) {
              if (!view->SupportsBackward()) {
                view_error = Status::Unsupported(
                    "view '" + views_->symbols().Name(t.label.pred) +
                    "' does not support inverse enumeration");
                return;
              }
              view->ForEachPred(u, emit);
            } else {
              view->ForEachSucc(u, emit);
            }
            break;
          }
          case NfaLabel::Kind::kDerived: {
            // Expanded in an earlier iteration: an id arc into the child
            // copy. Otherwise (q, u) is a continuation point.
            const uint32_t child = child_[q];
            if (child != kNone) {
              const Copy& k = copies_[child];
              ++st.arcs;
              try_insert(k.base + k.m->initial(), u);
            } else {
              continuations_.emplace_back(q, u);
              ++st.continuations;
            }
            break;
          }
        }
      }
      // A child copy's final state returns to its parent's derived-arc
      // target.
      if (local == c.m->final() && c.ret != kNone) {
        ++st.arcs;
        try_insert(c.ret, u);
      }
    }
  };

  // Starting point of the first traversal: (q_s, a).
  seeds_.emplace_back(machine.value()->initial(), source);

  // Programs have a handful of derived predicates, so a one-entry machine
  // cache removes the map lookup from the expansion loop.
  SymbolId cached_pred = 0;
  const Nfa* cached_machine = nullptr;
  while (true) {
    for (auto [q, u] : seeds_) try_insert(q, u);
    traverse();
    if (!view_error.ok()) return view_error;
    ++st.iterations;
    st.answers_per_iteration.push_back(answers.size());
    // Iteration boundary: everything this iteration derived is a valid
    // answer prefix (Lemma 2), so it streams now — before the cancelled /
    // C = 0 breaks, keeping the chunk stream a true prefix on every exit.
    flush_answers();
    seeds_.clear();
    if (st.cancelled) break;  // unwind with the partial answer set
    if (continuations_.empty()) break;  // C = 0: done
    // One poll per fixpoint iteration besides the decimated in-traversal
    // ones, so even queries whose iterations expand fewer than a stride of
    // nodes (e.g. each source of an all-free sweep) hit a cancellation
    // point at least once per iteration. Strictly after the C = 0 check: a
    // traversal that just converged has its complete answer set, and
    // marking it cancelled would misreport a finished result as partial.
    if (cancel != nullptr) {
      ++st.cancel_checks;
      if (cancel->ShouldStop()) {
        st.cancelled = true;
        break;
      }
    }
    if (iteration_cap != 0 && st.iterations >= iteration_cap) {
      st.hit_iteration_cap = true;
      break;
    }
    // Expansion: the derived arc of every state with continuation points
    // gets a child copy of the corresponding machine, and each point seeds
    // the next iteration at that copy's initial state.
    for (auto [q, u] : continuations_) {
      uint32_t child = child_[q];
      if (child == kNone) {
        const Copy& c = copies_[copy_of_[q]];
        const NfaTransition* arc = nullptr;
        for (const NfaTransition& t : c.m->Out(q - c.base)) {
          if (t.label.kind == NfaLabel::Kind::kId) continue;
          BINCHAIN_CHECK(arc == nullptr);  // at most one non-id arc
          arc = &t;
        }
        BINCHAIN_CHECK(arc != nullptr &&
                       arc->label.kind == NfaLabel::Kind::kDerived);
        const uint32_t ret = c.base + arc->target;  // before AddCopy moves c
        if (cached_machine == nullptr || arc->label.pred != cached_pred) {
          auto sub = Machine(arc->label.pred);
          if (!sub.ok()) return sub.status();
          cached_pred = arc->label.pred;
          cached_machine = sub.value();
        }
        child = AddCopy(cached_machine, ret);
        child_[q] = child;
        ++st.expansions;
      }
      const Copy& k = copies_[child];
      seeds_.emplace_back(k.base + k.m->initial(), u);
    }
    continuations_.clear();
  }
  st.em_states = copy_of_.size();
  // Frozen relations count retrievals per thread; unfrozen ones still count
  // into the database (QueryEngine folds those in for the combined total).
  st.fetches = Relation::ThreadFetchCount() - tls_fetches_before;
  st.wide_mask_scans = Relation::ThreadWideScanCount() - tls_wide_before;
  st.memo_hits = EvalArtifacts::ThreadMemoHits() - tls_memo_before;
  // Last flush strictly before the sort: the stream is in derivation
  // order, exactly once per term; the returned vector stays sorted.
  flush_answers();
  std::sort(answers.begin(), answers.end());
  return answers;
}

}  // namespace binchain
