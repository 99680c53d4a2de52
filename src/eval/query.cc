#include "eval/query.h"

#include <algorithm>

#include "datalog/parser.h"
#include "eval/answer_sink.h"
#include "eval/closure.h"
#include "eval/eval_artifacts.h"
#include "util/check.h"

namespace binchain {

namespace {

/// Bridges the engine's TermId flushes to the request's tuple-level sink,
/// applying the same shaping and filtering as the blocking result loops
/// in QueryEngine::Query — so a streamed chunk carries exactly the tuples
/// the final answer will. Stack-local per EvalFrom call; the buffer is
/// reused across chunks.
class ShapingTermSink : public AnswerTermSink {
 public:
  /// kForward emits {fixed, term}; kInverted emits {term, fixed}.
  enum class Shape { kForward, kInverted };

  ShapingTermSink(AnswerSink* sink, const SymbolTable* symbols, Shape shape,
                  SymbolId fixed)
      : sink_(sink), symbols_(symbols), shape_(shape), fixed_(fixed) {}

  /// Drops terms whose constant differs from `to` (the p(a, b) membership
  /// filter, or the diagonal's y == x).
  void FilterTo(SymbolId to) {
    filter_ = true;
    filter_to_ = to;
  }

  void OnTerms(const TermId* terms, size_t count) override {
    buf_.clear();
    for (size_t i = 0; i < count; ++i) {
      SymbolId c = terms[i];  // a unary term is its constant
      if (filter_ && c != filter_to_) continue;
      if (shape_ == Shape::kForward) {
        buf_.push_back(Tuple{fixed_, c});
      } else {
        buf_.push_back(Tuple{c, fixed_});
      }
    }
    // Chunks are never empty: a flush whose terms all failed the filter
    // simply produces nothing.
    if (!buf_.empty()) sink_->OnAnswers(buf_.data(), buf_.size(), *symbols_);
  }

 private:
  AnswerSink* sink_;
  const SymbolTable* symbols_;
  Shape shape_;
  SymbolId fixed_;
  bool filter_ = false;
  SymbolId filter_to_ = 0;
  std::vector<Tuple> buf_;
};

}  // namespace

void LoadFactsInto(Database& db, const std::vector<Literal>& facts) {
  for (const Literal& f : facts) {
    Relation& rel = db.GetOrCreate(db.symbols().Name(f.predicate), f.arity());
    Tuple t;
    for (const Term& a : f.args) t.push_back(a.symbol);
    rel.Insert(t);
  }
}

Result<std::shared_ptr<const PreparedProgram>> PrepareProgram(
    Database* db, Program program, bool compile_machines) {
  auto plan = std::make_shared<PreparedProgram>();
  plan->program = std::move(program);
  LoadFactsInto(*db, plan->program.facts);
  plan->program.facts.clear();
  plan->program.queries.clear();
  auto transformed = TransformToEquations(plan->program, db->symbols());
  if (!transformed.ok()) return transformed.status();
  plan->lemma1 = transformed.take();
  plan->combined =
      InvertSystem(plan->lemma1.final_system, db->symbols(), plan->inverse_of);
  if (compile_machines) {
    // A throwaway registry satisfies Machine()'s view-existence validation;
    // the compiled NFAs themselves depend only on the equations.
    ViewRegistry views(&db->symbols());
    views.RegisterDatabase(*db);
    Engine fwd(&plan->lemma1.final_system, &views);
    for (SymbolId p : plan->lemma1.final_system.preds()) {
      if (auto m = fwd.Machine(p); !m.ok()) return m.status();
    }
    plan->forward_machines = fwd.TakeMachines();
    Engine inv(&plan->combined, &views);
    for (SymbolId p : plan->combined.preds()) {
      if (auto m = inv.Machine(p); !m.ok()) return m.status();
    }
    plan->inverse_machines = inv.TakeMachines();
  }
  return Result<std::shared_ptr<const PreparedProgram>>(std::move(plan));
}

QueryEngine::QueryEngine(Database* db) : db_(db) {}

QueryEngine::QueryEngine(Database* db,
                         std::shared_ptr<const PreparedProgram> plan)
    : db_(db), plan_(std::move(plan)) {
  BINCHAIN_CHECK(plan_ != nullptr);
  InitFromPlan();
}

QueryEngine::~QueryEngine() = default;

Status QueryEngine::LoadProgramText(std::string_view text) {
  auto parsed = ParseProgram(text, db_->symbols());
  if (!parsed.ok()) return parsed.status();
  return LoadProgram(parsed.value());
}

Status QueryEngine::LoadProgram(const Program& program) {
  if (plan_ != nullptr) {
    return Status::FailedPrecondition("program already loaded");
  }
  auto plan = PrepareProgram(db_, program, /*compile_machines=*/false);
  if (!plan.ok()) return plan.status();
  plan_ = plan.take();
  InitFromPlan();
  return Status::Ok();
}

void QueryEngine::InitFromPlan() {
  views_ = std::make_unique<ViewRegistry>(&db_->symbols());
  views_->RegisterDatabase(*db_);
  engine_ = std::make_unique<Engine>(&plan_->lemma1.final_system,
                                     views_.get(), &plan_->forward_machines);
  inv_engine_ = std::make_unique<Engine>(&plan_->combined, views_.get(),
                                         &plan_->inverse_machines);
}

Status QueryEngine::PrepareAll() {
  if (plan_ == nullptr) {
    return Status::FailedPrecondition("no program loaded");
  }
  for (SymbolId p : plan_->lemma1.final_system.preds()) {
    if (auto m = engine_->Machine(p); !m.ok()) return m.status();
  }
  for (SymbolId p : plan_->combined.preds()) {
    if (auto m = inv_engine_->Machine(p); !m.ok()) return m.status();
  }
  return Status::Ok();
}

Status QueryEngine::BindSnapshot(const Database& db) {
  if (plan_ == nullptr) {
    return Status::FailedPrecondition("no program loaded");
  }
  if (!db.frozen()) {
    return Status::FailedPrecondition(
        "BindSnapshot requires a frozen database epoch");
  }
  // Epoch snapshots extend the engine's original symbol-id space, so
  // compiled machines, interned terms, and the rex cache all stay valid;
  // only the relation pointers (and the database read below) move. The
  // const_cast is sound: a frozen epoch is never mutated through db_.
  db_ = const_cast<Database*>(&db);
  // Adopt the epoch's shared artifacts (if the snapshot publisher attached
  // any): views rebind from the artifacts' frozen relation table and start
  // serving from the snapshot-owned memos, and the all-free paths below
  // from the shared closure / source caches.
  artifacts_ = std::dynamic_pointer_cast<const EvalArtifacts>(db.artifact());
  views_->BindSnapshot(db, artifacts_.get());
  return Status::Ok();
}

const EquationSystem& QueryEngine::equations() const {
  BINCHAIN_CHECK(plan_ != nullptr);
  return plan_->lemma1.final_system;
}

Result<QueryAnswer> QueryEngine::Query(std::string_view literal_text,
                                       const EvalOptions& options) {
  auto lit = ParseLiteral(literal_text, db_->symbols());
  if (!lit.ok()) return lit.status();
  return Query(lit.value(), options);
}

const std::vector<SymbolId>& QueryEngine::CandidateSources(SymbolId pred) {
  if (artifacts_ != nullptr) {
    if (const SharedSources* cache = artifacts_->Sources(pred)) {
      if (const std::vector<SymbolId>* v = cache->Get()) {
        EvalArtifacts::BumpThreadMemoHits();
        return *v;
      }
      // First all-free query of this epoch: compute once, publish for every
      // worker. All computations over one frozen snapshot are identical, so
      // first-wins is deterministic in content. The cell's storage is
      // stable, so the reference stays valid for the sweep.
      return *cache->Publish(ComputeCandidateSources(pred));
    }
  }
  source_scratch_ = ComputeCandidateSources(pred);
  return source_scratch_;
}

std::vector<SymbolId> QueryEngine::ComputeCandidateSources(SymbolId pred) {
  // The base predicates e_pred transitively reads (the same dependency set
  // artifact invalidation keys on), then the constants of those relations
  // (both columns: a conservative superset of domain(pred)).
  std::unordered_set<SymbolId> consts;
  for (SymbolId p : TransitiveBasePreds(plan_->lemma1.final_system, pred)) {
    const Relation* rel = db_->FindById(p);
    if (rel == nullptr) continue;
    for (TupleRef t : rel->tuples()) {
      for (SymbolId c : t) consts.insert(c);
    }
  }
  std::vector<SymbolId> out(consts.begin(), consts.end());
  std::sort(out.begin(), out.end());
  return out;
}

bool QueryEngine::TryAllPairsClosure(SymbolId pred, const Literal& query,
                                     const EvalOptions& options,
                                     QueryAnswer* answer) {
  // Match e*.e or e.e* with a single non-inverted base predicate e.
  const RexPtr& rhs = plan_->lemma1.final_system.Rhs(pred);
  if (rhs->kind != Rex::Kind::kConcat || rhs->kids.size() != 2) return false;
  const RexPtr& x = rhs->kids[0];
  const RexPtr& y = rhs->kids[1];
  const Rex* leaf = nullptr;
  const Rex* star = nullptr;
  if (x->kind == Rex::Kind::kStar && y->kind == Rex::Kind::kPred) {
    star = x.get();
    leaf = y.get();
  } else if (y->kind == Rex::Kind::kStar && x->kind == Rex::Kind::kPred) {
    star = y.get();
    leaf = x.get();
  } else {
    return false;
  }
  if (leaf->inverted) return false;
  if (star->kids[0]->kind != Rex::Kind::kPred ||
      star->kids[0]->pred != leaf->pred || star->kids[0]->inverted) {
    return false;
  }
  BinaryRelationView* view = views_->Find(leaf->pred);
  if (view == nullptr || !view->SupportsEnumerate()) return false;

  bool diagonal = query.args[0].IsVar() && query.args[1].IsVar() &&
                  query.args[0] == query.args[1];

  // Epoch-shared closure cache: the first worker runs Tarjan and publishes
  // the pairs; everyone else — and every later all-free query of the
  // epoch — replays the shared value.
  // Without artifacts the same value is simply computed locally.
  const SharedClosure* cache =
      artifacts_ != nullptr ? artifacts_->Closure(pred) : nullptr;
  const ClosureValue* v = cache != nullptr ? cache->Get() : nullptr;
  ClosureValue local;
  if (v != nullptr) {
    EvalArtifacts::BumpThreadMemoHits();
  } else {
    ClosureStats stats;
    auto pairs = TransitiveClosureAllPairs(view, &stats, options.cancel);
    if (!pairs.ok()) {
      if (pairs.status().code() == StatusCode::kCancelled) {
        // Handled-but-partial: report the cancellation (empty answer set)
        // instead of falling through to the per-source sweep, and leave the
        // shared cache empty — a partial value must never be published.
        answer->stats.cancelled = true;
        return true;
      }
      return false;
    }
    local.nodes = stats.nodes;
    local.pairs = pairs.take();  // sorted constant pairs already
    v = cache != nullptr ? cache->Publish(std::move(local)) : &local;
  }
  answer->stats.nodes = v->nodes;
  for (auto [cu, cv] : v->pairs) {
    if (diagonal && cu != cv) continue;
    answer->tuples.push_back(Tuple{cu, cv});
  }
  return true;
}

Result<QueryAnswer> QueryEngine::Query(const Literal& query,
                                       const EvalOptions& options) {
  if (plan_ == nullptr) {
    return Status::FailedPrecondition("no program loaded");
  }
  if (query.arity() != 2) {
    return Status::InvalidArgument("queries must be binary literals");
  }
  SymbolId pred = query.predicate;
  // Unfrozen relations count into the database, frozen ones into the
  // calling thread; the sum's delta is the query's exact fetch count in
  // either mode. Once frozen the per-relation counters can never move, so
  // the concurrent hot path skips walking the relation map entirely.
  auto fetch_total = [this] {
    return Relation::ThreadFetchCount() +
           (db_->frozen() ? 0 : db_->TotalFetches());
  };
  uint64_t fetches_before = fetch_total();
  uint64_t wide_before = Relation::ThreadWideScanCount();
  uint64_t memo_before = EvalArtifacts::ThreadMemoHits();
  QueryAnswer answer;

  // Base-predicate queries answer directly from the extensional database.
  if (!plan_->lemma1.final_system.Has(pred)) {
    const Relation* rel = db_->FindById(pred);
    if (rel == nullptr) {
      return Status::NotFound("unknown predicate '" +
                              db_->symbols().Name(pred) + "'");
    }
    for (TupleRef t : rel->tuples()) {
      bool match = true;
      for (size_t i = 0; i < 2; ++i) {
        if (query.args[i].IsConst() && query.args[i].symbol != t[i]) {
          match = false;
        }
      }
      if (query.args[0].IsVar() && query.args[1].IsVar() &&
          query.args[0] == query.args[1] && t[0] != t[1]) {
        match = false;
      }
      if (match) answer.tuples.push_back(Tuple(t));
    }
    std::sort(answer.tuples.begin(), answer.tuples.end());
    // No traversal to stream from: the whole (sorted) scan is one chunk.
    if (options.sink != nullptr && !answer.tuples.empty()) {
      options.sink->OnAnswers(answer.tuples.data(), answer.tuples.size(),
                              db_->symbols());
    }
    answer.fetches = fetch_total() - fetches_before;
    answer.stats.fetches = answer.fetches;
    answer.stats.wide_mask_scans =
        Relation::ThreadWideScanCount() - wide_before;
    answer.stats.memo_hits = EvalArtifacts::ThreadMemoHits() - memo_before;
    return answer;
  }

  const Term& a0 = query.args[0];
  const Term& a1 = query.args[1];

  if (a0.IsConst()) {
    // p(a, Y) or p(a, b).
    EvalOptions opts = options;
    ShapingTermSink shaping(options.sink, &db_->symbols(),
                            ShapingTermSink::Shape::kForward, a0.symbol);
    if (a1.IsConst()) shaping.FilterTo(a1.symbol);
    if (options.sink != nullptr) opts.term_sink = &shaping;
    auto r = engine_->EvalFrom(pred, a0.symbol, opts, &answer.stats);
    if (!r.ok()) return r.status();
    for (SymbolId c : r.value()) {
      if (a1.IsConst() && c != a1.symbol) continue;
      answer.tuples.push_back(Tuple{a0.symbol, c});
    }
  } else if (a1.IsConst()) {
    // p(X, b): evaluate the inverted system from b.
    EvalOptions opts = options;
    ShapingTermSink shaping(options.sink, &db_->symbols(),
                            ShapingTermSink::Shape::kInverted, a1.symbol);
    if (options.sink != nullptr) opts.term_sink = &shaping;
    auto r = inv_engine_->EvalFrom(plan_->inverse_of.at(pred), a1.symbol,
                                   opts, &answer.stats);
    if (!r.ok()) return r.status();
    for (SymbolId c : r.value()) answer.tuples.push_back(Tuple{c, a1.symbol});
  } else if (!options.disable_closure_sharing &&
             TryAllPairsClosure(pred, query, options, &answer)) {
    // Handled by the shared Tarjan-condensation closure: no traversal to
    // stream from, so the whole (already sorted) answer set is one chunk.
    if (options.sink != nullptr && !answer.tuples.empty()) {
      options.sink->OnAnswers(answer.tuples.data(), answer.tuples.size(),
                              db_->symbols());
    }
  } else {
    // p(X, Y) / p(X, X): evaluate from every candidate source.
    bool diagonal = (a0 == a1);
    for (SymbolId c : CandidateSources(pred)) {
      EvalStats stats;
      EvalOptions opts = options;
      ShapingTermSink shaping(options.sink, &db_->symbols(),
                              ShapingTermSink::Shape::kForward, c);
      if (diagonal) shaping.FilterTo(c);
      if (options.sink != nullptr) opts.term_sink = &shaping;
      auto r = engine_->EvalFrom(pred, c, opts, &stats);
      if (!r.ok()) return r.status();
      answer.stats.nodes += stats.nodes;
      answer.stats.arcs += stats.arcs;
      answer.stats.iterations += stats.iterations;
      answer.stats.expansions += stats.expansions;
      answer.stats.continuations += stats.continuations;
      answer.stats.em_states += stats.em_states;
      answer.stats.hit_iteration_cap |= stats.hit_iteration_cap;
      answer.stats.cancel_checks += stats.cancel_checks;
      for (SymbolId yc : r.value()) {
        if (diagonal && yc != c) continue;
        answer.tuples.push_back(Tuple{c, yc});
      }
      // A cancelled source unwinds the whole sweep: the remaining sources
      // would only widen the already-partial answer set.
      if (stats.cancelled) {
        answer.stats.cancelled = true;
        break;
      }
    }
  }
  std::sort(answer.tuples.begin(), answer.tuples.end());
  answer.tuples.erase(std::unique(answer.tuples.begin(), answer.tuples.end()),
                      answer.tuples.end());
  answer.fetches = fetch_total() - fetches_before;
  answer.stats.fetches = answer.fetches;
  answer.stats.wide_mask_scans = Relation::ThreadWideScanCount() - wide_before;
  answer.stats.memo_hits = EvalArtifacts::ThreadMemoHits() - memo_before;
  return answer;
}

}  // namespace binchain
