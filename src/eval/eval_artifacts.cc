#include "eval/eval_artifacts.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "datalog/printer.h"
#include "eval/query.h"
#include "rex/rex.h"
#include "util/check.h"

namespace binchain {

std::vector<SymbolId> TransitiveBasePreds(const EquationSystem& eqs,
                                          SymbolId pred) {
  std::unordered_set<SymbolId> todo{pred}, seen, base;
  while (!todo.empty()) {
    SymbolId p = *todo.begin();
    todo.erase(todo.begin());
    if (!seen.insert(p).second) continue;
    if (!eqs.Has(p)) {
      base.insert(p);
      continue;
    }
    std::unordered_set<SymbolId> mentioned;
    CollectPreds(eqs.Rhs(p), mentioned);
    for (SymbolId q : mentioned) todo.insert(q);
  }
  std::vector<SymbolId> out(base.begin(), base.end());
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// True if `layer` is `rel` or one of the layers of its base chain.
bool IsChainLayer(const Relation* layer, const Relation* rel) {
  for (; rel != nullptr; rel = rel->base().get()) {
    if (rel == layer) return true;
  }
  return false;
}

}  // namespace

SharedAdjacency::SharedAdjacency(const Relation* rel)
    : rel_(rel), total_rows_(rel->size()) {
  BINCHAIN_CHECK(rel_->frozen());
}

SharedAdjacency::SharedAdjacency(const Relation* rel,
                                 std::shared_ptr<const SharedAdjacency> base)
    : rel_(rel),
      base_(std::move(base)),
      local_begin_(base_->relation()->size()),
      total_rows_(rel->size()) {
  BINCHAIN_CHECK(rel_->frozen());
  BINCHAIN_CHECK(local_begin_ <= total_rows_);
}

void SharedAdjacency::EnsureBuilt() const {
  if (ready_.load(std::memory_order_acquire)) return;
  if (base_ != nullptr) base_->EnsureBuilt();
  std::lock_guard<std::mutex> lock(mu_);
  if (ready_.load(std::memory_order_relaxed)) return;
  BuildLocal();
  ready_.store(true, std::memory_order_release);
}

void SharedAdjacency::BuildLocal() const {
  // Counting sort of this layer's rows by source (and by target for the
  // backward direction). Filling in ascending row order keeps every
  // per-key target list in insertion order — the enumeration order
  // Relation::ForEachMatch delivers. Tombstoned rows are skipped: the memo
  // bakes the relation's (frozen, immutable) dead set into the CSR, which
  // is why a later retraction forces the shrunk rebuild instead of a chain
  // extension (see EvalArtifacts::BuildFor). Offsets cover only each
  // direction's key span over the live rows, so a delta layer's size
  // follows its delta, not the epoch's largest symbol id.
  SymbolId flo = std::numeric_limits<SymbolId>::max(), fhi = 0;
  SymbolId blo = flo, bhi = 0;
  size_t rows = 0;
  for (size_t r = local_begin_; r < total_rows_; ++r) {
    if (rel_->RowDead(r)) continue;
    TupleRef t = rel_->tuple(r);
    flo = std::min(flo, t[0]);
    fhi = std::max(fhi, t[0]);
    blo = std::min(blo, t[1]);
    bhi = std::max(bhi, t[1]);
    ++rows;
  }
  if (rows == 0) return;  // empty offsets: every key enumerates nothing
  fwd_.lo = flo;
  bwd_.lo = blo;
  fwd_.off.assign(size_t{fhi} - flo + 2, 0);
  bwd_.off.assign(size_t{bhi} - blo + 2, 0);
  fwd_.tgt.resize(rows);
  bwd_.tgt.resize(rows);
  for (size_t r = local_begin_; r < total_rows_; ++r) {
    if (rel_->RowDead(r)) continue;
    TupleRef t = rel_->tuple(r);
    ++fwd_.off[t[0] - flo + 1];
    ++bwd_.off[t[1] - blo + 1];
  }
  for (Csr* c : {&fwd_, &bwd_}) {
    for (size_t k = 1; k < c->off.size(); ++k) c->off[k] += c->off[k - 1];
  }
  std::vector<uint32_t> fcur(fwd_.off.begin(), fwd_.off.end());
  std::vector<uint32_t> bcur(bwd_.off.begin(), bwd_.off.end());
  for (size_t r = local_begin_; r < total_rows_; ++r) {
    if (rel_->RowDead(r)) continue;
    TupleRef t = rel_->tuple(r);
    fwd_.tgt[fcur[t[0] - flo]++] = t[1];
    bwd_.tgt[bcur[t[1] - blo]++] = t[0];
  }
}

void SharedAdjacency::ForEachSucc(SymbolId u,
                                  FunctionRef<void(SymbolId)> fn) const {
  BINCHAIN_DCHECK(built());
  EvalArtifacts::BumpThreadMemoHits();
  // Base layers hold older rows; emitting them first preserves global
  // insertion order. The chain is no deeper than the relation's, so a
  // small fixed stack suffices.
  const SharedAdjacency* layers[RowRange::kMaxSegments];
  size_t n = 0;
  for (const SharedAdjacency* layer = this; layer != nullptr;
       layer = layer->base_.get()) {
    BINCHAIN_CHECK(n < RowRange::kMaxSegments);
    layers[n++] = layer;
  }
  while (n > 0) layers[--n]->fwd_.ForKey(u, fn);
}

void SharedAdjacency::ForEachPred(SymbolId v,
                                  FunctionRef<void(SymbolId)> fn) const {
  BINCHAIN_DCHECK(built());
  EvalArtifacts::BumpThreadMemoHits();
  const SharedAdjacency* layers[RowRange::kMaxSegments];
  size_t n = 0;
  for (const SharedAdjacency* layer = this; layer != nullptr;
       layer = layer->base_.get()) {
    BINCHAIN_CHECK(n < RowRange::kMaxSegments);
    layers[n++] = layer;
  }
  while (n > 0) layers[--n]->bwd_.ForKey(v, fn);
}

SharedDemandMemo::Shard& SharedDemandMemo::ShardFor(
    const Tuple& input) const {
  return shards_[TupleHash{}(input) % kShards];
}

const std::vector<Tuple>* SharedDemandMemo::Find(const Tuple& input) const {
  Shard& shard = ShardFor(input);
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(input);
  if (it == shard.map.end()) return nullptr;
  EvalArtifacts::BumpThreadMemoHits();
  return it->second.get();
}

const std::vector<Tuple>* SharedDemandMemo::Publish(
    const Tuple& input, std::vector<Tuple> outputs) const {
  Shard& shard = ShardFor(input);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(input);
  if (it != shard.map.end()) return it->second.get();
  auto stored =
      std::make_unique<const std::vector<Tuple>>(std::move(outputs));
  const std::vector<Tuple>* raw = stored.get();
  shard.map.emplace(input, std::move(stored));
  return raw;
}

uint64_t SharedDemandMemo::entries() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

std::shared_ptr<const EvalArtifacts> EvalArtifacts::BuildFor(
    const Database& db, std::shared_ptr<const PreparedProgram> plan,
    const std::shared_ptr<const EvalArtifacts>& prev) {
  BINCHAIN_CHECK(db.frozen());
  BINCHAIN_CHECK(plan != nullptr);
  std::shared_ptr<EvalArtifacts> out(new EvalArtifacts());
  out->epoch_ = db.epoch();
  out->plan_ = plan;

  for (const std::string& name : db.relation_names()) {
    const Relation* rel = db.Find(name);
    auto id = db.symbols().Find(name);
    if (rel == nullptr || !id) continue;
    out->rel_by_id_.emplace(*id, rel);
    if (rel->arity() != 2) continue;
    out->binary_.emplace_back(*id, rel);
    ++out->refresh_.adjacency_entries;

    std::shared_ptr<const SharedAdjacency> prev_adj;
    if (prev != nullptr) {
      auto pit = prev->adjacency_.find(*id);
      if (pit != prev->adjacency_.end()) prev_adj = pit->second;
    }
    if (prev_adj != nullptr && prev_adj->relation() == rel) {
      // Untouched relation: the previous epoch's memo answers verbatim.
      out->adjacency_.emplace(*id, prev_adj);
      ++out->refresh_.adjacency_reused;
      continue;
    }
    // The deepest previous memo layer whose relation is still a layer of
    // `rel`'s chain: its rows are a prefix of `rel`'s. A fresh delta layer
    // finds the previous top (O(delta) above it); after a merge, the layer
    // the merged ones chained to (O(rows above it)). A flattened relation
    // finds none. Every memo layer's relation is a layer of its top's
    // chain, which the previous epoch pins, so the pointers compared here
    // are all live.
    std::shared_ptr<const SharedAdjacency> anchor = prev_adj;
    while (anchor != nullptr && !IsChainLayer(anchor->relation(), rel)) {
      anchor = anchor->base();
    }
    if (anchor != nullptr &&
        anchor->relation()->dead_mutations() == rel->dead_mutations()) {
      // Same dead set (equal mutation counts — count equality alone would
      // miss a resurrect+delete pair): chain a memo layer over just the
      // rows above the anchor. Built lazily.
      out->adjacency_.emplace(
          *id, std::make_shared<SharedAdjacency>(rel, std::move(anchor)));
      ++out->refresh_.adjacency_extended;
    } else if (anchor != nullptr) {
      // Shrunk path: same chain, but tombstones were edited since, and
      // the old memo baked its dead set into its CSR at build time.
      // Rebuild this one relation's memo standalone (lazily); untouched
      // relations above still reused by pointer.
      out->adjacency_.emplace(*id, std::make_shared<SharedAdjacency>(rel));
      ++out->refresh_.adjacency_shrunk;
    } else {
      // New or flattened relation: standalone rebuild (lazy; eager below
      // for the first freeze).
      out->adjacency_.emplace(*id, std::make_shared<SharedAdjacency>(rel));
      ++out->refresh_.adjacency_rebuilt;
    }
  }

  const EquationSystem& eqs = plan->lemma1.final_system;
  for (SymbolId p : eqs.preds()) {
    DerivedEntry entry;
    entry.deps = TransitiveBasePreds(eqs, p);
    ++out->refresh_.derived_entries;
    const DerivedEntry* prev_entry = nullptr;
    if (prev != nullptr) {
      auto pit = prev->derived_.find(p);
      if (pit != prev->derived_.end()) prev_entry = &pit->second;
    }
    bool clean = prev_entry != nullptr;
    if (clean) {
      for (SymbolId d : entry.deps) {
        const Relation* now = db.FindById(d);
        auto bit = prev->rel_by_id_.find(d);
        const Relation* before =
            bit == prev->rel_by_id_.end() ? nullptr : bit->second;
        if (now != before) {
          clean = false;
          break;
        }
      }
    }
    if (clean) {
      entry.closure = prev_entry->closure;
      entry.sources = prev_entry->sources;
      ++out->refresh_.derived_reused;
    } else {
      entry.closure = std::make_shared<SharedClosure>();
      entry.sources = std::make_shared<SharedSources>();
      ++out->refresh_.derived_invalidated;
    }
    out->derived_.emplace(p, std::move(entry));
  }

  if (prev == nullptr) {
    // First freeze: pay the one-time adjacency build here, on the calling
    // thread, so serving starts with every memo warm ("built at freeze
    // time"). Post-publish epochs skip this — their refreshed entries
    // build on first probe, keeping Publish() O(delta).
    for (auto& [id, adj] : out->adjacency_) adj->EnsureBuilt();
  }
  return out;
}

bool EvalArtifacts::CompatiblePlan(const PreparedProgram& plan,
                                   const SymbolTable& symbols) const {
  return ProgramToString(plan_->program, symbols) ==
         ProgramToString(plan.program, symbols);
}

const SharedAdjacency* EvalArtifacts::Adjacency(SymbolId pred) const {
  auto it = adjacency_.find(pred);
  return it == adjacency_.end() ? nullptr : it->second.get();
}

const SharedClosure* EvalArtifacts::Closure(SymbolId pred) const {
  auto it = derived_.find(pred);
  return it == derived_.end() ? nullptr : it->second.closure.get();
}

const SharedSources* EvalArtifacts::Sources(SymbolId pred) const {
  auto it = derived_.find(pred);
  return it == derived_.end() ? nullptr : it->second.sources.get();
}

const SharedDemandMemo& EvalArtifacts::DemandMemo(SymbolId pred) const {
  std::lock_guard<std::mutex> lock(demand_mu_);
  auto& slot = demand_[pred];
  if (slot == nullptr) slot = std::make_unique<SharedDemandMemo>();
  return *slot;
}

}  // namespace binchain
