// Epoch-scoped shared evaluation artifacts.
//
// PR 2 gave every service worker a complete private evaluation context;
// that made concurrency trivial but re-derived the expensive *shared* parts
// — adjacency lookups, closure/all-free results, demand-join memos — once
// per worker, per batch, per epoch. This module inverts that ownership:
// everything immutable-per-snapshot lives in an EvalArtifacts object that
// is built when an epoch freezes, attached to the Database through the
// type-erased SnapshotArtifact slot, and shared read-only by every worker
// bound to that epoch. Workers keep only cheap mutable scratch (the pool
// of tuple terms, engine node sets).
//
// Thread safety is by construction, in two patterns:
//   - fill-once cells (SharedOnce, SharedAdjacency): a mutex serializes the
//     single build, an atomic release-store publishes it, and every later
//     probe is a lock-free acquire-load of immutable data;
//   - sharded maps (SharedDemandMemo): keyed inserts under a shard mutex,
//     values at stable addresses so hits are returned by pointer.
//
// Epoch lifecycle: SnapshotManager::Publish() rebuilds the artifact set for
// the successor epoch in O(delta) via EvalArtifacts::BuildFor(next, plan,
// prev) — entries whose underlying relations are untouched are shared by
// pointer with the previous epoch (copy-on-write), entries whose relations
// gained a delta layer are *extended* (a memo layer chained to the deepest
// previous memo layer that still mirrors a layer of the relation's chain,
// covering just the rows above it), and only flattened or new relations
// force a standalone rebuild. Closure / source caches are invalidated per
// predicate, by intersecting the predicate's transitive base-relation
// dependencies with the set of changed relations.
#ifndef BINCHAIN_EVAL_EVAL_ARTIFACTS_H_
#define BINCHAIN_EVAL_EVAL_ARTIFACTS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "storage/relation.h"
#include "storage/tuple.h"
#include "util/function_ref.h"

namespace binchain {

class EquationSystem;
struct PreparedProgram;

/// Base (non-derived) predicates transitively mentioned from e_pred: the
/// EDB relations whose contents the predicate's evaluation can read. The
/// single source of truth for both artifact invalidation (BuildFor's
/// dependency sets) and the all-free candidate-source sweep
/// (QueryEngine::ComputeCandidateSources) — the two must never drift, or a
/// publish could reuse a cell whose true dependencies changed. Sorted.
std::vector<SymbolId> TransitiveBasePreds(const EquationSystem& eqs,
                                          SymbolId pred);

/// A value computed at most once per epoch and shared by every worker.
/// Get() is a lock-free acquire-load; Publish() takes a mutex, keeps the
/// first value (all callers compute identical data from the same frozen
/// snapshot, so "first wins" is not a race on meaning) and returns the
/// winner. The returned pointer is stable for the cell's lifetime.
template <typename V>
class SharedOnce {
 public:
  const V* Get() const { return ready_.load(std::memory_order_acquire); }

  const V* Publish(V v) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (const V* cur = ready_.load(std::memory_order_relaxed)) return cur;
    storage_ = std::make_unique<V>(std::move(v));
    ready_.store(storage_.get(), std::memory_order_release);
    return storage_.get();
  }

 private:
  mutable std::mutex mu_;
  mutable std::atomic<const V*> ready_{nullptr};
  mutable std::unique_ptr<V> storage_;
};

/// All-pairs closure result of one derived predicate (TryAllPairsClosure):
/// pairs of constants, which are their own unary terms in every worker.
struct ClosureValue {
  std::vector<std::pair<SymbolId, SymbolId>> pairs;  // sorted
  uint64_t nodes = 0;  // ClosureStats::nodes, replayed into EvalStats
};
using SharedClosure = SharedOnce<ClosureValue>;

/// Candidate source constants of one derived predicate (the all-free query
/// sweep), sorted.
using SharedSources = SharedOnce<std::vector<SymbolId>>;

/// Forward/backward adjacency of one frozen binary relation, materialized
/// as CSR (offsets over the layer's key span + flat target array) the first
/// time any worker probes it, then served lock-free to every worker of the
/// epoch. Per-source target lists preserve row insertion order, so a probe
/// emits exactly what Relation::ForEachMatch would — minus the per-tuple
/// EDB retrieval, which is why batch fetch counts drop.
///
/// Across epochs the memo layers like the relation it mirrors: an entry for
/// a delta-extended relation chains to the deepest previous memo layer
/// whose relation is still a layer of the new relation's chain and builds
/// CSR over only the rows above it — the delta, or the merged layers plus
/// the delta after a size-tiered merge. Memo layers so always map onto
/// relation layers, and the relation's chain bounds their depth. Each
/// direction's offsets span only the keys [lo, hi] of the layer's live
/// rows, so a delta layer costs O(delta rows + its key span), not one
/// offset per symbol of the epoch; a delta whose keys span the whole id
/// range costs what the root does.
class SharedAdjacency {
 public:
  /// Standalone memo over `rel` (built lazily on first EnsureBuilt).
  explicit SharedAdjacency(const Relation* rel);
  /// Chained memo: `base` covers rel's first base->relation()->size() rows;
  /// this layer will index only the rows above that. `base->relation()`
  /// must be a layer of `rel`'s base chain (or share its rows as a prefix
  /// and outlive this memo) with the same dead set.
  SharedAdjacency(const Relation* rel,
                  std::shared_ptr<const SharedAdjacency> base);

  const Relation* relation() const { return rel_; }
  const std::shared_ptr<const SharedAdjacency>& base() const { return base_; }
  size_t chain_depth() const { return base_ ? base_->chain_depth() + 1 : 0; }
  size_t total_rows() const { return total_rows_; }

  bool built() const { return ready_.load(std::memory_order_acquire); }
  /// Builds the CSR pair (and the base chain's) if missing. Thread-safe:
  /// double-checked with a per-layer mutex; concurrent callers block until
  /// the single build finishes, then probe lock-free.
  void EnsureBuilt() const;

  /// Enumerations over the whole chain, base layers first (global insertion
  /// order). Require built(); each call counts one thread-local memo hit
  /// (EvalArtifacts::ThreadMemoHits) in place of the EDB fetches it saves.
  void ForEachSucc(SymbolId u, FunctionRef<void(SymbolId)> fn) const;
  void ForEachPred(SymbolId v, FunctionRef<void(SymbolId)> fn) const;

 private:
  struct Csr {
    SymbolId lo = 0;  // smallest key; off[k - lo] starts key k's targets
    std::vector<uint32_t> off;  // hi - lo + 2 entries; empty until built
    std::vector<SymbolId> tgt;
    void ForKey(SymbolId key, FunctionRef<void(SymbolId)> fn) const {
      if (key < lo || size_t{key} - lo + 1 >= off.size()) return;
      const size_t k = key - lo;
      for (uint32_t i = off[k]; i < off[k + 1]; ++i) fn(tgt[i]);
    }
  };
  void BuildLocal() const;  // rows [local_begin_, rel_->size())

  const Relation* rel_;
  std::shared_ptr<const SharedAdjacency> base_;  // frozen chain or null
  size_t local_begin_ = 0;  // first row this layer indexes
  size_t total_rows_ = 0;   // rel_->size() at construction
  mutable std::mutex mu_;
  mutable std::atomic<bool> ready_{false};
  mutable Csr fwd_, bwd_;
};

/// Shared demand-join memo: input tuple (by constant content, since tuple
/// terms are pool-local) -> output tuples. The first worker to evaluate a
/// source publishes; later probes from any worker are served by pointer.
/// Sharded so concurrent fills of distinct sources do not contend.
class SharedDemandMemo {
 public:
  /// nullptr on miss; on hit, a pointer stable for the memo's lifetime
  /// (counts one thread-local memo hit).
  const std::vector<Tuple>* Find(const Tuple& input) const;
  /// First publisher wins; returns the stored vector either way.
  const std::vector<Tuple>* Publish(const Tuple& input,
                                    std::vector<Tuple> outputs) const;
  uint64_t entries() const;

 private:
  static constexpr size_t kShards = 8;
  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<Tuple, std::unique_ptr<const std::vector<Tuple>>,
                       TupleHash>
        map;
  };
  Shard& ShardFor(const Tuple& input) const;
  mutable Shard shards_[kShards];
};

/// The snapshot-owned artifact set: everything evaluation derives from one
/// frozen epoch that is worth sharing across workers. Attached to the
/// Database epoch via Database::AttachArtifact, so its lifetime rides the
/// epoch handles — a batch pinning an old epoch pins exactly that epoch's
/// artifacts.
class EvalArtifacts : public SnapshotArtifact {
 public:
  /// What BuildFor did relative to the previous epoch — the O(delta)
  /// refresh contract, pinned by tests and surfaced by bench_live.
  struct RefreshStats {
    uint64_t adjacency_entries = 0;
    uint64_t adjacency_reused = 0;    // relation untouched: shared by pointer
    /// Delta layer: memo chained to the deepest previous memo layer still
    /// in the relation's chain, over the rows above it (O(delta), or the
    /// merged layers' rows after a size-tiered merge).
    uint64_t adjacency_extended = 0;
    uint64_t adjacency_rebuilt = 0;   // new or flattened relation
    /// Retraction path: the delta layer tombstoned (or resurrected) rows,
    /// so the old memo chain — which baked the old dead set into its CSR —
    /// cannot be extended. Only this relation's memo rebuilds (lazily);
    /// every untouched relation still shares by pointer.
    uint64_t adjacency_shrunk = 0;
    uint64_t derived_entries = 0;     // closure + source cells per predicate
    uint64_t derived_reused = 0;      // no dependency relation changed
    uint64_t derived_invalidated = 0;  // fresh (empty) cells
  };

  /// Builds the artifact set for frozen `db`. `prev` — the predecessor
  /// epoch's artifacts, or nullptr for the first freeze — enables the
  /// O(delta) refresh described in the file comment. With no predecessor,
  /// adjacency memos are built eagerly (the "built at freeze time" case);
  /// refreshed entries build lazily on first probe so Publish() itself
  /// stays O(delta).
  static std::shared_ptr<const EvalArtifacts> BuildFor(
      const Database& db, std::shared_ptr<const PreparedProgram> plan,
      const std::shared_ptr<const EvalArtifacts>& prev);

  /// Adjacency memo of the binary relation named by `pred`, or nullptr.
  const SharedAdjacency* Adjacency(SymbolId pred) const;
  /// Fill-once cells for a derived predicate of the plan's equation system;
  /// nullptr for predicates outside it.
  const SharedClosure* Closure(SymbolId pred) const;
  const SharedSources* Sources(SymbolId pred) const;
  /// Shared demand-join memo for a Section-4 view predicate (created on
  /// first request; per-epoch, never carried forward — demand results
  /// depend on the epoch's full contents).
  const SharedDemandMemo& DemandMemo(SymbolId pred) const;

  /// Every binary relation of the epoch with its interned name — the
  /// frozen view table ViewRegistry::BindSnapshot rebinds from (no name
  /// walk, no Intern per relation on an epoch bump).
  const std::vector<std::pair<SymbolId, const Relation*>>& binary_relations()
      const {
    return binary_;
  }

  uint64_t epoch() const { return epoch_; }
  const RefreshStats& refresh_stats() const { return refresh_; }

  /// True when these artifacts were built for a program whose rules render
  /// identically to `plan`'s — the guard a service uses before adopting an
  /// artifact set another service attached to the same frozen database
  /// (closure/source cells are keyed by predicate id, so a different rule
  /// set reusing the same spellings must not inherit them).
  bool CompatiblePlan(const PreparedProgram& plan,
                      const SymbolTable& symbols) const;

  /// Probes this thread served from epoch-shared memos instead of EDB
  /// retrievals; surfaced per query as EvalStats::memo_hits. Deltas of this
  /// counter pair with Relation::ThreadFetchCount() the way the freeze-mode
  /// fetch accounting does.
  static uint64_t ThreadMemoHits() { return tls_memo_hits_; }
  static void BumpThreadMemoHits() { ++tls_memo_hits_; }

 private:
  EvalArtifacts() = default;

  struct DerivedEntry {
    std::vector<SymbolId> deps;  // transitive base predicates the value reads
    std::shared_ptr<SharedClosure> closure;
    std::shared_ptr<SharedSources> sources;
  };

  uint64_t epoch_ = 0;
  std::shared_ptr<const PreparedProgram> plan_;
  std::vector<std::pair<SymbolId, const Relation*>> binary_;
  std::unordered_map<SymbolId, const Relation*> rel_by_id_;  // all arities
  std::unordered_map<SymbolId, std::shared_ptr<const SharedAdjacency>>
      adjacency_;
  std::unordered_map<SymbolId, DerivedEntry> derived_;
  mutable std::mutex demand_mu_;
  mutable std::unordered_map<SymbolId, std::unique_ptr<SharedDemandMemo>>
      demand_;
  RefreshStats refresh_;

  inline static thread_local uint64_t tls_memo_hits_ = 0;
};

}  // namespace binchain

#endif  // BINCHAIN_EVAL_EVAL_ARTIFACTS_H_
