// An n-ary relation: deduplicated tuple store with lazily built hash indexes
// for arbitrary bound-column masks. This is the "extensional database"
// retrieval mechanism the paper assumes (constant-time tuple access).
//
// Storage layout: all tuples live in one contiguous SymbolId arena, row i at
// arena[i*arity .. (i+1)*arity). Rows are handed out as TupleRef views — no
// per-tuple allocation, no copy on probe. Deduplication and the per-mask
// indexes are open-addressed tables over row ids whose hashes are computed
// directly from arena data, so neither insert nor probe materializes a key
// tuple. Indexes stay lazy: they absorb appended rows on next use
// (`indexed_upto` catch-up), preserving the paper's pay-as-you-go cost
// model.
//
// Delta layering (live-update subsystem): a Relation may be an *extension*
// of a frozen base relation (Relation::Extend). The extension stores only
// its own delta rows; global row ids [0, base->size()) resolve through the
// base chain, ids above it into the local arena. Probes (ForEachMatch,
// Contains) consult the base first, then the local layer, so enumeration
// order stays global insertion order. Base layers are immutable — an
// extension never writes through its base — which is what lets consecutive
// database epochs share unchanged storage. Chains are kept shallow by
// Extend's compaction (storage/chain_compaction.h): small delta layers are
// merged into size-tiered layers, and a doubling rule rewrites the root.
//
// Tombstone retraction: Delete(t) never rewrites the arena or any index —
// it records the tuple's *global row id* in this layer's dead set, and
// every read entry point (Contains, ForEachMatch, tuples()) filters dead
// rows at emission. The set is cumulative: Extend copies the base's dead
// set into the new layer, so a probe consults exactly one set (the top
// layer's) no matter how deep the chain, and older epochs keep serving
// their own (smaller) sets untouched. Keying by row id rather than tuple
// content makes delete-then-reinsert exact: Insert of a tombstoned tuple
// *resurrects* the existing physical row (erases the tombstone) instead of
// appending a duplicate, so row-id arithmetic — base_size() offsets, index
// chains, the CSR memos above — never sees two rows with one content.
// Flatten() (the doubling rule's root rewrite) drops dead rows for good; a
// merge of delta layers copies them, so row ids never move between root
// rewrites. size() deliberately stays physical so layer offsets keep their
// meaning; live_size() reports the serving cardinality.
//
// Concurrency: a Relation is single-writer until Freeze(). Freeze eagerly
// completes every lazy index (and pre-builds all bound-column masks for
// small arities), after which the read path — ForEachMatch, Contains,
// tuples() — touches no shared mutable state: lazy catch-up is disabled and
// fetch accounting moves to a thread-local counter, so any number of
// threads may probe a frozen relation concurrently. Freeze is one-way:
// new rows go into a delta layer over the frozen relation (Extend()),
// whose own Freeze() indexes only those rows.
#ifndef BINCHAIN_STORAGE_RELATION_H_
#define BINCHAIN_STORAGE_RELATION_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "storage/tuple.h"
#include "util/check.h"

namespace binchain {

/// Forward view over the rows of a Relation; iteration yields TupleRef.
/// (Compatible with `for (const Tuple& t : rel.tuples())`: the reference
/// binds to a lifetime-extended materialized temporary.) A range covers the
/// whole base chain of a layered relation as a short run of contiguous
/// segments, bottom (oldest rows) first. A range built over a relation with
/// tombstones carries the (borrowed) dead set and skips dead rows during
/// iteration; size() then reports live rows only.
class RowRange {
 public:
  struct Segment {
    const SymbolId* base = nullptr;
    size_t rows = 0;
    size_t global_start = 0;  // global row id of this segment's first row
  };
  /// Base chain depth is bounded by Relation::kMaxChainDepth; one extra
  /// slot for the local layer.
  static constexpr size_t kMaxSegments = 10;

  class const_iterator {
   public:
    using value_type = TupleRef;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;
    using pointer = const TupleRef*;
    using reference = TupleRef;

    const_iterator(const RowRange* range, size_t seg, size_t idx)
        : range_(range), seg_(seg), idx_(idx) {
      SkipFiltered();
    }
    TupleRef operator*() const {
      const Segment& s = range_->segs_[seg_];
      return TupleRef(s.base + idx_ * range_->arity_, range_->arity_);
    }
    const_iterator& operator++() {
      ++idx_;
      SkipFiltered();
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return seg_ == o.seg_ && idx_ == o.idx_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    /// Advances past empty segments and tombstoned rows to the next live
    /// position (or end).
    void SkipFiltered() {
      while (seg_ < range_->num_segs_) {
        const Segment& s = range_->segs_[seg_];
        if (idx_ >= s.rows) {
          ++seg_;
          idx_ = 0;
          continue;
        }
        if (range_->dead_ != nullptr &&
            range_->dead_->count(
                static_cast<uint32_t>(s.global_start + idx_)) > 0) {
          ++idx_;
          continue;
        }
        break;
      }
      if (seg_ >= range_->num_segs_) idx_ = 0;  // canonical end position
    }
    const RowRange* range_;
    size_t seg_;
    size_t idx_;
  };

  /// Single-segment range. Every id in `dead` (borrowed; may be null) must
  /// fall inside [0, rows) — the contract Relation::tuples() guarantees by
  /// construction (a dead set only names rows of its own chain).
  RowRange(const SymbolId* base, size_t arity, size_t rows,
           const std::unordered_set<uint32_t>* dead = nullptr)
      : arity_(arity), dead_(dead) {
    segs_[0] = Segment{base, rows, 0};
    num_segs_ = 1;
    rows_ = rows;
  }
  /// Multi-segment range; `Append` segments bottom-first. Global row ids
  /// are assigned contiguously in append order, matching a chain walked
  /// bottom (oldest) first.
  explicit RowRange(size_t arity,
                    const std::unordered_set<uint32_t>* dead = nullptr)
      : arity_(arity), dead_(dead) {}
  void Append(const SymbolId* base, size_t rows) {
    BINCHAIN_CHECK(num_segs_ < kMaxSegments);
    segs_[num_segs_++] = Segment{base, rows, rows_};
    rows_ += rows;
  }

  const_iterator begin() const { return const_iterator(this, 0, 0); }
  const_iterator end() const { return const_iterator(this, num_segs_, 0); }
  /// Live rows (physical rows minus tombstones).
  size_t size() const {
    return rows_ - (dead_ == nullptr ? 0 : dead_->size());
  }
  bool empty() const { return size() == 0; }
  /// The i-th *live* row. O(1) without tombstones; with a dead set it
  /// degrades to a forward scan — fine for the diagnostic/test call sites,
  /// while the hot paths all iterate.
  TupleRef operator[](size_t i) const {
    if (dead_ == nullptr) {
      for (size_t s = 0; s < num_segs_; ++s) {
        if (i < segs_[s].rows) {
          return TupleRef(segs_[s].base + i * arity_, arity_);
        }
        i -= segs_[s].rows;
      }
      BINCHAIN_CHECK(false);
      return TupleRef(nullptr, 0);
    }
    for (const_iterator it = begin(); it != end(); ++it) {
      if (i == 0) return *it;
      --i;
    }
    BINCHAIN_CHECK(false);
    return TupleRef(nullptr, 0);
  }

 private:
  Segment segs_[kMaxSegments];
  size_t num_segs_ = 0;
  size_t arity_;
  size_t rows_ = 0;  // physical rows appended (dead rows included)
  const std::unordered_set<uint32_t>* dead_ = nullptr;  // borrowed
};

/// Mutable set of same-arity tuples. Insertion preserves first-seen order
/// (tuples are addressed by dense row id), duplicates are ignored.
class Relation {
 public:
  explicit Relation(size_t arity) : arity_(arity) {}

  /// Delta extension of a frozen base: the new relation answers for every
  /// base row plus whatever is inserted into it, while storing (and later
  /// indexing) only the delta. Before the new layer goes on top, the chain
  /// is compacted as PlanChainCompaction decides: top delta layers of
  /// similar size are merged into one frozen layer chained to the layer
  /// below them (rows copied in order, dead rows included, so global row
  /// ids, the dead set and dead_mutations() carry over), or — by the
  /// doubling rule — the result is a flattened standalone copy instead.
  /// The result is unfrozen; `base`'s layers are shared, never written.
  static std::shared_ptr<Relation> Extend(std::shared_ptr<const Relation> base);

  /// A standalone (chain-free), unfrozen relation holding every row of this
  /// chain in global row order. For arities above kEagerFreezeArity the
  /// copy rebuilds an index for every mask any layer of the chain had
  /// indexed, so a later Freeze() cannot demote previously indexed probes
  /// to wide fallback scans.
  std::shared_ptr<Relation> Flatten() const;

  size_t arity() const { return arity_; }
  /// Physical rows of the whole chain, tombstoned rows included — the
  /// row-id space every layer offset and memo is expressed in. Serving
  /// cardinality is live_size().
  size_t size() const { return base_rows_ + num_rows_; }
  bool empty() const { return size() == 0; }

  /// Rows this chain actually serves (physical minus tombstoned).
  size_t live_size() const { return size() - dead_count(); }
  /// Tombstoned rows visible through this layer (cumulative over the
  /// chain; an older epoch's layer reports its own, smaller count).
  size_t dead_count() const { return dead_ == nullptr ? 0 : dead_->size(); }
  /// True if global row `row` is tombstoned as seen from this layer.
  bool RowDead(size_t row) const {
    return dead_ != nullptr &&
           dead_->count(static_cast<uint32_t>(row)) > 0;
  }
  /// Monotone count of tombstone-set edits over the chain's history
  /// (deletes *and* resurrections; inherited cumulatively like the set
  /// itself). Equal counts between a layer and its base prove the two dead
  /// sets are identical — the guard memo chaining needs, where dead_count()
  /// alone would be fooled by a resurrect+delete pair that keeps the
  /// cardinality while changing the membership.
  uint64_t dead_mutations() const { return dead_mutations_; }

  /// Rows inherited from the base chain (0 for standalone relations).
  size_t base_size() const { return base_rows_; }
  /// Rows stored in this layer only.
  size_t local_size() const { return num_rows_; }
  /// Layers above the standalone bottom of the chain.
  size_t chain_depth() const { return base_ ? base_->chain_depth() + 1 : 0; }
  const std::shared_ptr<const Relation>& base() const { return base_; }

  /// Live rows of the whole chain in global insertion order (tombstoned
  /// rows are skipped during iteration).
  RowRange tuples() const {
    const DeadSet* dead = DeadOrNull();
    if (base_ == nullptr) {
      return RowRange(arena_.data(), arity_, num_rows_, dead);
    }
    RowRange range(arity_, dead);
    AppendSegments(&range);
    return range;
  }
  /// *Physical* row `i` of the whole chain, in global insertion order —
  /// tombstones are not consulted (callers indexing the row-id space, e.g.
  /// the CSR memo builds, pair this with RowDead()).
  TupleRef tuple(size_t i) const {
    return i < base_rows_ ? base_->tuple(i)
                          : Row(static_cast<uint32_t>(i - base_rows_));
  }

  /// Inserts `t`; returns true if it was new anywhere in the chain. A
  /// tuple whose physical row is tombstoned is *resurrected* (the
  /// tombstone is erased, no row appended) and reported as new.
  /// Invalidates no indexes (indexes absorb appended tuples on next use).
  /// Aborts after Freeze().
  bool Insert(TupleRef t);

  /// Tombstones `t`'s row in this layer's dead set; returns true if the
  /// tuple was present and live (false: absent, or already tombstoned).
  /// The arena, the dedup table and every index are untouched — readers
  /// filter at emission. Aborts after Freeze(); base layers are never
  /// written (older epochs keep serving the row).
  bool Delete(TupleRef t);

  bool Contains(TupleRef t) const;

  /// Completes all lazy index work and forbids further mutation, making
  /// every read entry point safe for concurrent callers. Existing indexes
  /// are caught up to the last row; for arities up to kEagerFreezeArity
  /// every nonempty bound-column mask is pre-built so no query can demand a
  /// missing index later (wider relations fall back to a read-only filtered
  /// scan for masks never probed before the freeze — counted in
  /// ThreadWideScanCount). Indexes built by probes before the freeze only
  /// absorb the rows appended since (indexed_upto catch-up), never
  /// rebuild.
  void Freeze();
  bool frozen() const { return frozen_; }

  /// Enumerates rows matching `key` on the columns of `mask` (bit i set =>
  /// column i must equal key[i]; other key positions are ignored), base
  /// chain first so matches arrive in global insertion order.
  /// `fn` receives a TupleRef per match (valid for the duration of the
  /// callback; also binds to `const Tuple&` by materializing a copy).
  /// Builds the mask's index on first use; once frozen, never mutates —
  /// concurrent calls are safe. Statically dispatched: the visitor type is
  /// known at the call site, so the per-tuple call inlines.
  template <typename Fn>
  void ForEachMatch(uint32_t mask, TupleRef key, Fn&& fn) const {
    // The top layer's cumulative dead set filters the whole chain; layers
    // never consult their own (a base layer probed through an extension
    // must honor tombstones the extension added above it).
    MatchChain(mask, key, fn, DeadOrNull());
  }

  /// Number of single-tuple retrievals served (the paper's `t`-cost unit).
  /// Only advanced while unfrozen; frozen relations account fetches in the
  /// per-thread counter below instead.
  uint64_t fetch_count() const { return fetches_; }
  void ResetFetchCount() { fetches_ = 0; }

  /// Fetches served to the calling thread by *frozen* relations (all of
  /// them — the counter is global per thread, which is what a per-query
  /// delta needs). Complements fetch_count(): exactly one of the two moves
  /// per retrieval, so `TotalFetches() + ThreadFetchCount()` deltas count
  /// every fetch in both modes.
  static uint64_t ThreadFetchCount() { return tls_fetches_; }

  /// Read-only fallback scans taken by this thread because a frozen
  /// relation was probed on a mask it never indexed before the freeze (only
  /// possible for arity > kEagerFreezeArity). Each ForEachMatch that takes
  /// the scan path counts one per layer scanned. Surfaced per query as
  /// EvalStats::wide_mask_scans so silent index regressions are visible.
  static uint64_t ThreadWideScanCount() { return tls_wide_scans_; }

  /// Largest arity for which Freeze() pre-builds every mask index.
  static constexpr size_t kEagerFreezeArity = 4;

  /// No chain is ever more than this many layers above its standalone
  /// bottom: Extend() merges top delta layers until the new layer fits
  /// (PlanChainCompaction's depth cap). Must stay below
  /// RowRange::kMaxSegments.
  static constexpr size_t kMaxChainDepth = 8;
  /// Extend() rewrites the root (Flatten) when the chain's delta rows plus
  /// tombstones reach max(root rows, kFlattenMinRows) — the doubling rule,
  /// so the O(total) copy is amortized O(1) per delta row.
  static constexpr size_t kFlattenMinRows = 256;

 private:
  static constexpr uint32_t kNoRow = 0xffffffffu;

  /// Tombstoned global row ids, as seen from this layer (cumulative: an
  /// extension starts from a copy of its base's set). Null when the chain
  /// has never seen a Delete — the common case, kept null so every hot
  /// path's filter is one pointer test.
  using DeadSet = std::unordered_set<uint32_t>;

  const DeadSet* DeadOrNull() const {
    return (dead_ != nullptr && !dead_->empty()) ? dead_.get() : nullptr;
  }

  /// ForEachMatch body with the top layer's dead set threaded through the
  /// chain recursion; each layer filters its local rows by global id
  /// (base_rows_ + local row). Skipped dead rows count no fetch: the
  /// chain's observable cost equals a freshly built relation without the
  /// deleted facts.
  template <typename Fn>
  void MatchChain(uint32_t mask, TupleRef key, Fn&& fn,
                  const DeadSet* dead) const {
    if (base_ != nullptr) base_->MatchChain(mask, key, fn, dead);
    auto alive = [&](uint32_t r) {
      return dead == nullptr ||
             dead->count(static_cast<uint32_t>(base_rows_ + r)) == 0;
    };
    if (mask == 0) {  // full scan, no index needed
      for (size_t r = 0; r < num_rows_; ++r) {
        if (!alive(static_cast<uint32_t>(r))) continue;
        CountFetch();
        fn(Row(static_cast<uint32_t>(r)));
      }
      return;
    }
    const MaskIndex* idx;
    if (frozen_) {
      idx = FrozenIndex(mask);
      if (idx == nullptr) {  // mask never indexed pre-freeze: read-only scan
        ++tls_wide_scans_;
        for (size_t r = 0; r < num_rows_; ++r) {
          if (MaskedEquals(mask, static_cast<uint32_t>(r), key.data()) &&
              alive(static_cast<uint32_t>(r))) {
            CountFetch();
            fn(Row(static_cast<uint32_t>(r)));
          }
        }
        return;
      }
    } else {
      idx = &IndexFor(mask);
    }
    for (uint32_t row = FindHead(*idx, mask, key); row != kNoRow;
         row = idx->next[row]) {
      if (!alive(row)) continue;
      CountFetch();
      fn(Row(row));
    }
  }

  /// Open-addressed index for one bound-column mask. `slots`/`tails` hold
  /// the first/last row of each distinct key's chain; `next` threads rows
  /// sharing a key in insertion order. Rows here are *local* (this layer's
  /// arena); each layer of a chain indexes only its own rows.
  struct MaskIndex {
    uint32_t mask = 0;
    std::vector<uint32_t> slots;
    std::vector<uint32_t> tails;
    std::vector<uint32_t> next;
    size_t indexed_upto = 0;  // rows [0, indexed_upto) are indexed
    size_t used = 0;          // distinct keys (load-factor control)
  };

  /// A layer over `base` inheriting the tombstones of `tip`: `base` itself
  /// for a fresh delta layer, the top merged layer for a merge.
  Relation(std::shared_ptr<const Relation> base, const Relation& tip)
      : arity_(base->arity()),
        base_rows_(base->size()),
        base_(std::move(base)) {
    BINCHAIN_CHECK(base_->frozen());
    // Cumulative tombstones: start from the tip's dead set so probes
    // through this layer consult exactly one set. The copy is O(dead),
    // charged to the deletes that created it; the tip's own set stays
    // frozen for its epoch's readers.
    if (tip.dead_ != nullptr && !tip.dead_->empty()) {
      dead_ = std::make_unique<DeadSet>(*tip.dead_);
    }
    dead_mutations_ = tip.dead_mutations_;
  }

  /// A frozen layer holding the physical rows of this layer and the
  /// `layers - 1` layers below it, in order, chained to the layer under
  /// them, with this layer's tombstones.
  std::shared_ptr<const Relation> MergeTop(size_t layers) const;

  /// For arities above kEagerFreezeArity: indexes this (unfrozen) copy on
  /// every mask any layer of `chain` had indexed, so a compacted copy never
  /// demotes a previously indexed probe to the wide fallback scan.
  void DemandChainMasks(const Relation& chain);

  TupleRef Row(uint32_t r) const {
    return TupleRef(arena_.data() + static_cast<size_t>(r) * arity_, arity_);
  }

  void AppendSegments(RowRange* range) const {
    if (base_ != nullptr) base_->AppendSegments(range);
    range->Append(arena_.data(), num_rows_);
  }

  void CountFetch() const {
    if (frozen_) {
      ++tls_fetches_;  // thread-local: no shared write on the frozen path
    } else {
      ++fetches_;
    }
  }

  /// Read-only index lookup for the frozen path; nullptr if the mask was
  /// never indexed before the freeze.
  const MaskIndex* FrozenIndex(uint32_t mask) const {
    for (const MaskIndex& ix : indexes_) {
      if (ix.mask == mask) {
        BINCHAIN_DCHECK(ix.indexed_upto == num_rows_);
        return &ix;
      }
    }
    return nullptr;
  }

  uint64_t HashMasked(uint32_t mask, const SymbolId* t) const;
  bool MaskedEquals(uint32_t mask, uint32_t row, const SymbolId* key) const;

  /// Physical lookup: global row id of `t` anywhere in the chain,
  /// tombstones ignored; kNoRow if the tuple was never inserted. Read-only
  /// (safe on frozen base layers).
  uint32_t FindRowRaw(TupleRef t) const;

  MaskIndex& IndexFor(uint32_t mask) const;
  void IndexInsert(MaskIndex& idx, uint32_t row) const;
  void IndexGrow(MaskIndex& idx, size_t rows_done) const;
  uint32_t FindHead(const MaskIndex& idx, uint32_t mask, TupleRef key) const;

  void DedupGrow();

  size_t arity_;
  size_t num_rows_ = 0;              // local rows (this layer's arena)
  size_t base_rows_ = 0;             // rows answered by the base chain
  std::shared_ptr<const Relation> base_;  // frozen; null for standalone
  std::vector<SymbolId> arena_;    // row-major tuple storage (local rows)
  /// Cumulative tombstoned global row ids (see DeadSet); null until the
  /// first Delete reaches this chain. Immutable once frozen.
  std::unique_ptr<DeadSet> dead_;
  uint64_t dead_mutations_ = 0;    // see dead_mutations()
  std::vector<uint32_t> dedup_;    // open-addressed row set over full tuples
  size_t dedup_used_ = 0;
  // Few masks per relation: linear scan beats hashing. A deque keeps
  // MaskIndex references stable while nested ForEachMatch calls (recursive
  // joins) lazily create indexes for other masks.
  mutable std::deque<MaskIndex> indexes_;
  mutable uint64_t fetches_ = 0;
  bool frozen_ = false;
  inline static thread_local uint64_t tls_fetches_ = 0;
  inline static thread_local uint64_t tls_wide_scans_ = 0;
};

static_assert(Relation::kMaxChainDepth + 1 < RowRange::kMaxSegments,
              "RowRange must fit every layer of a maximal chain");

}  // namespace binchain

#endif  // BINCHAIN_STORAGE_RELATION_H_
