#include "storage/relation.h"

#include <algorithm>

#include "storage/chain_compaction.h"
#include "util/check.h"

namespace binchain {
namespace {

uint64_t HashSpan(const SymbolId* d, size_t n) {
  return TupleHash{}(TupleRef(d, n));
}

}  // namespace

uint64_t Relation::HashMasked(uint32_t mask, const SymbolId* t) const {
  uint64_t h = TupleHash::kOffset;
  for (size_t i = 0; i < arity_; ++i) {
    if (mask & (1u << i)) {
      h ^= t[i];
      h *= TupleHash::kPrime;
    }
  }
  return h;
}

bool Relation::MaskedEquals(uint32_t mask, uint32_t row,
                            const SymbolId* key) const {
  const SymbolId* r = arena_.data() + static_cast<size_t>(row) * arity_;
  for (size_t i = 0; i < arity_; ++i) {
    if ((mask & (1u << i)) && r[i] != key[i]) return false;
  }
  return true;
}

void Relation::DedupGrow() {
  // Grows past the load factor for every local row at once, so a bulk
  // append (MergeTop) rehashes a single time.
  size_t cap = dedup_.empty() ? 16 : dedup_.size() * 2;
  while ((num_rows_ + 1) * 10 >= cap * 7) cap *= 2;
  dedup_.assign(cap, kNoRow);
  dedup_used_ = 0;
  size_t m = cap - 1;
  for (uint32_t row = 0; row < num_rows_; ++row) {
    const SymbolId* d = arena_.data() + static_cast<size_t>(row) * arity_;
    for (size_t i = HashSpan(d, arity_) & m;; i = (i + 1) & m) {
      if (dedup_[i] == kNoRow) {
        dedup_[i] = row;
        ++dedup_used_;
        break;
      }
    }
  }
}

std::shared_ptr<Relation> Relation::Extend(
    std::shared_ptr<const Relation> base) {
  BINCHAIN_CHECK(base != nullptr);
  BINCHAIN_CHECK(base->frozen());
  std::vector<size_t> deltas;  // local rows per delta layer, bottom first
  const Relation* root = base.get();
  for (; root->base_ != nullptr; root = root->base_.get()) {
    deltas.push_back(root->num_rows_);
  }
  std::reverse(deltas.begin(), deltas.end());
  // Tombstoned rows count toward the doubling rule: they are chain
  // overhead exactly like appended rows (every probe filters them), so a
  // delete-heavy chain compacts on the same rule as an insert-heavy one.
  // Flatten() drops the dead rows for good.
  ChainCompaction plan =
      PlanChainCompaction(deltas, root->num_rows_, base->dead_count(),
                          kMaxChainDepth, kFlattenMinRows);
  if (plan.flatten) return base->Flatten();
  if (plan.merge > 0) base = base->MergeTop(plan.merge);
  // make_shared needs a public constructor; the chain constructor stays
  // private so layering is only reachable through the policy above.
  const Relation& tip = *base;
  return std::shared_ptr<Relation>(new Relation(std::move(base), tip));
}

std::shared_ptr<const Relation> Relation::MergeTop(size_t layers) const {
  std::vector<const Relation*> merged;  // bottom first
  const Relation* layer = this;
  for (size_t i = 0; i < layers; ++i, layer = layer->base_.get()) {
    BINCHAIN_CHECK(layer->base_ != nullptr);  // never merges into the root
    merged.push_back(layer);
  }
  std::reverse(merged.begin(), merged.end());
  std::shared_ptr<Relation> out(new Relation(merged.front()->base_, *this));
  out->arena_.reserve((size() - out->base_rows_) * arity_);
  // Physical rows in order, dead ones included: global row ids, the dead
  // set copied from this layer and every index chain above stay valid.
  for (const Relation* m : merged) {
    out->arena_.insert(out->arena_.end(), m->arena_.begin(), m->arena_.end());
    out->num_rows_ += m->num_rows_;
  }
  out->DedupGrow();
  out->DemandChainMasks(*this);
  out->Freeze();
  return out;
}

std::shared_ptr<Relation> Relation::Flatten() const {
  auto out = std::make_shared<Relation>(arity_);
  out->arena_.reserve(live_size() * arity_);
  // Global row order in, dense row ids out (no duplicates exist in a
  // chain, so Insert never rejects). tuples() skips tombstoned rows, so
  // flattening is also the compaction that drops dead rows for good — the
  // copy re-numbers the surviving rows and starts with an empty dead set.
  for (TupleRef t : tuples()) out->Insert(t);
  out->DemandChainMasks(*this);
  return out;
}

void Relation::DemandChainMasks(const Relation& chain) {
  // Freeze() of a wide relation (arity > kEagerFreezeArity) only catches
  // up indexes that already exist. Small arities skip this: their freeze
  // pre-builds every mask.
  if (arity_ <= kEagerFreezeArity) return;
  for (const Relation* layer = &chain; layer != nullptr;
       layer = layer->base_.get()) {
    for (const MaskIndex& ix : layer->indexes_) IndexFor(ix.mask);
  }
}

void Relation::Freeze() {
  if (frozen_) return;
  if (arity_ <= kEagerFreezeArity) {
    // Pre-build every bound-column mask so no reader can demand an index the
    // frozen relation would have to build.
    for (uint32_t mask = 1; mask < (1u << arity_); ++mask) IndexFor(mask);
  } else {
    for (MaskIndex& ix : indexes_) IndexFor(ix.mask);  // catch up existing
  }
  frozen_ = true;
}

bool Relation::Insert(TupleRef t) {
  BINCHAIN_CHECK(t.size() == arity_);
  BINCHAIN_CHECK(!frozen_);
  if (base_ != nullptr) {
    uint32_t brow = base_->FindRowRaw(t);
    if (brow != kNoRow) {
      // Physically present in the base chain. If this layer tombstoned the
      // row, re-inserting resurrects it in place — the row id (and every
      // index entry threading it) is still valid, so no append, no
      // duplicate. Otherwise it is a live duplicate.
      if (dead_ != nullptr && dead_->erase(brow) > 0) {
        ++dead_mutations_;
        return true;
      }
      return false;
    }
  }
  if ((dedup_used_ + 1) * 10 >= dedup_.size() * 7) DedupGrow();
  size_t m = dedup_.size() - 1;
  for (size_t i = HashSpan(t.data(), arity_) & m;; i = (i + 1) & m) {
    uint32_t r = dedup_[i];
    if (r == kNoRow) {
      uint32_t row = static_cast<uint32_t>(num_rows_);
      // `t` may view this relation's own arena; the append below can
      // reallocate it, so stage aliasing rows in a stack-local copy.
      const SymbolId* src = t.data();
      Tuple staged;
      if (!arena_.empty() && src >= arena_.data() &&
          src < arena_.data() + arena_.size()) {
        staged = t;
        src = staged.data();
      }
      arena_.insert(arena_.end(), src, src + arity_);
      ++num_rows_;
      dedup_[i] = row;
      ++dedup_used_;
      return true;
    }
    if (Row(r) == t) {
      // Local physical duplicate: resurrect if tombstoned in this layer.
      if (dead_ != nullptr &&
          dead_->erase(static_cast<uint32_t>(base_rows_ + r)) > 0) {
        ++dead_mutations_;
        return true;
      }
      return false;
    }
  }
}

bool Relation::Delete(TupleRef t) {
  BINCHAIN_CHECK(!frozen_);
  if (t.size() != arity_) return false;
  uint32_t row = FindRowRaw(t);
  if (row == kNoRow) return false;  // never inserted anywhere in the chain
  if (dead_ == nullptr) dead_ = std::make_unique<DeadSet>();
  if (!dead_->insert(row).second) return false;  // already tombstoned
  ++dead_mutations_;
  return true;
}

uint32_t Relation::FindRowRaw(TupleRef t) const {
  if (base_ != nullptr) {
    uint32_t r = base_->FindRowRaw(t);
    if (r != kNoRow) return r;
  }
  if (dedup_.empty()) return kNoRow;
  size_t m = dedup_.size() - 1;
  for (size_t i = HashSpan(t.data(), arity_) & m;; i = (i + 1) & m) {
    uint32_t r = dedup_[i];
    if (r == kNoRow) return kNoRow;
    if (Row(r) == t) return static_cast<uint32_t>(base_rows_ + r);
  }
}

bool Relation::Contains(TupleRef t) const {
  if (t.size() != arity_) return false;
  uint32_t row = FindRowRaw(t);
  if (row == kNoRow) return false;
  return dead_ == nullptr || dead_->count(row) == 0;
}

void Relation::IndexGrow(MaskIndex& idx, size_t rows_done) const {
  size_t cap = idx.slots.empty() ? 16 : idx.slots.size() * 2;
  idx.slots.assign(cap, kNoRow);
  idx.tails.assign(cap, kNoRow);
  idx.used = 0;
  // Re-thread rows already indexed, in ascending row order so chains keep
  // enumerating in insertion order.
  for (size_t r = 0; r < rows_done; ++r) idx.next[r] = kNoRow;
  size_t m = cap - 1;
  for (uint32_t row = 0; row < rows_done; ++row) {
    const SymbolId* d = arena_.data() + static_cast<size_t>(row) * arity_;
    for (size_t i = HashMasked(idx.mask, d) & m;; i = (i + 1) & m) {
      uint32_t head = idx.slots[i];
      if (head == kNoRow) {
        idx.slots[i] = row;
        idx.tails[i] = row;
        ++idx.used;
        break;
      }
      if (MaskedEquals(idx.mask, head, d)) {
        idx.next[idx.tails[i]] = row;
        idx.tails[i] = row;
        break;
      }
    }
  }
}

void Relation::IndexInsert(MaskIndex& idx, uint32_t row) const {
  const SymbolId* d = arena_.data() + static_cast<size_t>(row) * arity_;
  size_t m = idx.slots.size() - 1;
  for (size_t i = HashMasked(idx.mask, d) & m;; i = (i + 1) & m) {
    uint32_t head = idx.slots[i];
    if (head == kNoRow) {
      idx.slots[i] = row;
      idx.tails[i] = row;
      ++idx.used;
      return;
    }
    if (MaskedEquals(idx.mask, head, d)) {
      idx.next[idx.tails[i]] = row;
      idx.tails[i] = row;
      return;
    }
  }
}

Relation::MaskIndex& Relation::IndexFor(uint32_t mask) const {
  // Lazy index creation / catch-up mutates shared state; the frozen read
  // path must route through FrozenIndex instead.
  BINCHAIN_DCHECK(!frozen_);
  MaskIndex* idx = nullptr;
  for (MaskIndex& ix : indexes_) {
    if (ix.mask == mask) {
      idx = &ix;
      break;
    }
  }
  if (idx == nullptr) {
    indexes_.emplace_back();
    idx = &indexes_.back();
    idx->mask = mask;
  }
  // Absorb rows appended since the index was last touched.
  if (idx->indexed_upto < num_rows_) {
    idx->next.resize(num_rows_, kNoRow);
    for (size_t r = idx->indexed_upto; r < num_rows_; ++r) {
      if ((idx->used + 1) * 10 >= idx->slots.size() * 7) IndexGrow(*idx, r);
      IndexInsert(*idx, static_cast<uint32_t>(r));
    }
    idx->indexed_upto = num_rows_;
  }
  return *idx;
}

uint32_t Relation::FindHead(const MaskIndex& idx, uint32_t mask,
                            TupleRef key) const {
  if (idx.slots.empty()) return kNoRow;
  size_t m = idx.slots.size() - 1;
  for (size_t i = HashMasked(mask, key.data()) & m;; i = (i + 1) & m) {
    uint32_t head = idx.slots[i];
    if (head == kNoRow) return kNoRow;
    if (MaskedEquals(mask, head, key.data())) return head;
  }
}

}  // namespace binchain
