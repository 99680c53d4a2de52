#include "storage/database.h"

#include "util/check.h"

namespace binchain {

std::unique_ptr<Database> Database::BeginDelta(
    const std::shared_ptr<const Database>& base) {
  BINCHAIN_CHECK(base != nullptr);
  BINCHAIN_CHECK(base->frozen_);
  auto next = std::make_unique<Database>();
  next->epoch_ = base->epoch_ + 1;

  // Extend the symbol-id space: every id interned in any earlier epoch
  // keeps its meaning; only genuinely new spellings will be interned. The
  // chain is compacted when (and only if) the first one is.
  next->symbols_->ChainTo(base->symbols_);

  // Share every relation; copy-on-write happens on first insert.
  next->relations_ = base->relations_;
  next->by_id_ = base->by_id_;
  next->names_ = base->names_;
  for (const std::string& name : next->names_) next->borrowed_.insert(name);
  return next;
}

Relation* Database::MutableRelation(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) return nullptr;
  if (borrowed_.erase(name) > 0) {
    BINCHAIN_CHECK(!frozen_);
    it->second = Relation::Extend(it->second);
    auto id = symbols_->Find(name);
    BINCHAIN_CHECK(id.has_value());
    by_id_[*id] = it->second.get();
  }
  return it->second.get();
}

Relation& Database::GetOrCreate(std::string_view pred, size_t arity) {
  std::string key(pred);
  auto it = relations_.find(key);
  if (it != relations_.end()) {
    BINCHAIN_CHECK(it->second->arity() == arity);
    return *MutableRelation(key);
  }
  BINCHAIN_CHECK(!frozen_);
  auto rel = std::make_shared<Relation>(arity);
  Relation& ref = *rel;
  relations_.emplace(key, std::move(rel));
  by_id_.emplace(symbols_->Intern(pred), &ref);
  names_.push_back(key);
  return ref;
}

const Relation* Database::Find(std::string_view pred) const {
  auto it = relations_.find(std::string(pred));
  return it == relations_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const Relation> Database::FindSharedById(
    SymbolId pred) const {
  if (by_id_.find(pred) == by_id_.end()) return nullptr;
  auto it = relations_.find(symbols_->Name(pred));
  return it == relations_.end() ? nullptr : it->second;
}

Relation* Database::FindMutable(std::string_view pred) {
  return MutableRelation(std::string(pred));
}

bool Database::AddFact(std::string_view pred,
                       std::initializer_list<std::string_view> args) {
  Relation& rel = GetOrCreate(pred, args.size());
  Tuple t;
  t.reserve(args.size());
  for (std::string_view a : args) t.push_back(symbols_->Intern(a));
  return rel.Insert(t);
}

bool Database::AddFact(std::string_view pred,
                       const std::vector<std::string>& args) {
  Relation& rel = GetOrCreate(pred, args.size());
  Tuple t;
  t.reserve(args.size());
  for (const std::string& a : args) t.push_back(symbols_->Intern(a));
  return rel.Insert(t);
}

namespace {

/// Shared DeleteFact body over any arg range yielding string_views.
template <typename Args>
bool DeleteFactImpl(Database* db, const SymbolTable& symbols,
                    std::string_view pred, const Args& args, size_t nargs) {
  const Relation* rel = db->Find(pred);
  if (rel == nullptr || rel->arity() != nargs) return false;
  Tuple t;
  t.reserve(nargs);
  for (const auto& a : args) {
    auto id = symbols.Find(a);
    if (!id) return false;  // unknown constant: the fact cannot be present
    t.push_back(*id);
  }
  // Probe before copy-on-write: deleting an absent fact must not give the
  // epoch a delta layer.
  if (!rel->Contains(t)) return false;
  return db->FindMutable(pred)->Delete(t);
}

}  // namespace

bool Database::DeleteFact(std::string_view pred,
                          std::initializer_list<std::string_view> args) {
  return DeleteFactImpl(this, *symbols_, pred, args, args.size());
}

bool Database::DeleteFact(std::string_view pred,
                          const std::vector<std::string>& args) {
  return DeleteFactImpl(this, *symbols_, pred, args, args.size());
}

void Database::Freeze() {
  if (frozen_) return;
  // Layers inherited from the base epoch are frozen already; freezing only
  // what this epoch owns keeps Freeze O(delta) and, just as important,
  // write-free on storage that concurrent readers of older epochs hold.
  if (!symbols_->frozen()) symbols_->Freeze();
  for (auto& [name, rel] : relations_) {
    if (!rel->frozen()) rel->Freeze();
  }
  frozen_ = true;
}

void Database::PruneEmptyDeltas() {
  BINCHAIN_CHECK(!frozen_);
  for (auto& [name, rel] : relations_) {
    if (borrowed_.count(name) > 0) continue;
    // A layer that inserted nothing but *edited tombstones* is not empty —
    // its dead-set delta is the change — so the prune additionally requires
    // the mutation counter to match the base's. (Counting mutations, not
    // set size: a resurrect+delete pair keeps the cardinality while
    // changing the membership.)
    if (rel->base() != nullptr && rel->local_size() == 0 &&
        rel->dead_mutations() == rel->base()->dead_mutations()) {
      // Frozen base layers are immutable; re-sharing one as this epoch's
      // relation is read-only from here on (borrowed_ guards mutation).
      rel = std::const_pointer_cast<Relation>(rel->base());
      auto id = symbols_->Find(name);
      BINCHAIN_CHECK(id.has_value());
      by_id_[*id] = rel.get();
      borrowed_.insert(name);
    }
  }
  if (symbols_->local_size() == 0 && symbols_->base() != nullptr) {
    symbols_ = std::const_pointer_cast<SymbolTable>(symbols_->base());
  }
}

uint64_t Database::TotalFetches() const {
  uint64_t total = 0;
  for (const auto& [name, rel] : relations_) total += rel->fetch_count();
  return total;
}

void Database::ResetFetches() {
  for (auto& [name, rel] : relations_) rel->ResetFetchCount();
}

}  // namespace binchain
