// The extensional database: named relations over a shared symbol table.
#ifndef BINCHAIN_STORAGE_DATABASE_H_
#define BINCHAIN_STORAGE_DATABASE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/relation.h"
#include "storage/symbol_table.h"

namespace binchain {

/// Base class for snapshot-derived artifact sets built by layers above
/// storage (e.g. the eval layer's epoch-shared memos and closure caches).
/// The slot on Database is type-erased so storage stays below eval in the
/// layering; concrete artifact types downcast on retrieval.
class SnapshotArtifact {
 public:
  virtual ~SnapshotArtifact() = default;
};

/// Owns the EDB relations and the symbol table. Derived predicates never
/// appear here; evaluation strategies keep their own IDB state.
///
/// Epochs (live-update subsystem): every database carries an epoch id.
/// `BeginDelta(base)` starts the successor epoch of a frozen snapshot: the
/// new database *shares* every relation of `base` (shared_ptr, no copy) and
/// extends its symbol-id space, then copies a relation on first write into
/// a delta layer (Relation::Extend) so only inserted facts cost anything.
/// Freeze() of the successor therefore indexes just the delta. Published
/// epochs are immutable; concurrent readers hold them alive through
/// shared_ptr handles, and an epoch pins exactly the storage layers it
/// reads — never the predecessor Database object itself.
class Database {
 public:
  Database() : symbols_(std::make_shared<SymbolTable>()) {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  SymbolTable& symbols() { return *symbols_; }
  const SymbolTable& symbols() const { return *symbols_; }

  /// Monotone snapshot version: 0 for a fresh database, +1 per BeginDelta.
  uint64_t epoch() const { return epoch_; }

  /// Starts the successor epoch of a frozen snapshot (see class comment).
  /// The result is open (unfrozen): load the delta facts, then Freeze() and
  /// publish. `base` stays untouched and serveable throughout.
  static std::unique_ptr<Database> BeginDelta(
      const std::shared_ptr<const Database>& base);

  /// Returns the relation named `pred`, creating it with `arity` if absent.
  /// Aborts if it exists with a different arity (schema violation), or if
  /// the database is frozen and the relation would be created. On a delta
  /// epoch, the first write access copies the relation into a delta layer
  /// (copy-on-write); read-only epochs sharing it are unaffected.
  Relation& GetOrCreate(std::string_view pred, size_t arity);

  /// Snapshot step for concurrent readers: freezes the symbol table and
  /// every relation (eager index catch-up, no further inserts). After this,
  /// all const entry points — Find/FindById, ForEachMatch, Contains,
  /// tuples() — are safe to call from any number of threads. Freezing also
  /// opens the artifact slot below: evaluation layers attach their
  /// snapshot-derived shared state right after the freeze, before the epoch
  /// is handed to readers.
  void Freeze();
  bool frozen() const { return frozen_; }

  /// Attaches the epoch's derived-artifact set (shared memos, caches —
  /// anything immutable-per-snapshot that evaluation layers build at freeze
  /// time). Called once per epoch on a frozen database, *before* the epoch
  /// is shared with concurrent readers: the slot is written single-threaded
  /// and read-only afterwards, so no synchronization is needed on reads.
  void AttachArtifact(std::shared_ptr<const SnapshotArtifact> artifact) {
    BINCHAIN_CHECK(frozen_);
    artifact_ = std::move(artifact);
  }
  /// The attached artifact set, or nullptr. Holders downcast to the
  /// concrete type they attached (e.g. eval's EvalArtifacts).
  const std::shared_ptr<const SnapshotArtifact>& artifact() const {
    return artifact_;
  }

  /// Drops delta layers that received no rows (and a symbol layer that
  /// interned nothing), re-sharing the base storage directly so no-op
  /// publishes do not deepen chains. Called by the epoch publisher before
  /// Freeze().
  void PruneEmptyDeltas();

  /// Returns the relation or nullptr.
  const Relation* Find(std::string_view pred) const;
  Relation* FindMutable(std::string_view pred);

  /// Returns the relation whose name interns to `pred`, or nullptr. Avoids
  /// the per-lookup string round-trip of Find(symbols().Name(pred)) — the
  /// form every evaluation-strategy resolver is on.
  const Relation* FindById(SymbolId pred) const {
    auto it = by_id_.find(pred);
    return it == by_id_.end() ? nullptr : it->second;
  }

  /// Like FindById, but returns the owning handle, so a caller can pin the
  /// relation object past this epoch's lifetime (the answer cache's
  /// support sets do: a pinned pointer compared equal across epochs is
  /// provably the same object, never an address reuse).
  std::shared_ptr<const Relation> FindSharedById(SymbolId pred) const;

  /// Convenience: insert a fact with string constants. Returns true if the
  /// tuple was new (false: duplicate of an existing row anywhere in the
  /// relation's epoch chain).
  bool AddFact(std::string_view pred, std::initializer_list<std::string_view> args);
  bool AddFact(std::string_view pred, const std::vector<std::string>& args);

  /// Retracts a fact by tombstoning its row (Relation::Delete). Returns
  /// true if the fact was present and live. Constants are resolved through
  /// Find, never interned — a constant the chain has never seen means the
  /// fact cannot exist — and the relation is only copied-on-write after
  /// the presence probe, so a miss never layers anything.
  bool DeleteFact(std::string_view pred,
                  std::initializer_list<std::string_view> args);
  bool DeleteFact(std::string_view pred, const std::vector<std::string>& args);

  /// Recovery-only: stamps the epoch id a durability checkpoint recorded,
  /// so replayed publishes continue the pre-crash numbering instead of
  /// restarting at zero. Must run before Freeze().
  void SetRecoveredEpoch(uint64_t epoch) {
    BINCHAIN_CHECK(!frozen_);
    epoch_ = epoch;
  }

  /// Interns a constant and returns its id.
  SymbolId Const(std::string_view name) { return symbols_->Intern(name); }

  /// Total single-tuple fetches over all relations (work counter).
  uint64_t TotalFetches() const;
  void ResetFetches();

  /// Names of all stored relations (insertion order).
  const std::vector<std::string>& relation_names() const { return names_; }

  /// True if `pred` is still the base epoch's relation object (shared, not
  /// yet copied-on-write). Introspection for the epoch publisher's stats.
  bool SharesWithBase(std::string_view pred) const {
    return borrowed_.count(std::string(pred)) > 0;
  }

 private:
  /// Copy-on-write step: if `name` is still shared with the base epoch,
  /// replace it with a delta layer owned by this epoch.
  Relation* MutableRelation(const std::string& name);

  std::shared_ptr<SymbolTable> symbols_;
  std::unordered_map<std::string, std::shared_ptr<Relation>> relations_;
  std::unordered_map<SymbolId, Relation*> by_id_;
  std::vector<std::string> names_;
  /// Relations inherited from the base epoch and not yet copied-on-write.
  /// Frozen; must not be mutated through this database.
  std::unordered_set<std::string> borrowed_;
  /// Epoch-attached derived state (see AttachArtifact).
  std::shared_ptr<const SnapshotArtifact> artifact_;
  uint64_t epoch_ = 0;
  bool frozen_ = false;
};

}  // namespace binchain

#endif  // BINCHAIN_STORAGE_DATABASE_H_
