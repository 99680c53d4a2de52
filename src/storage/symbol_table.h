// String interning. Every constant, variable name and predicate name in the
// system is a 32-bit id into a SymbolTable; all joins and graph traversals
// operate on ids only.
#ifndef BINCHAIN_STORAGE_SYMBOL_TABLE_H_
#define BINCHAIN_STORAGE_SYMBOL_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace binchain {

using SymbolId = uint32_t;

/// Append-only interner mapping strings <-> dense 32-bit ids.
/// Symbols whose spelling lexes as a decimal integer additionally carry the
/// parsed value, which the built-in comparison predicates use.
///
/// Delta layering (live-update subsystem): a table may extend a frozen base
/// table (ChainTo). Ids [0, base->size()) resolve through the base chain;
/// fresh spellings intern into the local layer with ids continuing the
/// global sequence — so successive database epochs *extend* one id space
/// instead of re-interning, and every id minted in epoch N means the same
/// thing in every later epoch. Base layers are immutable. The chain is
/// compacted by the policy relations use (PlanChainCompaction) at the one
/// moment a delta layer becomes real — its first fresh spelling — so an
/// epoch that interns nothing shares its base table untouched: small top
/// layers are merged into one size-tiered layer, and the doubling rule
/// rewrites the chain as a standalone root. Both keep every id.
///
/// Thread safety: not synchronized. After Freeze() the table is immutable —
/// Intern of an existing spelling degenerates to a lookup and is safe from
/// concurrent readers; interning a *new* spelling aborts. Freeze is
/// one-way: later spellings intern into a delta layer (ChainTo).
class SymbolTable {
 public:
  SymbolTable() = default;

  /// Interns `s`, returning its id (existing anywhere in the chain, or
  /// fresh in the local layer). Aborts on a fresh spelling after Freeze().
  SymbolId Intern(std::string_view s);

  /// Forbids further interning, for good; part of Database::Freeze().
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Turns this (empty, unfrozen) table into a delta layer over `base`.
  /// `base` must be frozen; its ids keep resolving unchanged.
  void ChainTo(std::shared_ptr<const SymbolTable> base);

  /// Layers above the standalone bottom of the chain.
  size_t chain_depth() const { return base_ ? base_->chain_depth() + 1 : 0; }
  /// Symbols interned into this layer only.
  size_t local_size() const { return names_.size(); }
  const std::shared_ptr<const SymbolTable>& base() const { return base_; }

  /// Chain compaction bounds, the symbol-table twins of
  /// Relation::kMaxChainDepth and Relation::kFlattenMinRows.
  static constexpr size_t kMaxChainDepth = 8;
  static constexpr size_t kFlattenMinSpellings = 256;

  /// Returns the id of `s` if already interned anywhere in the chain.
  std::optional<SymbolId> Find(std::string_view s) const;

  const std::string& Name(SymbolId id) const {
    return id < base_size_ ? base_->Name(id) : names_[id - base_size_];
  }

  /// Parsed integer value when the symbol spells a decimal integer.
  std::optional<int64_t> IntValue(SymbolId id) const {
    return id < base_size_ ? base_->IntValue(id) : ints_[id - base_size_];
  }

  size_t size() const { return base_size_ + names_.size(); }

 private:
  /// Appends a spelling known to be absent from the chain.
  void AppendLocal(std::string_view s, std::optional<int64_t> value);
  /// Appends every spelling of `layer`'s local layer, in id order.
  void CopyLocal(const SymbolTable& layer);
  /// Compacts the base chain before this empty delta layer interns its
  /// first spelling: merges top layers into one layer, or flattens the
  /// chain into this one; ids never change.
  void CompactBase();

  std::shared_ptr<const SymbolTable> base_;  // frozen; null for standalone
  SymbolId base_size_ = 0;
  std::vector<std::string> names_;
  std::vector<std::optional<int64_t>> ints_;
  std::unordered_map<std::string, SymbolId> index_;  // spelling -> global id
  bool frozen_ = false;
};

}  // namespace binchain

#endif  // BINCHAIN_STORAGE_SYMBOL_TABLE_H_
