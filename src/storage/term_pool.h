// Interning of *graph terms*. In the binary-chain engine a node is a pair
// (automaton state, term). For plain binary programs a term is one constant,
// and its TermId is its SymbolId: no interning, no per-constant storage.
// After the Section-4 transformation a term can be a tuple of constants,
// e.g. t(S, DT); the TermPool interns those (any arity but 1, the empty
// "t()" included) under ids tagged with bit 31, a range disjoint from every
// SymbolId, so the traversal engine stays oblivious to term structure.
#ifndef BINCHAIN_STORAGE_TERM_POOL_H_
#define BINCHAIN_STORAGE_TERM_POOL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/tuple.h"

namespace binchain {

using TermId = uint32_t;

class TermPool {
 public:
  /// Set on every tuple term's id, clear on every constant's.
  static constexpr TermId kTupleTag = 1u << 31;

  TermPool() = default;

  /// True for a 1-constant term, whose id is the constant itself.
  static bool IsUnary(TermId id) { return (id & kTupleTag) == 0; }

  /// The 1-constant term of `c` and back: identities, kept for callers that
  /// spell the conversion out.
  static TermId Unary(SymbolId c) { return c; }
  static SymbolId AsUnary(TermId id) { return id; }

  /// Interns a constant-vector term. A 1-constant vector is its constant;
  /// any other arity (the empty Section-4 "t()" term included) gets a
  /// tagged id.
  TermId InternTuple(const Tuple& t);

  Tuple Get(TermId id) const {
    return IsUnary(id) ? Tuple{id} : tuples_[id & ~kTupleTag];
  }

  /// Tuple terms interned so far (constants take no pool space).
  size_t size() const { return tuples_.size(); }

 private:
  std::vector<Tuple> tuples_;
  std::unordered_map<Tuple, TermId, TupleHash> index_;
};

}  // namespace binchain

#endif  // BINCHAIN_STORAGE_TERM_POOL_H_
