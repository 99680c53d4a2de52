// Nondeterministic finite automata over relation-labelled transitions:
// M(e_p) is obtained from the relational expression e_p by the standard
// Thompson construction, regarding e_p as a regular expression over the
// alphabet of predicate symbols (Section 3, Figure 1). Transitions carry
//   - id        : the identity relation (empty-string transition),
//   - a relation: a base predicate / registered view, possibly inverted,
//   - a derived predicate: expanded at evaluation time into a fresh copy of
//     M(e_r) (the EM(p, i) hierarchy, Figure 2). The engine never copies a
//     machine's transitions: it addresses each copy as (copy, local state)
//     over the one compiled Nfa, relying on every Thompson state having at
//     most one non-id arc.
#ifndef BINCHAIN_AUTOMATA_NFA_H_
#define BINCHAIN_AUTOMATA_NFA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rex/rex.h"
#include "storage/symbol_table.h"

namespace binchain {

struct NfaLabel {
  enum class Kind { kId, kRel, kDerived };
  Kind kind = Kind::kId;
  SymbolId pred = 0;      // kRel / kDerived
  bool inverted = false;  // kRel only

  static NfaLabel Id() { return {Kind::kId, 0, false}; }
  static NfaLabel Rel(SymbolId p, bool inv) { return {Kind::kRel, p, inv}; }
  static NfaLabel Derived(SymbolId p) { return {Kind::kDerived, p, false}; }
};

struct NfaTransition {
  NfaLabel label;
  uint32_t target;
};

class Nfa {
 public:
  Nfa() = default;

  uint32_t AddState() {
    states_.emplace_back();
    return static_cast<uint32_t>(states_.size() - 1);
  }

  void AddTransition(uint32_t from, NfaLabel label, uint32_t to) {
    states_[from].push_back(NfaTransition{label, to});
  }

  size_t NumStates() const { return states_.size(); }
  const std::vector<NfaTransition>& Out(uint32_t s) const { return states_[s]; }

  uint32_t initial() const { return initial_; }
  uint32_t final() const { return final_; }
  void set_initial(uint32_t s) { initial_ = s; }
  void set_final(uint32_t s) { final_ = s; }

  /// Human-readable transition listing (for the figure-dump example and
  /// golden tests).
  std::string ToString(const SymbolTable& symbols) const;

 private:
  std::vector<std::vector<NfaTransition>> states_;
  uint32_t initial_ = 0;
  uint32_t final_ = 0;
};

/// Thompson construction of M(e). `is_derived(p)` decides whether a
/// predicate leaf becomes a kDerived transition (it has an equation) or a
/// kRel transition (a base relation / view).
Nfa BuildNfa(const RexPtr& e, const std::function<bool(SymbolId)>& is_derived);

}  // namespace binchain

#endif  // BINCHAIN_AUTOMATA_NFA_H_
