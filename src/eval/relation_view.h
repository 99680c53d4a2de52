// Engine-facing binary relation abstraction. A view enumerates successors
// (and optionally predecessors) of a graph term. Implementations:
//   - EdbBinaryView: a binary EDB relation (constant-time indexed lookups);
//   - DemandJoinView: a Section-4 view predicate (base-r / in-r / out-r)
//     whose tuples are *computed by demand* by joining EDB relations under
//     the bindings carried by the source term, with per-source memoization
//     so no fact is fetched or joined twice (Section 4: "tuples ... will
//     only be retrieved by demand").
#ifndef BINCHAIN_EVAL_RELATION_VIEW_H_
#define BINCHAIN_EVAL_RELATION_VIEW_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/nfa.h"
#include "datalog/ast.h"
#include "eval/join.h"
#include "storage/database.h"
#include "storage/term_pool.h"
#include "util/function_ref.h"
#include "util/status.h"

namespace binchain {

class EvalArtifacts;
class SharedAdjacency;
class SharedDemandMemo;

/// Visitor parameters are FunctionRef (non-owning, non-allocating): one
/// indirect call per enumeration, no std::function construction per probe.
class BinaryRelationView {
 public:
  virtual ~BinaryRelationView() = default;

  /// Enumerates v with R(u, v).
  virtual void ForEachSucc(TermId u, FunctionRef<void(TermId)> fn) = 0;

  /// Enumerates u with R(u, v). Only if SupportsBackward().
  virtual void ForEachPred(TermId v, FunctionRef<void(TermId)> fn) = 0;

  virtual bool SupportsBackward() const { return true; }

  /// Enumerates all pairs (u, v). Only if SupportsEnumerate(). Used by the
  /// HSU preconstruction baseline and by free-free query source discovery.
  virtual void ForEachPair(FunctionRef<void(TermId, TermId)> fn) = 0;

  virtual bool SupportsEnumerate() const { return true; }
};

/// Wraps a binary EDB relation; its terms are unary, so each TermId it
/// reads or emits is the constant itself. A tuple term has no arcs here.
class EdbBinaryView : public BinaryRelationView {
 public:
  explicit EdbBinaryView(const Relation* rel) : rel_(rel) {}

  void ForEachSucc(TermId u, FunctionRef<void(TermId)> fn) override;
  void ForEachPred(TermId v, FunctionRef<void(TermId)> fn) override;
  void ForEachPair(FunctionRef<void(TermId, TermId)> fn) override;

  /// Points the view at another epoch's copy of the relation. Keeps the
  /// view object (and thus every engine-side pointer to it) stable across
  /// snapshot swaps — only the storage behind it moves.
  void Rebind(const Relation* rel) { rel_ = rel; }

  /// Binds the epoch's shared adjacency memo (or nullptr to detach).
  /// While bound, ForEachSucc/ForEachPred serve from the snapshot-owned
  /// memo: identical enumeration, zero per-tuple EDB fetches (counted as
  /// EvalStats::memo_hits instead). Rebound together with Rebind on every
  /// epoch bump so view and memo always describe the same snapshot.
  void BindSharedAdjacency(const SharedAdjacency* adj) { adj_ = adj; }

 private:
  const Relation* rel_;
  const SharedAdjacency* adj_ = nullptr;
};

/// A Section-4 view predicate. Tuples are pairs (t(input), t(output)) where
/// `input` is a vector of variables bound by the incoming term and `output`
/// a vector of terms (variables or constants) projected from the matches of
/// `body` (base literals and built-ins of the original rule). Results are
/// memoized per source term.
class DemandJoinView : public BinaryRelationView {
 public:
  DemandJoinView(const Database* db, TermPool* pool,
                 std::vector<Literal> body, std::vector<SymbolId> input_vars,
                 std::vector<Term> output_terms)
      : db_(db),
        pool_(pool),
        body_(std::move(body)),
        input_vars_(std::move(input_vars)),
        output_terms_(std::move(output_terms)) {}

  void ForEachSucc(TermId u, FunctionRef<void(TermId)> fn) override;

  /// Demand views are evaluated with the first argument bound only.
  bool SupportsBackward() const override { return false; }
  void ForEachPred(TermId, FunctionRef<void(TermId)>) override {}
  bool SupportsEnumerate() const override { return false; }
  void ForEachPair(FunctionRef<void(TermId, TermId)>) override {}

  /// Set if a body enumeration ever failed (unsafe built-in); checked by the
  /// evaluator after the run.
  const Status& status() const { return status_; }

  /// Binds an epoch-shared demand memo. The private per-source memo_ stays
  /// (tuple terms are pool-local); the shared memo is keyed by input-tuple
  /// *content*, so a source any worker evaluated is joined exactly once per
  /// epoch — the Section-4 "no fact fetched twice" discipline extended
  /// across workers.
  void BindSharedMemo(const SharedDemandMemo* shared) { shared_ = shared; }

 private:
  /// Emits output tuples for one body match. Output variables not bound by
  /// the match range over the active domain of the database — this realizes
  /// the paper's semantics for non-chain programs, where such variables
  /// "can assume any value" (end of Section 4).
  void EmitOutputs(const Binding& binding, std::vector<TermId>& results);
  const std::vector<SymbolId>& ActiveDomain();

  const Database* db_;
  TermPool* pool_;
  std::vector<Literal> body_;
  std::vector<SymbolId> input_vars_;
  std::vector<Term> output_terms_;
  std::unordered_map<TermId, std::vector<TermId>> memo_;
  const SharedDemandMemo* shared_ = nullptr;
  std::vector<SymbolId> domain_;
  bool domain_built_ = false;
  Status status_ = Status::Ok();
};

/// Name -> view registry plus the pool its demand views intern tuple terms
/// into. Owned by the evaluation session (QueryEngine / transformed-program
/// evaluator).
class ViewRegistry {
 public:
  explicit ViewRegistry(SymbolTable* symbols) : symbols_(symbols) {}
  ViewRegistry(const ViewRegistry&) = delete;
  ViewRegistry& operator=(const ViewRegistry&) = delete;

  TermPool& pool() { return pool_; }
  const TermPool& pool() const { return pool_; }
  SymbolTable& symbols() { return *symbols_; }

  void Register(SymbolId pred, std::unique_ptr<BinaryRelationView> view);

  /// Registers an EdbBinaryView for every binary relation in `db`.
  void RegisterDatabase(const Database& db);

  /// Re-points the registry at another database epoch: existing EDB views
  /// are rebound in place (object identity preserved, so engine view caches
  /// stay valid) and relations that first appeared in this epoch get fresh
  /// views. The epoch must extend the symbol-id space the registry was
  /// built over (true for every BeginDelta successor). The registry's
  /// symbol table becomes the epoch's — on a frozen epoch this is
  /// lookup-only use.
  void BindDatabase(const Database& db);

  /// Wires the epoch's shared artifacts into every registered view: EDB
  /// views get the matching adjacency memo, demand views the shared demand
  /// memo. Pass nullptr to detach (views fall back to direct EDB probing).
  /// Call after BindDatabase on every epoch bump, so views and memos always
  /// describe the same snapshot.
  void BindArtifacts(const EvalArtifacts* artifacts);

  /// Epoch rebind in one step. With artifacts, EDB views are rebound from
  /// the artifact set's frozen binary-relation table — no name walk, no
  /// Intern — and the shared memos are wired; without, this is
  /// BindDatabase + detached memos. The epoch must extend the symbol-id
  /// space the registry was built over, and `artifacts` (when given) must
  /// describe exactly `db`.
  void BindSnapshot(const Database& db, const EvalArtifacts* artifacts);

  BinaryRelationView* Find(SymbolId pred) const;

  /// A regular expression compiled to its machine (no derived predicates),
  /// with the view-existence check folded in. Level-based strategies
  /// evaluate the same e0/e1/e2 expressions once per level, so compilation
  /// is memoized per Rex node for the registry's lifetime. Contract: hoist
  /// expression construction (e.g. MatchLinearNormalForm) out of per-query
  /// loops — entries are pinned and never evicted, so feeding freshly
  /// allocated Rex trees every query grows the cache without ever hitting.
  struct CompiledRex {
    Nfa nfa;
    Status status = Status::Ok();
    RexPtr pinned;  // keeps the cache key's node alive (no address reuse)
  };
  const CompiledRex& Compile(const RexPtr& e) const;

  /// Epoch-stamped visited marks reused across set-at-a-time traversals
  /// (ImageUnderRex): bumping the epoch "clears" them in O(1), so each
  /// call costs O(nodes visited), not O(symbol count). Only unary terms
  /// are stamped here; tuple terms carry a tagged id that must never size
  /// an array. Not reentrant — one traversal at a time per registry (which
  /// is how the level-based strategies and the cyclic bound use it).
  struct TraversalScratch {
    std::vector<uint32_t> node_stamp;  // indexed constant * num_states + state
    uint32_t epoch = 0;
  };
  TraversalScratch& scratch() const { return scratch_; }

 private:
  /// The one rebind-or-create step both bind paths share: re-point an
  /// existing EDB view at `rel`, leave custom views alone, create and track
  /// a fresh EdbBinaryView otherwise.
  void RebindOrCreateEdbView(SymbolId pred, const Relation* rel);

  SymbolTable* symbols_;
  TermPool pool_;
  std::unordered_map<SymbolId, std::unique_ptr<BinaryRelationView>> views_;
  /// EDB views owned by views_ that BindDatabase may rebind in place.
  std::unordered_map<SymbolId, EdbBinaryView*> edb_views_;
  /// Demand views owned by views_ that BindArtifacts wires shared memos to.
  std::unordered_map<SymbolId, DemandJoinView*> demand_views_;
  mutable std::unordered_map<const Rex*, CompiledRex> rex_cache_;
  mutable CompiledRex compile_error_;  // scratch for uncached failures
  mutable TraversalScratch scratch_;
};

}  // namespace binchain

#endif  // BINCHAIN_EVAL_RELATION_VIEW_H_
