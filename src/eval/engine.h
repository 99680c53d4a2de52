// The paper's evaluation algorithm (Figures 4 and 5).
//
// Given an equation system p = e_p (Lemma 1) and a query p(a, Y), the engine
// traverses the interpretation graph G(p, a, i): nodes are pairs
// (automaton state, term), constructed by demand. Iteration i is controlled
// by the automaton EM(p, i); between iterations every derived-predicate
// transition that gathered continuation points is replaced by a fresh copy
// of the corresponding machine M(e_r). The run stops when an iteration adds
// no continuation points (C = 0), when the iteration cap is reached, or —
// for cyclic data — when the |D1|*|D2| bound of Marchetti-Spaccamela et al.
// is exhausted.
//
// EM(p, i) is never materialized. Each machine copy of the Figure 2
// hierarchy is a copy record {machine, base, ret}: the compiled M(e_r) it
// stands for, the global id of its local state 0, and the state its final
// state returns to (the target of the parent's expanded derived arc). A
// global state is base + local state, so the traversal reads its arcs
// straight from the one shared compiled machine and adds `base` to each
// target. An expanded derived arc becomes an id arc to the child copy's
// initial state (via a per-state child index), and a child copy's final
// state gains one id arc to `ret`. Expansion therefore appends a record
// instead of copying transitions. This relies on Thompson machines having
// at most one non-id arc per state, which EvalFrom checks.
//
// Only the *nodes* of G are stored, never its arcs (Section 3: "the arcs of
// the graph need not be stored at all"). The node set is laid out per
// global state: each state has one 32-bit slot holding its first term
// inline; a second distinct term promotes the state to a row, a bitset
// over the term ids [0, W), carved from an arena reused across queries.
// W, fixed at query start, is the symbol count: a unary term's id is its
// constant, so every constant of the epoch fits. Tuple terms (tagged ids,
// storage/term_pool.h), and states whose row would push the arena past
// what a hash set spends on the nodes inserted so far, fall back to an
// open-addressed overflow set. A node insert is thus one slot load and one
// bit test on the common path, and node-set memory stays O(|G|) however
// large W is. The dense path therefore needs |G| large against W: a query
// that reaches few of many loaded constants runs on the overflow set.
// Node (final state, u) is inserted at most once, so the node set also
// dedups the answers.
#ifndef BINCHAIN_EVAL_ENGINE_H_
#define BINCHAIN_EVAL_ENGINE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "automata/nfa.h"
#include "equations/equations.h"
#include "eval/answer_curve.h"
#include "eval/relation_view.h"
#include "util/cancel_token.h"
#include "util/flat_set.h"
#include "util/status.h"

namespace binchain {

class AnswerTermSink;  // eval/answer_sink.h (engine-level chunk consumer)
class AnswerSink;      // eval/answer_sink.h (tuple-level, QueryEngine)

/// Work counters of one evaluation. A plain copyable value: responses,
/// answer-cache entries and batch totals hold it by value, so every field
/// but the answer curve is a fixed-size scalar, and the curve's size
/// follows the answers, not the iterations.
struct EvalStats {
  uint64_t nodes = 0;        // |G|: (state, term) pairs created
  uint64_t arcs = 0;         // arc traversals (edge enumerations)
  uint64_t iterations = 0;   // main-loop iterations performed
  uint64_t expansions = 0;   // machine copies appended to EM
  uint64_t continuations = 0;  // continuation points gathered overall
  uint64_t em_states = 0;    // final size of EM(p, h): sum of copy sizes
  uint64_t fetches = 0;      // EDB tuple retrievals during this query
  /// Read-only fallback scans of frozen wide relations (arity >
  /// Relation::kEagerFreezeArity) whose probed mask was never indexed
  /// before the freeze. Nonzero means a hot mask is missing its index —
  /// visible here so the silent O(n)-per-probe path can't regress unseen.
  uint64_t wide_mask_scans = 0;
  /// Probes served from epoch-shared memos (snapshot-owned adjacency /
  /// closure / demand-join artifacts) instead of EDB retrievals. Each hit
  /// stands for the fetches the shared artifact saved; `fetches` stays the
  /// true EDB retrieval count.
  uint64_t memo_hits = 0;
  /// Cancellation polls performed (one per kCancelCheckStride node
  /// expansions plus one per fixpoint iteration; zero when no token rides
  /// the query). The decimation keeps the steady_clock reads off the hot
  /// path — bench_storage budgets <2% overhead for the polling.
  uint64_t cancel_checks = 0;
  bool hit_iteration_cap = false;
  /// The traversal was unwound early by its CancelToken (deadline passed
  /// mid-flight, or the future was cancelled/dropped). The returned answers
  /// are a valid *partial* result: every tuple reported is a true answer,
  /// but the set may be incomplete.
  bool cancelled = false;

  /// Cumulative answer-set size after each iteration (Lemma 2: the partial
  /// answer after iteration i equals the answer of p defined by p = p_i).
  /// On Figure 8's cyclic data the trace shows the paper's "periodically m
  /// successive iterations during which nothing new is added". Stored as
  /// the steps where the count changes (eval/answer_curve.h), so it costs
  /// O(answers), not O(iterations), wherever the stats are kept.
  AnswerCurve answers_per_iteration;
};

struct EvalOptions {
  /// Hard cap on main-loop iterations; 0 = none (terminate on C = 0 only).
  size_t max_iterations = 0;

  /// If set, compute the cyclic termination bound |D1| * |D2| for equations
  /// of the form p = e0 U e1.p.e2 and stop after that many iterations even
  /// if C stays nonempty. Required for cyclic databases (Figure 8).
  bool use_cyclic_bound = false;

  /// All-free queries p(X, Y) over pure-closure equations (e*.e or e.e*)
  /// normally share traversal work through one Tarjan condensation pass
  /// (Section 3 end, citing [21]). Set to force per-source evaluation
  /// instead (the ablation).
  bool disable_closure_sharing = false;

  /// Cooperative cancellation: when set, the traversal polls the token at
  /// decimated cancellation points (every Engine::kCancelCheckStride node
  /// expansions, and once per fixpoint iteration) and unwinds with the
  /// partial answer set gathered so far, marking EvalStats::cancelled.
  /// Borrowed — must outlive the evaluation call. nullptr disables polling
  /// entirely (the only residual cost is one pointer test per expansion).
  const CancelToken* cancel = nullptr;

  /// Streaming: newly derived answer tuples are delivered in chunks while
  /// the evaluation runs, shaped per the query's binding pattern. Consumed
  /// by QueryEngine::Query (which installs the term-level adapter below);
  /// Engine::EvalFrom itself never reads this field. Borrowed — must
  /// outlive the evaluating call. See eval/answer_sink.h.
  AnswerSink* sink = nullptr;

  /// Engine-level streaming: EvalFrom flushes newly derived answer terms
  /// here at its cancellation points (every kCancelCheckStride node
  /// expansions, once per fixpoint iteration, and once before the final
  /// sort), exactly once per term, in derivation order. Set by
  /// QueryEngine's shaping adapters; direct EvalFrom callers may install
  /// their own. Borrowed — must outlive the evaluating call.
  AnswerTermSink* term_sink = nullptr;
};

class Engine {
 public:
  /// Node expansions between two cancellation polls. Tuned so the poll —
  /// a branch per expansion plus a clock read per stride — stays under the
  /// 2% bench_storage budget while keeping worst-case cancellation latency
  /// low: one expansion can enumerate a whole adjacency list (thousands of
  /// arcs on dense workloads), so a stride of 512 bounds the latency to a
  /// few milliseconds even there, and to microseconds on sparse data.
  static constexpr size_t kCancelCheckStride = 512;

  /// `eqs` and `views` must outlive the engine. `shared_machines`, if
  /// given, is an immutable pre-compiled machine set (pred -> M(e_p)) that
  /// may be shared by any number of engines: Machine() serves from it
  /// without compiling or caching locally, so service workers skip the
  /// per-worker NFA compilation entirely. Predicates absent from the shared
  /// set still compile lazily into this engine's private cache.
  Engine(const EquationSystem* eqs, ViewRegistry* views,
         const std::unordered_map<SymbolId, Nfa>* shared_machines = nullptr);

  /// Answers p(a, Y): the set of terms y with (a, y) in the relation p.
  /// Reusable: each call resets `stats` and the engine's internal scratch
  /// state (node sets, traversal stack, continuation buffers), so one
  /// engine serves any number of queries back to back with warm capacity
  /// and warm machine caches. Not reentrant — one EvalFrom at a time per
  /// engine (concurrent callers use one engine per thread).
  Result<std::vector<TermId>> EvalFrom(SymbolId pred, TermId source,
                                       const EvalOptions& options,
                                       EvalStats* stats);

  /// The compiled machine M(e_p) (from the shared set, or built on first
  /// use). Exposed for the figure-dump example and tests.
  Result<const Nfa*> Machine(SymbolId pred);

  /// Moves the privately compiled machines out (e.g. into a shared set
  /// other engines are constructed over). The engine keeps working — it
  /// simply recompiles on demand.
  std::unordered_map<SymbolId, Nfa> TakeMachines() {
    return std::move(machines_);
  }

 private:
  Result<size_t> CyclicIterationBound(SymbolId pred, TermId source,
                                      const CancelToken* cancel);

  const EquationSystem* eqs_;
  ViewRegistry* views_;
  const std::unordered_map<SymbolId, Nfa>* shared_machines_;
  std::unordered_map<SymbolId, Nfa> machines_;
  // Linear normal forms matched for the cyclic bound, memoized per
  // predicate so repeated cyclic-bound queries reuse the same Rex nodes
  // (and thus hit the registry's compiled-machine cache).
  std::unordered_map<SymbolId, LinearNormalForm> normal_forms_;

  // One machine copy of the EM(p, i) hierarchy (see the file comment).
  struct Copy {
    const Nfa* m;   // the shared compiled M(e_r) this copy addresses
    uint32_t base;  // global id of m's local state 0
    uint32_t ret;   // target of the final state's id arc; kNone for the root
  };
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Appends a copy of `m` returning to `ret`; returns its copy index.
  uint32_t AddCopy(const Nfa* m, uint32_t ret);

  /// Adds node (q, u) to G; returns true if it was not there before.
  /// `nodes` is |G| so far, which sets the row budget.
  bool InsertNode(uint32_t q, TermId u, uint64_t nodes);

  // Node-set slot values (see the file comment). A slot below kRowTag is
  // the state's only term; kRowTag | r names row r; kEmptySlot means no
  // term yet and kOverflowSlot that every term of the state is in g_.
  static constexpr uint32_t kRowTag = 1u << 31;
  static constexpr uint32_t kOverflowSlot = UINT32_MAX - 1;
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  // Per-query scratch, cleared (capacity kept; only a sparsely used row
  // arena or overflow table is released) at the top of EvalFrom so a
  // long-lived engine answers query streams without reallocating its node
  // sets from scratch each time. Copy records point into the machine maps,
  // which TakeMachines() may move between queries, so none outlives a call.
  std::vector<uint32_t> slot_;  // global state -> node-set slot
  std::vector<uint64_t> rows_;  // row arena, row_words_ words per row
  uint32_t row_words_ = 0;      // ceil(W / 64)
  uint32_t rows_used_ = 0;
  TermId width_ = 0;            // W: ids below it may take a slot or row
  FlatSet64 g_;                 // overflow nodes of G(p, a, i)
  std::vector<Copy> copies_;       // copies_[0] is the root M(e_p)
  std::vector<uint32_t> copy_of_;  // global state -> copy index
  std::vector<uint32_t> child_;    // global state -> expanding copy, or kNone
  // Continuation points (state, term) of the current iteration. G visits
  // each node once and a state has at most one derived arc, so each point
  // is gathered once without a dedup set.
  std::vector<std::pair<uint32_t, TermId>> continuations_;
  std::vector<std::pair<uint32_t, TermId>> stack_;
  std::vector<std::pair<uint32_t, TermId>> seeds_;
  // View pointers per transition predicate; registry entries are stable for
  // the engine's lifetime, so this cache persists across queries.
  std::vector<BinaryRelationView*> view_cache_;
};

}  // namespace binchain

#endif  // BINCHAIN_EVAL_ENGINE_H_
