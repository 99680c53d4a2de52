// Streaming answer sinks: the chunk-delivery counterpart of CancelToken.
//
// The engine accumulates answers until fixpoint and returns them in one
// batch — fine for in-process callers, wrong for a network data plane
// where the first answers of a long evaluation are useful minutes before
// the last. These interfaces thread a chunk consumer through the same
// decimated points the cancellation token already visits (every
// Engine::kCancelCheckStride node expansions plus once per fixpoint
// iteration), so streaming rides the existing poll cadence and adds no
// new branches to the traversal hot path.
//
// Two levels, mirroring the two result vocabularies:
//
//  * AnswerTermSink — the engine's level. Engine::EvalFrom speaks TermId;
//    it flushes every newly derived answer term exactly once, in
//    derivation order (before the final sort — a streamed prefix is
//    ordered by discovery, the returned vector stays sorted).
//  * AnswerSink — the caller's level. QueryEngine::Query speaks full
//    binding-pattern tuples; it installs a private AnswerTermSink adapter
//    per query that shapes TermIds into tuples with the same filters as
//    the blocking result loops, then forwards them here. Paths that never
//    enter the traversal (base-predicate scans, the shared Tarjan
//    closure) deliver their whole answer set as one chunk.
//
// Both are borrowed for the duration of one evaluation, like
// EvalOptions::cancel: the caller owns the sink and must keep it alive
// until the evaluating call returns. Implementations are invoked on the
// evaluating thread — a service worker, not the submitting thread — and
// must be safe against whatever the owner does concurrently (the data
// plane's sink renders each chunk into its response and offers it to the
// socket without blocking; per-chunk work should stay small because it
// runs inside the traversal).
//
// Exactly-once: every answer appears in exactly one chunk; chunks are
// never empty. A cancelled/deadlined evaluation has delivered a valid
// prefix of the answer set — the same prefix the partial response
// carries. A consumer that is gone (a client that hung up) refuses a
// chunk by returning false from OnAnswers; the query service then cancels
// the request, so the engine unwinds at its next cancellation point.
#ifndef BINCHAIN_EVAL_ANSWER_SINK_H_
#define BINCHAIN_EVAL_ANSWER_SINK_H_

#include <cstddef>

#include "storage/term_pool.h"
#include "storage/tuple.h"

namespace binchain {

/// Engine-level chunk consumer: newly derived answer terms of one
/// EvalFrom, flushed at the traversal's cancellation points.
class AnswerTermSink {
 public:
  virtual ~AnswerTermSink() = default;
  /// `count` > 0 terms, each reported exactly once per evaluation, in
  /// derivation order. Runs on the evaluating thread, inside the
  /// traversal loop — keep it cheap.
  virtual void OnTerms(const TermId* terms, size_t count) = 0;
};

/// Query-level chunk consumer: full result tuples in the query's binding
/// pattern, shaped and filtered exactly like QueryAnswer::tuples.
/// `symbols` resolves the tuples' SymbolIds to spellings (the epoch's
/// table — valid for the duration of the call only).
class AnswerSink {
 public:
  virtual ~AnswerSink() = default;
  /// Returns false when the consumer is gone and wants no more chunks.
  /// QueryService then cancels the request and calls the sink no more;
  /// a direct QueryEngine caller owns its token and cancels it itself.
  virtual bool OnAnswers(const Tuple* tuples, size_t count,
                         const SymbolTable& symbols) = 0;
};

}  // namespace binchain

#endif  // BINCHAIN_EVAL_ANSWER_SINK_H_
