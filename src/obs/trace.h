// Per-query and per-publish trace spans, and the flight-recorder rings.
//
// A QueryTrace is the request-scoped complement to the process-wide
// metrics registry: where a Counter answers "how many queries timed out
// today", the trace answers "why was *this* query slow" — it records the
// span of one query's life through Submit -> queue -> EvalFrom ->
// complete (threaded through the service the same way CancelToken is),
// split into queue wait and eval wall time plus the evaluator's own
// effort counters and the epoch the query ran against.
//
// A PublishTrace is the same idea for the other pipeline the process runs:
// SnapshotManager::Publish, split into its phases (delta staging, the
// incremental freeze, the epoch-artifact refresh, the WAL commit/fsync,
// and the tip swap). Per-phase publish spans are the measurement substrate
// for group-commit work: the commit_ms column is exactly the cost a
// batched fdatasync would amortize.
//
// Completed spans are retained in fixed-size rings (SpanRing): one for
// queries (the FlightRecorder, per service), one for publishes (the
// PublishRecorder, per snapshot manager), so "dump the last N slow
// queries / publishes" works after the fact without having logged every
// request. Both kinds also render as Chrome trace-event JSON
// (RenderChromeTrace), loadable in perfetto / chrome://tracing.
//
// This header is dependency-free below util/ on purpose: service, live
// and durability all include it, so it must not pull eval/ types in.
#ifndef BINCHAIN_OBS_TRACE_H_
#define BINCHAIN_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace binchain {
namespace obs {

/// Default capacity of every span ring. One shared constant so the
/// recorder in trace.h and the service wiring cannot drift apart (they
/// shipped as 64 vs the documented 256 once).
inline constexpr size_t kSpanRingCapacity = 256;

/// One query's completed span. Every field is filled in by the service
/// completion seam — queued-then-cancelled (or shed) queries still get a
/// complete span with eval_ms == 0, so the recorder sees admission
/// failures too.
struct QueryTrace {
  uint64_t query_id = 0;  ///< unique within the process, assigned at submit
  uint32_t pred = 0;      ///< SymbolId of the queried predicate
  /// SymbolId of the bound constant: `a` for p(a, Y) and p(a, b), `b` for
  /// p(X, b). 0 for an all-free query (0 is also a valid SymbolId).
  uint32_t source = 0;

  /// Submission time in microseconds on the process steady clock — the
  /// same clock PublishTrace::start_us uses, so query and publish spans
  /// line up on one Chrome-trace timeline.
  uint64_t start_us = 0;

  double queue_wait_ms = 0;  ///< submit -> worker pickup
  double eval_ms = 0;        ///< worker pickup -> evaluator return
  double total_ms = 0;       ///< submit -> completion

  uint64_t iterations = 0;     ///< fixpoint iterations
  uint64_t expansions = 0;     ///< machine copies appended to EM(p, i)
  uint64_t fetches = 0;        ///< relation tuple retrievals
  uint64_t memo_hits = 0;      ///< closure/adjacency memo hits
  uint64_t cancel_checks = 0;  ///< cancellation polls observed
  uint64_t answers = 0;        ///< result tuples produced
  /// Streamed answer chunks delivered to the request's AnswerSink (0 for
  /// non-streaming requests; 1 for replayed answers — cache hits and
  /// collapsed queries arrive as a single chunk).
  uint64_t chunks = 0;
  uint64_t epoch = 0;          ///< snapshot epoch the query ran against

  /// Terminal disposition, mirroring QueryResponse's flags.
  bool timed_out = false;
  bool cancelled = false;
  bool shed = false;  ///< rejected at admission (queue full)
  /// Served from the answer cache on the caller thread — no queue, no
  /// evaluation; eval_ms is 0 and the effort counters replay the original
  /// evaluation's.
  bool cache_hit = false;
  /// Result replayed from another query's evaluation: a single-flight
  /// waiter answered when the identical request it joined finished (in
  /// its own batch or another; cache on or off).
  bool collapsed = false;

  /// One JSON object (no trailing newline), appended to *out.
  void RenderJson(std::string* out) const;
};

/// One publish's completed span: the per-phase wall times of the epoch
/// pipeline, in pipeline order. Captured inside SnapshotManager::Publish
/// for successful *and* refused publishes (a refused durable commit spans
/// everything up to and including commit_ms; swap_ms stays 0 because the
/// tip never moved).
struct PublishTrace {
  uint64_t publish_id = 0;  ///< monotone per manager, refusals included
  uint64_t epoch = 0;       ///< epoch id that became (or failed to become) tip
  uint64_t start_us = 0;    ///< publish start, steady-clock microseconds

  double stage_ms = 0;     ///< BeginDelta + staged-op merge + prune
  double freeze_ms = 0;    ///< incremental index work on the delta layers
  double artifact_ms = 0;  ///< epoch-artifact refresh (O(delta) by contract)
  double commit_ms = 0;    ///< durability-sink commit + fsync (0 without sink)
  double swap_ms = 0;      ///< tip swap + post-swap hooks (checkpoint policy)
  double total_ms = 0;     ///< whole Publish() call

  uint64_t facts_added = 0;
  uint64_t facts_deleted = 0;
  uint64_t relations_touched = 0;  ///< relations that got a delta layer
  uint64_t relations_merged = 0;   ///< of those, chained onto merged layers
  uint64_t rows_compacted = 0;  ///< rows + spellings copied by compaction
  bool refused = false;  ///< durability commit refused; no tip swap happened

  /// One JSON object (no trailing newline), appended to *out.
  void RenderJson(std::string* out) const;
};

namespace internal {
/// Clears every ring registered with Registry::Global()'s reset hook when
/// ResetForTest runs (implemented in trace.cc to keep the template below
/// free of the registry dependency).
void RegisterRingResetHook(void* owner, void (*clear)(void*));
void UnregisterRingResetHook(void* owner);
}  // namespace internal

/// Fixed-capacity ring of the most recent spans whose total latency met
/// `min_record_ms`. Record() takes a mutex — it runs once per span on a
/// completion seam (next to bookkeeping mutexes that already live there),
/// so it is far off the traversal hot paths.
///
/// Every ring registers itself with the global metrics registry's
/// test-reset hook, so obs::Registry::Global().ResetForTest() clears the
/// recorded spans together with the instrument values — one hook resets
/// the whole observability plane.
template <typename Span>
class SpanRing {
 public:
  explicit SpanRing(size_t capacity = kSpanRingCapacity,
                    double min_record_ms = 0)
      : capacity_(capacity == 0 ? 1 : capacity),
        min_record_ms_(min_record_ms) {
    internal::RegisterRingResetHook(this, [](void* self) {
      static_cast<SpanRing*>(self)->Clear();
    });
  }
  ~SpanRing() { internal::UnregisterRingResetHook(this); }

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  /// Retains the span if span.total_ms >= min_record_ms, evicting the
  /// oldest retained span once the ring is full.
  void Record(const Span& span) {
    if (span.total_ms < min_record_ms_) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < capacity_) {
      ring_.push_back(span);
      return;
    }
    ring_[next_] = span;
    next_ = (next_ + 1) % capacity_;
  }

  /// Retained spans, oldest first.
  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    out.reserve(ring_.size());
    // Once the ring has wrapped, ring_[next_] is the oldest retained span.
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
    return out;
  }

  /// Drops every retained span (capacity and threshold stay).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
    next_ = 0;
  }

  /// JSON array of the retained spans, oldest first, appended to *out.
  void RenderJson(std::string* out) const {
    std::vector<Span> spans = Snapshot();
    out->append("[");
    for (size_t i = 0; i < spans.size(); ++i) {
      out->append(i == 0 ? "\n  " : ",\n  ");
      spans[i].RenderJson(out);
    }
    out->append(spans.empty() ? "]" : "\n]");
  }
  std::string RenderJson() const {
    std::string out;
    RenderJson(&out);
    return out;
  }

  size_t capacity() const { return capacity_; }
  double min_record_ms() const { return min_record_ms_; }

 private:
  const size_t capacity_;
  const double min_record_ms_;
  mutable std::mutex mu_;
  std::vector<Span> ring_;  // grows to capacity_, then wraps
  size_t next_ = 0;         // ring_[next_] is the oldest once full
};

/// The slow-query ring the service owns (historical name kept: every
/// caller since PR 7 says "flight recorder").
using FlightRecorder = SpanRing<QueryTrace>;
/// The publish-pipeline ring the snapshot manager owns.
using PublishRecorder = SpanRing<PublishTrace>;

/// Microseconds on the process-wide steady clock the spans' start_us
/// fields use (origin is the first call, so traces start near t=0).
uint64_t SteadyNowUs();

/// Chrome trace-event JSON ({"traceEvents": [...]}) over query and
/// publish spans on one shared timeline: each query renders as a complete
/// ("X") slice with nested queue_wait/eval phases, each publish as a slice
/// with its five pipeline phases nested. Loadable in perfetto /
/// chrome://tracing. Appends to *out.
void RenderChromeTrace(const std::vector<QueryTrace>& queries,
                       const std::vector<PublishTrace>& publishes,
                       std::string* out);
std::string RenderChromeTrace(const std::vector<QueryTrace>& queries,
                              const std::vector<PublishTrace>& publishes);

}  // namespace obs
}  // namespace binchain

#endif  // BINCHAIN_OBS_TRACE_H_
