#include "service/query_service.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cache/answer_cache.h"
#include "datalog/printer.h"
#include "eval/answer_sink.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "eval/eval_artifacts.h"
#include "eval/query.h"
#include "live/snapshot_manager.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "util/check.h"

namespace binchain {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// FNV-1a over the canonical program rendering: the answer cache's
/// program fingerprint. Two services prepared over the same rendered
/// program derive the same keys (the same CompatiblePlan currency that
/// lets a second service adopt an epoch's artifacts).
uint64_t FingerprintProgram(const std::string& rendered) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : rendered) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Wraps a request's streaming sink for one evaluation: counts delivered
/// chunks (QueryTrace::chunks) on the way through, and cancels the request
/// once the sink refuses a chunk (its consumer is gone), so the engine
/// unwinds at its next cancellation point. Stack-local in RunOne.
class CountingSink : public AnswerSink {
 public:
  CountingSink(AnswerSink* inner, CancelToken* token)
      : inner_(inner), token_(token) {}
  uint64_t chunks = 0;
  bool OnAnswers(const Tuple* tuples, size_t count,
                 const SymbolTable& symbols) override {
    if (refused_) return false;
    if (count == 0) return true;
    ++chunks;
    if (inner_->OnAnswers(tuples, count, symbols)) return true;
    refused_ = true;
    token_->Cancel();
    return false;
  }

 private:
  AnswerSink* inner_;
  CancelToken* token_;
  bool refused_ = false;
};

}  // namespace

/// Cached pointers into the global metrics registry plus the per-service
/// flight recorder. Registered once at construction (the registry is
/// idempotent, so two services in one process share the counters); every
/// later touch is a pointer chase + relaxed atomic, never a registry
/// lookup. The engine family is folded here, at the completion seam, from
/// the EvalStats each query already collected — the traversal loops
/// themselves carry zero new instrumentation.
struct ServiceObs {
  explicit ServiceObs(const QueryServiceOptions& options)
      : enabled(options.record_metrics),
        recorder(options.flight_recorder_capacity,
                 options.flight_recorder_min_ms) {
    obs::Registry& r = obs::Registry::Global();
    queries = r.GetCounter("binchain_service_queries_total",
                           "Queries completed, all dispositions");
    answers = r.GetCounter(
        "binchain_service_answers_total",
        "Answer tuples produced across successful queries");
    failed = r.GetCounter("binchain_service_failed_total",
                          "Queries completed with a non-OK status");
    shed = r.GetCounter(
        "binchain_service_shed_total",
        "Queries shed at admission (pending requests at high-water mark)");
    timed_out = r.GetCounter(
        "binchain_service_timeout_total",
        "Queries whose deadline expired, while queued or mid-flight");
    cancelled = r.GetCounter(
        "binchain_service_cancelled_total",
        "Queries cancelled through their future (or by dropping it)");
    collapsed = r.GetCounter(
        "binchain_service_collapsed_total",
        "Queries that joined an identical in-flight evaluation (counted "
        "at join)");
    latency_ms = r.GetHistogram("binchain_service_latency_ms",
                                "Query latency, submission to completion");
    queue_wait_ms =
        r.GetHistogram("binchain_service_queue_wait_ms",
                       "Time from submission to worker pickup");
    queue_depth = r.GetGauge(
        "binchain_service_queue_depth",
        "Requests admitted for evaluation, not yet claimed by a worker");
    engine_iterations =
        r.GetCounter("binchain_engine_iterations_total",
                     "Fixpoint iterations across all evaluations");
    engine_nodes = r.GetCounter(
        "binchain_engine_node_expansions_total",
        "(state, term) nodes inserted by traversals");
    engine_expansions = r.GetCounter(
        "binchain_engine_machine_expansions_total",
        "Machine copies appended to EM(p, i) (derived-arc expansions)");
    engine_fetches = r.GetCounter("binchain_engine_fetches_total",
                                  "EDB tuple retrievals");
    engine_memo_hits =
        r.GetCounter("binchain_engine_memo_hits_total",
                     "Hits on the epoch's shared closure/adjacency memos");
    engine_cancel_checks =
        r.GetCounter("binchain_engine_cancel_checks_total",
                     "Cancellation polls observed by traversals");
  }

  /// QueryServiceOptions::record_metrics: false turns the completion-seam
  /// recording and the queue-depth gauge into no-ops (bench overhead A/B).
  const bool enabled;
  std::atomic<uint64_t> next_query_id{1};
  obs::FlightRecorder recorder;
  /// JSONL sink for slow spans (disabled unless slow_query_log_path was
  /// set). Written *off* the batch completion lock — see CompleteQuery.
  obs::SlowQueryLog slow_log;
  obs::Counter* queries;
  obs::Counter* answers;
  obs::Counter* failed;
  obs::Counter* shed;
  obs::Counter* timed_out;
  obs::Counter* cancelled;
  obs::Counter* collapsed;
  obs::Histogram* latency_ms;
  obs::Histogram* queue_wait_ms;
  obs::Gauge* queue_depth;
  obs::Counter* engine_iterations;
  obs::Counter* engine_nodes;
  obs::Counter* engine_expansions;
  obs::Counter* engine_fetches;
  obs::Counter* engine_memo_hits;
  obs::Counter* engine_cancel_checks;
};

/// Per-batch shared state: the completion rendezvous (mutex + condvar over
/// `remaining`), the order-independent aggregates folded in as queries
/// land, and the epoch pin. Single submissions are one-query batches, so
/// every query has exactly one of these behind it.
struct BatchShared {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = 0;  // queries not yet completed (guarded by mu)
  BatchStats stats;      // folded under mu; final once remaining hits 0
  std::chrono::steady_clock::time_point t0;  // submission time
  uint64_t start_us = 0;  // t0 on the shared span clock (obs::SteadyNowUs)
  /// Live mode: pins the acquired epoch (and every storage layer it reads)
  /// until the batch's last response is written.
  std::shared_ptr<const Database> epoch_handle;
  const Database* db = nullptr;  // the epoch all queries evaluate against
  /// The owning service's instruments; raw because the service destructor
  /// drains every batch before its members die.
  ServiceObs* obs = nullptr;
  /// Claim cursor over the batch's leaders, shared by its runners (see
  /// QueryService::Dispatch).
  std::atomic<size_t> next{0};
};

/// One submitted query: the request (frozen at submission), the token the
/// future and the evaluating worker share, and the response slot. `done`
/// and `response` hand-off is guarded by the batch mutex.
struct AsyncQueryState {
  QueryRequest request;
  CancelToken token;
  QueryResponse response;
  bool done = false;  // guarded by batch->mu
  /// A QueryFuture waits on this query, so its completion must broadcast
  /// (otherwise only the batch's last completion does). Guarded by
  /// batch->mu.
  bool awaited = false;
  /// Whether a worker picked the query up (RunOne ran). Shed and
  /// cancelled-while-queued requests never set this; their span charges the
  /// whole lifetime to queue wait.
  bool ran = false;
  std::shared_ptr<BatchShared> batch;

  /// Exact-match key (QueryService::RequestKey): the cache key and the
  /// single-flight key. Set by the front half once admission passed.
  std::string key;
  /// This query leads a single-flight: FinishEval must end the flight and
  /// answer the parked waiters.
  bool flight_leader = false;
  /// The response replays an answer that was evaluated elsewhere (cache
  /// hit, single-flight waiter): CompleteQuery skips the engine_* registry
  /// fold — that work was accounted when it actually ran — and
  /// MaybeCacheInsert never re-inserts it.
  bool replayed = false;
};

/// The single-flight table: one entry per request key whose evaluation is
/// in flight. Identical requests that may join it (see QueryService::Join)
/// park here as waiters instead of evaluating; the leader takes them back
/// when it finishes, on every exit path.
struct FlightTable {
  struct Flight {
    uint64_t epoch = 0;  // the leader's snapshot
    /// The leader's deadline (CancelToken::deadline: max() when none).
    CancelToken::Clock::time_point deadline;
    std::vector<std::shared_ptr<AsyncQueryState>> waiters;
  };
  using Map = std::unordered_map<std::string, Flight>;
  /// Ended flights' nodes kept for reuse, at most kMaxSpare. An entry is
  /// created on the submitting thread and ended on a worker; freeing it
  /// there hands its memory to that worker's allocator cache, where
  /// long-lived allocations then pin it (measured: +5 MiB peak RSS on
  /// e2ebench's ingest_durable, whose warm pass runs 2024 Evals; 4-vCPU
  /// Xeon VM).
  static constexpr size_t kMaxSpare = 1024;
  std::mutex mu;
  Map flights;                        // guarded by mu
  std::vector<Map::node_type> spare;  // guarded by mu
};

namespace {

/// Replays an already-materialized answer set to the request's streaming
/// sink as one chunk (cache hits, single-flight waiters):
/// streaming consumers still receive every tuple, just without incremental
/// boundaries — the answer existed in full before this request saw it.
/// A refused chunk needs no cancel: no evaluation is left to stop.
void ReplayToSink(AsyncQueryState& q) {
  if (q.request.sink == nullptr || q.response.tuples.empty()) return;
  q.response.trace.chunks = 1;
  q.request.sink->OnAnswers(q.response.tuples.data(),
                            q.response.tuples.size(),
                            q.batch->db->symbols());
}

/// Answers `q` from its own token when it tripped — cancelled, or past its
/// deadline — without evaluating anything. Returns whether it did.
bool AnswerIfTripped(AsyncQueryState& q) {
  QueryResponse& resp = q.response;
  if (q.token.cancelled()) {
    resp.cancelled = true;
    resp.status = Status::Cancelled("request cancelled before evaluation");
    return true;
  }
  if (q.token.Expired()) {
    resp.timed_out = true;
    resp.status = Status::DeadlineExceeded(
        "request deadline expired before evaluation");
    return true;
  }
  return false;
}

/// Replays `source`'s answer into waiter `w` (trace.collapsed), unless
/// w's own token tripped — then w gets its own failure, without work.
void Replay(const AsyncQueryState& source, AsyncQueryState& w) {
  QueryResponse& r = w.response;
  r.epoch = w.batch->db->epoch();
  // The waiter's own token rules first — a replayed answer must not
  // resurrect a request its caller already cancelled or deadlined.
  if (AnswerIfTripped(w)) return;
  const QueryResponse& sr = source.response;
  r.tuples = sr.tuples;
  r.stats = sr.stats;
  r.fetches = sr.fetches;
  r.trace.pred = sr.trace.pred;
  r.trace.source = sr.trace.source;
  r.trace.collapsed = true;
  w.replayed = true;
  ReplayToSink(w);
}

}  // namespace

// ----------------------------------------------------------- QueryFuture

QueryFuture::QueryFuture(std::shared_ptr<AsyncQueryState> state)
    : state_(std::move(state)) {}

QueryFuture::QueryFuture(QueryFuture&& other) noexcept
    : state_(std::move(other.state_)) {}

QueryFuture::~QueryFuture() {
  // An abandoned result is demand nobody wants: dropping the future
  // cancels the query so the engine stops paying for it. The worker still
  // completes the state (it holds its own reference); the response is
  // simply never read.
  if (state_ != nullptr) state_->token.Cancel();
}

bool QueryFuture::Ready() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->batch->mu);
  return state_->done;
}

void QueryFuture::Wait() const {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->batch->mu);
  state_->awaited = true;
  state_->batch->cv.wait(lock, [&] { return state_->done; });
}

void QueryFuture::Cancel() {
  if (state_ != nullptr) state_->token.Cancel();
}

QueryResponse QueryFuture::Take() {
  BINCHAIN_CHECK(state_ != nullptr);
  QueryResponse out;
  {
    std::unique_lock<std::mutex> lock(state_->batch->mu);
    state_->awaited = true;
    state_->batch->cv.wait(lock, [&] { return state_->done; });
    out = std::move(state_->response);
  }
  state_.reset();
  return out;
}

// ----------------------------------------------------------- BatchHandle

BatchHandle::BatchHandle(BatchHandle&&) noexcept = default;
BatchHandle& BatchHandle::operator=(BatchHandle&&) noexcept = default;
// Per-future drop semantics do the cancelling of whatever was not taken.
BatchHandle::~BatchHandle() = default;

void BatchHandle::Wait() const {
  if (shared_ == nullptr) return;
  std::unique_lock<std::mutex> lock(shared_->mu);
  shared_->cv.wait(lock, [&] { return shared_->remaining == 0; });
}

void BatchHandle::Cancel() {
  for (QueryFuture& f : futures_) f.Cancel();
}

std::vector<QueryResponse> BatchHandle::Take(BatchStats* stats) {
  Wait();
  std::vector<QueryResponse> out(futures_.size());
  for (size_t i = 0; i < futures_.size(); ++i) {
    if (futures_[i].valid()) out[i] = futures_[i].Take();
  }
  if (stats != nullptr) {
    *stats = BatchStats{};
    if (shared_ != nullptr) {
      std::lock_guard<std::mutex> lock(shared_->mu);
      *stats = shared_->stats;
    }
  }
  futures_.clear();
  shared_.reset();
  return out;
}

// ---------------------------------------------------------- QueryService

/// A worker's private evaluation context. Only the cheap mutable scratch
/// lives here (term pool, view registry, both engines' node sets);
/// everything immutable-per-snapshot — the program plan, and the epoch's
/// EvalArtifacts (shared adjacency memos, closure/source caches) — is
/// shared read-only, so workers never synchronize with each other after
/// construction beyond the artifacts' fill-once publication.
struct QueryService::Worker {
  Worker(Database* db, std::shared_ptr<const PreparedProgram> plan)
      : engine(db, std::move(plan)), bound_epoch(db->epoch()) {}
  QueryEngine engine;
  /// Epoch the engine's views currently point at; workers rebind lazily on
  /// the first query they serve after a publish.
  uint64_t bound_epoch;
};

QueryService::QueryService(Database* db, const Program& program,
                           Options options)
    : db_(db) {
  if (!Init(program, options)) return;
  // Snapshot: complete all lazy index work and forbid mutation, making the
  // shared storage safe for the concurrent read phase; then hang the
  // epoch's shared evaluation artifacts off it and point the workers there.
  db_->Freeze();
  AdoptSnapshot(db_);
  if (!init_status_.ok()) return;
  pool_ = std::make_unique<ThreadPool>(workers_.size());
}

QueryService::QueryService(SnapshotManager* live, const Program& program,
                           Options options)
    : db_(live->genesis()), live_(live) {
  if (!Init(program, options)) return;
  // The artifact lifecycle rides the epoch chain: Seal() builds the genesis
  // epoch's artifacts through this hook, and every later Publish() derives
  // the successor's set from the predecessor's in O(delta). The refresh
  // outcome is folded into the live metric family here because this lambda
  // is the one place that sees eval-layer artifacts from the live pipeline
  // (live/ itself cannot depend on eval/).
  struct ArtifactObs {
    obs::Counter* reused;
    obs::Counter* extended;
    obs::Counter* rebuilt;
    obs::Counter* derived_reused;
    obs::Counter* derived_invalidated;
  };
  auto artifact_obs = std::make_shared<ArtifactObs>();
  {
    obs::Registry& r = obs::Registry::Global();
    artifact_obs->reused =
        r.GetCounter("binchain_live_artifact_adjacency_reused_total",
                     "Adjacency memos shared by pointer across a publish");
    artifact_obs->extended =
        r.GetCounter("binchain_live_artifact_adjacency_extended_total",
                     "Adjacency memos extended with an O(delta) layer");
    artifact_obs->rebuilt = r.GetCounter(
        "binchain_live_artifact_adjacency_rebuilt_total",
        "Adjacency memos rebuilt (new, flattened, or retraction-shrunk "
        "relations)");
    artifact_obs->derived_reused =
        r.GetCounter("binchain_live_artifact_derived_reused_total",
                     "Closure/source cells carried over unchanged");
    artifact_obs->derived_invalidated =
        r.GetCounter("binchain_live_artifact_derived_invalidated_total",
                     "Closure/source cells invalidated by a publish");
  }
  live_->SetArtifactBuilder(
      [plan = plan_, artifact_obs](
          const Database& epoch,
          const std::shared_ptr<const SnapshotArtifact>& prev)
          -> std::shared_ptr<const SnapshotArtifact> {
        auto built = EvalArtifacts::BuildFor(
            epoch, plan,
            std::dynamic_pointer_cast<const EvalArtifacts>(prev));
        if (built != nullptr) {
          const EvalArtifacts::RefreshStats& rs = built->refresh_stats();
          artifact_obs->reused->Inc(rs.adjacency_reused);
          artifact_obs->extended->Inc(rs.adjacency_extended);
          artifact_obs->rebuilt->Inc(rs.adjacency_rebuilt +
                                     rs.adjacency_shrunk);
          artifact_obs->derived_reused->Inc(rs.derived_reused);
          artifact_obs->derived_invalidated->Inc(rs.derived_invalidated);
        }
        return built;
      });
  // The answer cache invalidates through the same layering seam: live/
  // cannot depend on cache/, so the manager just calls back with the new
  // tip and the sweep (support-set re-validation, selective by
  // construction) runs here. The listener owns a shared_ptr so a publish
  // racing service teardown sweeps a still-alive cache.
  if (answer_cache_ != nullptr) {
    live_->SetPublishListener([cache = answer_cache_](const Database& tip) {
      cache->OnPublish(tip);
    });
  }
  // Seal instead of a bare freeze: the genesis becomes epoch 0 of the
  // manager's chain, and every batch from here on acquires the tip.
  live_->Seal();
  AdoptSnapshot(db_);
  if (!init_status_.ok()) return;
  pool_ = std::make_unique<ThreadPool>(workers_.size());
}

QueryService::QueryService(SnapshotManager* live,
                           durability::RecoveryManager* recovery,
                           const Program& program, Options options)
    : QueryService(live, program, options) {
  BINCHAIN_CHECK(recovery != nullptr);
  recovery_ = recovery;
  // Close the serving gate: the sealed genesis is only the checkpoint
  // state. Until FinishRecovery() replays the committed WAL batches, a
  // query could observe an epoch older than what the pre-crash service
  // already acknowledged — kUnavailable, never a stale answer.
  serving_.store(false, std::memory_order_release);
}

Status QueryService::FinishRecovery(
    const durability::WalOptions& wal_options) {
  if (!init_status_.ok()) return init_status_;
  if (recovery_ == nullptr) {
    return Status::FailedPrecondition(
        "FinishRecovery: service was not constructed in recovery mode");
  }
  durability::RecoveryManager* recovery = recovery_;
  recovery_ = nullptr;  // single-shot
  // Replay runs with no sink attached: every batch re-published here is
  // already in the log, and re-appending would duplicate the history.
  if (Status st = recovery->Replay(live_); !st.ok()) return st;
  auto wal = recovery->OpenWal(wal_options);
  if (!wal.ok()) return wal.status();
  wal_ = wal.take();
  live_->SetDurabilitySink(wal_.get());
  serving_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status QueryService::FinishRecovery() {
  return FinishRecovery(durability::WalOptions{});
}

Status QueryService::AdmissionStatus() const {
  if (!init_status_.ok()) return init_status_;
  if (!serving_.load(std::memory_order_acquire)) {
    return Status::Unavailable(
        "service is recovering (WAL replay in progress)");
  }
  return Status::Ok();
}

void QueryService::AdoptSnapshot(Database* db) {
  BINCHAIN_CHECK(db->frozen());
  auto existing =
      std::dynamic_pointer_cast<const EvalArtifacts>(db->artifact());
  if (existing == nullptr ||
      !existing->CompatiblePlan(*plan_, db->symbols())) {
    // No artifacts yet, or artifacts another service built for a different
    // rule set over the same symbols: build our own. Attaching replaces the
    // slot; the other service's workers keep their shared_ptr unharmed.
    db->AttachArtifact(EvalArtifacts::BuildFor(*db, plan_, nullptr));
  }
  for (auto& w : workers_) {
    if (Status s = w->engine.BindSnapshot(*db); !s.ok()) {
      init_status_ = s;
      return;
    }
    w->bound_epoch = db->epoch();
  }
}

bool QueryService::Init(const Program& program, const Options& options) {
  queue_depth_ = options.queue_depth > 0 ? options.queue_depth : 1024;
  // Instruments first, even on failed construction: submissions against a
  // failed service still complete (with init_status_) and record spans.
  obs_ = std::make_unique<ServiceObs>(options);
  flights_ = std::make_unique<FlightTable>();
  if (!options.slow_query_log_path.empty()) {
    Status s = obs_->slow_log.Open(options.slow_query_log_path,
                                   options.slow_query_log_min_ms,
                                   options.slow_query_log_sample);
    if (!s.ok()) {
      init_status_ = s;
      return false;
    }
  }
  Program prog = program;
  prog.queries.clear();
  if (!prog.facts.empty() && db_->frozen()) {
    init_status_ = Status::FailedPrecondition(
        "cannot load program facts into a frozen database");
    return false;
  }

  // Free-variable spellings for request literals, interned while the table
  // still accepts new symbols.
  if (!db_->symbols().frozen()) {
    var_x_ = db_->symbols().Intern("X");
    var_y_ = db_->symbols().Intern("Y");
    has_free_vars_ = true;
  } else {
    auto x = db_->symbols().Find("X");
    auto y = db_->symbols().Find("Y");
    if (x && y) {
      var_x_ = *x;
      var_y_ = *y;
      has_free_vars_ = true;
    }
  }

  // The mutating phase, once per service rather than once per worker:
  // loads facts, transforms the program, and compiles every machine of
  // both equation systems (interning symbols as needed). Workers then
  // share the immutable plan — their construction is view registration
  // only, so startup cost stays flat as threads grow.
  auto plan = PrepareProgram(db_, std::move(prog), /*compile_machines=*/true);
  if (!plan.ok()) {
    init_status_ = plan.status();
    return false;
  }
  plan_ = plan.take();

  // Key prefix = the plan fingerprint over the same canonical program
  // rendering CompatiblePlan compares, so keys from a service with a
  // different rule set can never collide into this cache's entries.
  const uint64_t fp =
      FingerprintProgram(ProgramToString(plan_->program, db_->symbols()));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  key_prefix_.assign(buf);
  key_prefix_ += '\x1f';
  if (options.answer_cache_bytes > 0) {
    answer_cache_ =
        std::make_shared<cache::AnswerCache>(options.answer_cache_bytes, fp);
  }

  size_t n = options.num_threads;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>(db_, plan_));
  }
  return true;
}

QueryService::~QueryService() {
  // Detach the publish listener before members die: the manager outlives
  // the service by contract, and without this every later publish would
  // keep sweeping a cache nobody reads (the listener's shared_ptr keeps it
  // alive, so it is waste, not unsafety).
  if (live_ != nullptr && answer_cache_ != nullptr) {
    live_->SetPublishListener(nullptr);
  }
}

size_t QueryService::num_threads() const {
  return pool_ ? pool_->size() : 0;
}

size_t QueryService::pending() const {
  return pending_.load(std::memory_order_relaxed);
}

const obs::FlightRecorder& QueryService::flight_recorder() const {
  return obs_->recorder;
}

Status QueryService::BuildLiteral(const Database& db,
                                  const QueryRequest& request, Literal* out,
                                  bool* empty_ok) const {
  *empty_ok = false;
  auto pred = db.symbols().Find(request.pred);
  if (!pred) {
    return Status::NotFound("unknown predicate '" + request.pred + "'");
  }
  out->predicate = *pred;
  out->args.clear();
  if (request.diagonal &&
      !(request.source.empty() && request.target.empty())) {
    return Status::InvalidArgument(
        "diagonal requests must leave source and target free");
  }
  const std::string* names[2] = {&request.source, &request.target};
  // The diagonal query p(X, X) repeats one variable; otherwise the free
  // positions get distinct variables.
  SymbolId vars[2] = {var_x_, request.diagonal ? var_x_ : var_y_};
  for (int i = 0; i < 2; ++i) {
    if (names[i]->empty()) {
      if (!has_free_vars_) {
        return Status::FailedPrecondition(
            "free-variable queries need variable symbols interned before the "
            "database froze");
      }
      out->args.push_back(Term::Var(vars[i]));
    } else {
      auto c = db.symbols().Find(*names[i]);
      if (!c) {
        // A constant the database has never seen occurs in no tuple: the
        // answer set is empty, which is a result, not an error.
        *empty_ok = true;
        return Status::Ok();
      }
      out->args.push_back(Term::Const(*c));
    }
  }
  return Status::Ok();
}

void QueryService::RunOne(size_t worker_id, AsyncQueryState& q) {
  QueryResponse& resp = q.response;
  const Database* qdb = q.batch->db;
  resp.epoch = qdb->epoch();
  // Span: the time up to this pickup was queue wait; everything after is
  // eval (CompleteQuery derives eval_ms from the completion timestamp, so
  // the hot path pays exactly one extra clock read here).
  q.ran = true;
  resp.trace.queue_wait_ms = MsSince(q.batch->t0);
  // Token check at pickup: a request cancelled or expired while queued is
  // answered without evaluating (or rebinding) anything.
  if (AnswerIfTripped(q)) return;
  Worker& w = *workers_[worker_id];
  if (live_ != nullptr && w.bound_epoch != qdb->epoch()) {
    // Epoch bump: re-point this worker's views at the batch's snapshot.
    // Compiled machines, the rex cache and the pool of tuple terms survive
    // (unary terms are the epoch's own SymbolIds, which extend the same
    // id space), so this is O(#relations), not a per-query rebuild.
    if (Status s = w.engine.BindSnapshot(*qdb); !s.ok()) {
      resp.status = s;
      return;
    }
    w.bound_epoch = qdb->epoch();
  }
  Literal lit;
  bool empty_ok = false;
  if (Status s = BuildLiteral(*qdb, q.request, &lit, &empty_ok); !s.ok()) {
    resp.status = s;
    return;
  }
  resp.trace.pred = lit.predicate;
  for (const Term& arg : lit.args) {  // the first bound argument, if any
    if (arg.IsConst()) {
      resp.trace.source = arg.symbol;
      break;
    }
  }
  if (empty_ok) return;  // unknown constant: empty answer set
  // Thread the token and the streaming sink into the engine: the traversal
  // polls the token at decimated cancellation points (unwinding with a
  // partial answer set when it trips) and flushes newly derived answer
  // chunks to the sink at those same points.
  EvalOptions options = q.request.options.ToEvalOptions();
  options.cancel = &q.token;
  CountingSink counting(q.request.sink, &q.token);
  if (q.request.sink != nullptr) options.sink = &counting;
  auto r = w.engine.Query(lit, options);
  resp.trace.chunks = counting.chunks;
  if (!r.ok()) {
    resp.status = r.status();
    return;
  }
  resp.tuples = std::move(r.value().tuples);
  resp.stats = std::move(r.value().stats);
  resp.fetches = r.value().fetches;
  if (resp.stats.cancelled) {
    // Mid-flight unwind. The tuples gathered so far are true answers, just
    // possibly not all of them; the marker keeps anyone from mistaking the
    // prefix for the complete set. Cancellation wins the tie over the
    // deadline: an explicit Cancel() is the stronger, caller-driven signal.
    resp.partial = true;
    if (q.token.cancelled()) {
      resp.cancelled = true;
      resp.status =
          Status::Cancelled("request cancelled mid-flight; partial answers");
    } else {
      resp.timed_out = true;
      resp.status = Status::DeadlineExceeded(
          "request deadline expired mid-flight; partial answers");
    }
  }
}

std::string QueryService::RequestKey(const QueryRequest& req) const {
  // Fingerprint prefix, then every request field that selects a distinct
  // answer set, '\x1f'-separated (the separator cannot occur in interned
  // spellings' role here — pred/source/target are caller strings, and a
  // '\x1f' inside one still keys deterministically, just conservatively).
  std::string key;
  key.reserve(key_prefix_.size() + req.pred.size() + req.source.size() +
              req.target.size() + 16);
  key += key_prefix_;
  key += req.pred;
  key += '\x1f';
  key += req.source;
  key += '\x1f';
  key += req.target;
  key += '\x1f';
  key += req.diagonal ? 'D' : '-';
  key += req.options.use_cyclic_bound ? 'c' : '-';
  key += req.options.disable_closure_sharing ? 'n' : '-';
  key += '\x1f';
  key += std::to_string(req.options.max_iterations);
  return key;
}

bool QueryService::TryServeFromCache(AsyncQueryState& q) {
  if (answer_cache_ == nullptr) return false;
  auto ans = answer_cache_->Lookup(q.key, *q.batch->db);
  if (ans == nullptr) return false;
  QueryResponse& r = q.response;
  r.tuples = ans->tuples;
  r.stats = ans->stats;
  r.fetches = ans->fetches;
  r.epoch = q.batch->db->epoch();
  r.trace.cache_hit = true;
  // Trace identity fields, resolved read-only (both resolve iff the
  // original evaluation resolved them — a key match implies the same
  // spellings).
  if (auto p = q.batch->db->symbols().Find(q.request.pred)) r.trace.pred = *p;
  const std::string& bound =
      q.request.source.empty() ? q.request.target : q.request.source;
  if (!bound.empty()) {
    if (auto c = q.batch->db->symbols().Find(bound)) r.trace.source = *c;
  }
  q.replayed = true;
  ReplayToSink(q);
  CompleteQuery(q);
  // Safe to read the closed span here: the hit completed on the caller
  // thread before the submission call returned, so no waiter can move the
  // response yet.
  answer_cache_->ObserveHitLatency(r.trace.total_ms);
  return true;
}

void QueryService::MaybeCacheInsert(AsyncQueryState& q) {
  if (answer_cache_ == nullptr || !q.ran || q.replayed) return;
  const QueryResponse& r = q.response;
  // Only complete, successful evaluations: partial prefixes and failures
  // are about *this* request's budget, not the answer set.
  if (!r.status.ok() || r.partial) return;
  const Database& db = *q.batch->db;
  auto pred = db.symbols().Find(q.request.pred);
  if (!pred) return;
  // Support set: the transitive base (EDB) predicates this query's
  // evaluation can read — the same single-source-of-truth dependency data
  // EvalArtifacts invalidates by. Pinning the relation handles makes the
  // later pointer comparisons ABA-safe. An unknown-constant empty answer
  // gets the same deps: it stays valid exactly while its relations do.
  std::vector<SymbolId> base =
      TransitiveBasePreds(plan_->lemma1.final_system, *pred);
  std::vector<cache::SupportDep> deps;
  deps.reserve(base.size());
  for (SymbolId p : base) {
    cache::SupportDep d;
    d.pred = p;
    d.rel = db.FindSharedById(p);
    d.dead_mutations = d.rel != nullptr ? d.rel->dead_mutations() : 0;
    deps.push_back(std::move(d));
  }
  auto ans = std::make_shared<cache::CachedAnswer>();
  ans->tuples = r.tuples;
  ans->stats = r.stats;
  ans->fetches = r.fetches;
  ans->result_hash = cache::AnswerCache::HashTuples(r.tuples);
  answer_cache_->Insert(q.key, std::move(deps), std::move(ans),
                        db.epoch());
}

QueryService::JoinOutcome QueryService::Join(
    const std::shared_ptr<AsyncQueryState>& state, bool may_shed) {
  AsyncQueryState& q = *state;
  const uint64_t epoch = q.batch->db->epoch();
  std::lock_guard<std::mutex> lock(flights_->mu);
  auto it = flights_->flights.find(q.key);
  if (it != flights_->flights.end()) {
    FlightTable::Flight& f = it->second;
    // The join rules. Breaking either leaves the request standalone: it
    // evaluates on its own and nobody waits on it.
    //  - Another epoch's answer would be wrong for this one.
    //  - A waiter is answered only when its leader finishes, so a leader
    //    allowed to run past this request's deadline could make it late.
    if (f.epoch == epoch && f.deadline <= q.token.deadline()) {
      f.waiters.push_back(state);
      if (obs_->enabled) obs_->collapsed->Inc();
      return JoinOutcome::kWaiter;
    }
  }
  // The request would evaluate. Shed it now or never: once it leads a
  // flight, waiters may park on it, and they are answered only when it
  // runs.
  if (may_shed && pending_.load(std::memory_order_relaxed) >= queue_depth_) {
    return JoinOutcome::kShed;
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (obs_->enabled) obs_->queue_depth->Add(1);
  if (it != flights_->flights.end()) return JoinOutcome::kEvaluate;
  if (flights_->spare.empty()) {
    it = flights_->flights.try_emplace(q.key).first;
  } else {
    FlightTable::Map::node_type node = std::move(flights_->spare.back());
    flights_->spare.pop_back();
    node.key() = q.key;
    it = flights_->flights.insert(std::move(node)).position;
  }
  it->second.epoch = epoch;
  it->second.deadline = q.token.deadline();
  q.flight_leader = true;
  return JoinOutcome::kEvaluate;
}

std::vector<std::shared_ptr<AsyncQueryState>> QueryService::EndFlight(
    AsyncQueryState& q) {
  if (!q.flight_leader) return {};
  q.flight_leader = false;
  std::lock_guard<std::mutex> lock(flights_->mu);
  FlightTable::Map::node_type node = flights_->flights.extract(q.key);
  BINCHAIN_CHECK(!node.empty());
  std::vector<std::shared_ptr<AsyncQueryState>> waiters =
      std::move(node.mapped().waiters);
  if (flights_->spare.size() < FlightTable::kMaxSpare) {
    flights_->spare.push_back(std::move(node));
  }
  return waiters;
}

void QueryService::FinishEval(size_t worker_id, AsyncQueryState& q) {
  // Insert before the flight ends, so a request arriving after it hits the
  // cache instead of leading a redundant evaluation.
  MaybeCacheInsert(q);
  // A failed leader's failure is its own (its deadline, its cancel): the
  // first waiter that completes OK is evaluated for real, inline here, and
  // becomes the source the rest replay — one re-evaluation, however many
  // waiters there are. It completes last, after everyone read its answer.
  const AsyncQueryState* source = q.response.status.ok() ? &q : nullptr;
  std::shared_ptr<AsyncQueryState> reevaluated;
  for (std::shared_ptr<AsyncQueryState>& w : EndFlight(q)) {
    if (source != nullptr) {
      Replay(*source, *w);
    } else {
      RunOne(worker_id, *w);
      MaybeCacheInsert(*w);
      if (w->response.status.ok()) {
        source = w.get();
        reevaluated = std::move(w);
        continue;
      }
    }
    CompleteQuery(*w);
  }
  if (reevaluated != nullptr) CompleteQuery(*reevaluated);
}

void QueryService::Serve(size_t worker_id, AsyncQueryState& q) {
  RunOne(worker_id, q);
  FinishEval(worker_id, q);
  CompleteQuery(q);
}

void QueryService::Dispatch(
    const std::shared_ptr<BatchShared>& batch,
    std::vector<std::shared_ptr<AsyncQueryState>> leaders) {
  if (leaders.empty()) return;
  // Claim-cursor runners instead of one queued closure per leader: per-
  // query heap and queue traffic stays off the hot path, and a worker
  // stuck on a heavy leader simply claims fewer.
  auto claimable =
      std::make_shared<const std::vector<std::shared_ptr<AsyncQueryState>>>(
          std::move(leaders));
  const size_t runners = std::min(workers_.size(), claimable->size());
  for (size_t r = 0; r < runners; ++r) {
    pool_->Submit([this, batch, claimable](size_t worker_id) {
      for (size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
           i < claimable->size();
           i = batch->next.fetch_add(1, std::memory_order_relaxed)) {
        pending_.fetch_sub(1, std::memory_order_relaxed);
        if (obs_->enabled) obs_->queue_depth->Add(-1);
        Serve(worker_id, *(*claimable)[i]);
      }
    });
  }
}

void QueryService::CompleteQuery(AsyncQueryState& q) {
  BatchShared& b = *q.batch;
  bool notify = false;
  /// Copy of the closed span for the slow-query log, taken under the lock
  /// (once a waiter is notified it may move the response out) but written
  /// after it — the sink does file I/O, which must never extend the
  /// completion critical section.
  obs::QueryTrace slow_copy;
  bool log_slow = false;
  {
    std::lock_guard<std::mutex> lock(b.mu);
    q.done = true;
    QueryResponse& r = q.response;
    // Close the span. Every query gets a complete one — a request shed at
    // admission or cancelled while queued never ran, so its whole lifetime
    // was queue wait and eval_ms stays 0.
    obs::QueryTrace& t = r.trace;
    t.start_us = b.start_us;
    t.total_ms = MsSince(b.t0);
    if (q.ran) {
      t.eval_ms = std::max(0.0, t.total_ms - t.queue_wait_ms);
    } else {
      t.queue_wait_ms = t.total_ms;
    }
    t.iterations = r.stats.iterations;
    t.expansions = r.stats.expansions;
    t.fetches = r.fetches;
    t.memo_hits = r.stats.memo_hits;
    t.cancel_checks = r.stats.cancel_checks;
    t.answers = r.tuples.size();
    t.epoch = r.epoch;
    t.timed_out = r.timed_out;
    t.cancelled = r.cancelled;
    t.shed = r.status.code() == StatusCode::kOverloaded;
    // Record while still holding b.mu, *before* the remaining-decrement
    // below can unblock a waiter: anyone who observes the query complete
    // (EvalBatch returning, Take() succeeding) is then guaranteed to see
    // its metrics in the registry and its span in the recorder. ~15
    // relaxed increments plus one recorder mutex, once per query — the
    // same order of work as the batch bookkeeping this lock already
    // covers.
    if (ServiceObs* o = b.obs) {
      o->queries->Inc();
      if (!r.status.ok()) o->failed->Inc();
      if (t.shed) o->shed->Inc();
      if (t.timed_out) o->timed_out->Inc();
      if (t.cancelled) o->cancelled->Inc();
      o->answers->Inc(t.answers);
      o->latency_ms->Observe(t.total_ms);
      o->queue_wait_ms->Observe(t.queue_wait_ms);
      // Replayed responses (cache hits, single-flight waiters) carry the
      // original evaluation's effort counters so batch totals stay
      // byte-identical — but that work already hit the engine_* family
      // when it actually ran; folding it again would double-count.
      if (!q.replayed) {
        o->engine_iterations->Inc(t.iterations);
        o->engine_nodes->Inc(r.stats.nodes);
        o->engine_expansions->Inc(t.expansions);
        o->engine_fetches->Inc(t.fetches);
        o->engine_memo_hits->Inc(t.memo_hits);
        o->engine_cancel_checks->Inc(t.cancel_checks);
      }
      o->recorder.Record(t);
      if (o->slow_log.enabled()) {
        slow_copy = t;
        log_slow = true;
      }
    }
    BatchStats& s = b.stats;
    if (!r.status.ok()) {
      ++s.failed;
      if (r.timed_out) ++s.timed_out;
      if (r.cancelled) ++s.cancelled;
      if (r.status.code() == StatusCode::kOverloaded) ++s.overloaded;
    } else {
      s.tuples += r.tuples.size();
      s.fetches += r.fetches;
      s.total.nodes += r.stats.nodes;
      s.total.arcs += r.stats.arcs;
      s.total.iterations += r.stats.iterations;
      s.total.expansions += r.stats.expansions;
      s.total.continuations += r.stats.continuations;
      s.total.em_states += r.stats.em_states;
      s.total.fetches += r.stats.fetches;
      s.total.wide_mask_scans += r.stats.wide_mask_scans;
      s.total.memo_hits += r.stats.memo_hits;
      s.total.cancel_checks += r.stats.cancel_checks;
      s.total.hit_iteration_cap |= r.stats.hit_iteration_cap;
      s.total.answers_per_iteration.Add(r.stats.answers_per_iteration);
    }
    const bool last = --b.remaining == 0;
    if (last) s.wall_ms = MsSince(b.t0);
    // Read `awaited` under the lock that waiting futures write it under.
    // A query nobody awaits leaves the wakeup to the batch's last one.
    notify = last || q.awaited;
  }
  if (notify) b.cv.notify_all();
  // Outside the lock: the sink applies its own threshold/sampling and
  // appends one JSONL line.
  if (log_slow) b.obs->slow_log.MaybeRecord(slow_copy);
}

std::shared_ptr<BatchShared> QueryService::MakeBatchShared(size_t queries) {
  auto shared = std::make_shared<BatchShared>();
  shared->start_us = obs::SteadyNowUs();
  shared->t0 = std::chrono::steady_clock::now();
  shared->obs = obs_->enabled ? obs_.get() : nullptr;
  shared->remaining = queries;
  shared->stats.queries = queries;
  // One epoch per batch, acquired once at submission: every query of the
  // batch sees the same snapshot even if Publish() swaps the tip while the
  // batch drains. The shared state pins the epoch until the last response
  // lands.
  const Database* qdb = db_;
  if (init_status_.ok() && live_ != nullptr) {
    shared->epoch_handle = live_->Acquire();
    qdb = shared->epoch_handle.get();
  }
  shared->db = qdb;
  shared->stats.epoch = qdb->epoch();
  return shared;
}

std::vector<std::shared_ptr<AsyncQueryState>> QueryService::Admit(
    const std::vector<std::shared_ptr<AsyncQueryState>>& states,
    bool may_shed) {
  std::vector<std::shared_ptr<AsyncQueryState>> leaders;
  leaders.reserve(states.size());
  const Status admit = AdmissionStatus();
  for (const std::shared_ptr<AsyncQueryState>& state : states) {
    AsyncQueryState& q = *state;
    q.response.trace.query_id =
        obs_->next_query_id.fetch_add(1, std::memory_order_relaxed);
    // The deadline clock starts at submission: time spent queued (or
    // parked on a flight) counts against the request's budget, so queue
    // delay cannot launder an expired request into a fresh one.
    if (q.request.options.deadline_ms > 0) {
      q.token.SetDeadlineAfter(q.request.options.deadline_ms);
    }
    if (!admit.ok()) {
      // Admission precedes every cache and flight path: a recovering
      // service answers kUnavailable even for answers it has cached.
      q.response.status = admit;
    } else {
      q.key = RequestKey(q.request);
      // Cache fast path: a hit completes on this thread, right here — no
      // queue traffic, no worker handoff.
      if (TryServeFromCache(q)) continue;
      switch (Join(state, may_shed)) {
        case JoinOutcome::kWaiter:
          continue;
        case JoinOutcome::kEvaluate:
          leaders.push_back(state);
          continue;
        case JoinOutcome::kShed:
          // An honest kOverloaded now beats an unbounded queue that
          // deadlines everything later.
          q.response.status =
              Status::Overloaded("admission queue at high-water mark (" +
                                 std::to_string(queue_depth_) + " pending)");
          break;
      }
    }
    q.response.epoch = q.batch->db->epoch();
    CompleteQuery(q);
  }
  return leaders;
}

BatchHandle QueryService::SubmitShared(std::vector<QueryRequest> batch,
                                       bool may_shed) {
  BatchHandle handle;
  auto shared = MakeBatchShared(batch.size());
  handle.shared_ = shared;
  // One allocation for the whole batch, handed around as aliasing
  // shared_ptrs (a flight may park any of them as a waiter).
  const size_t n = batch.size();
  std::shared_ptr<AsyncQueryState[]> array(new AsyncQueryState[n]);
  std::vector<std::shared_ptr<AsyncQueryState>> states;
  states.reserve(n);
  handle.futures_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    array[i].batch = shared;
    array[i].request = std::move(batch[i]);
    states.emplace_back(array, &array[i]);
    handle.futures_.push_back(QueryFuture(states.back()));
  }
  Dispatch(shared, Admit(states, may_shed));
  return handle;
}

QueryFuture QueryService::Submit(QueryRequest request) {
  std::vector<QueryRequest> one;
  one.push_back(std::move(request));
  BatchHandle handle = SubmitShared(std::move(one), /*may_shed=*/true);
  // Moving the future out disarms the handle's drop-cancellation; the
  // batch state stays alive behind the future.
  return std::move(handle.futures_[0]);
}

BatchHandle QueryService::SubmitBatch(std::vector<QueryRequest> batch) {
  return SubmitShared(std::move(batch), /*may_shed=*/true);
}

QueryResponse QueryService::Eval(const QueryRequest& request) {
  // A copy, not a move: the moved-out tuple buffer was allocated on a
  // worker, and a caller keeping many responses then pins worker memory
  // (measured: several MiB of peak RSS on the same warm pass).
  return EvalBatch({request})[0];
}

std::vector<QueryResponse> QueryService::EvalBatch(
    const std::vector<QueryRequest>& batch, BatchStats* stats) {
  return SubmitShared(batch, /*may_shed=*/false).Take(stats);
}

}  // namespace binchain
