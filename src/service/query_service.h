// Concurrent query service: async submission over a frozen database
// snapshot. The paper's engine answers one p(a, Y) query at a time; this
// layer turns it into a reusable service in the sense of the QSQ-style
// evaluator frameworks — it owns a fixed thread pool, one evaluation
// context per worker (QueryEngine with its own term pool, view registry
// and reset-and-reuse scratch), and the freeze step that makes the shared
// storage safe to read concurrently. The program-derived artifacts — the
// Lemma 1 equation system, the inverted system, and every compiled machine
// M(e_p) — are built once and shared read-only by all workers, so startup
// cost no longer scales with the thread count.
//
// Submission is future-based: Submit() enqueues one query and returns a
// QueryFuture; SubmitBatch() enqueues a whole batch and returns a
// BatchHandle with per-query futures, whose Take() reports the batch
// aggregates. The blocking Eval/EvalBatch calls are the same submission,
// taken at once.
//
// Every submission path runs one front half on the caller's thread, for
// the whole batch before any worker sees it: the admission gate, the
// request key, the answer-cache lookup, and the single-flight join. An
// identical request already in flight on the same epoch is joined instead
// of evaluated (the QSQ rule that each distinct subquery is answered once
// and shared), so duplicates collapse exactly, inside one batch and
// across batches, with or without the cache. Admission control is decided
// there too, before a flight exists: the service counts the requests
// admitted for evaluation but not yet claimed by a worker, and past
// QueryServiceOptions::queue_depth an async request that would evaluate is
// answered immediately with StatusCode::kOverloaded instead of queueing
// without bound. Blocking calls never shed, so batch clients keep their
// all-queries-answered contract. Only flight leaders (and the few requests
// the join rules leave standalone) are dispatched, all one way: at most one
// claim-cursor runner task per worker, each claiming the batch's leaders
// from a shared cursor, so a batch pays no per-query queue traffic.
//
// Every request carries a CancelToken for its whole lifetime: a deadline
// armed at submission, and a flag flipped by QueryFuture::Cancel(), by
// dropping the future unconsumed, or by the request's streaming sink
// refusing a chunk (its consumer is gone). A queued request whose token
// trips is answered without evaluating; an in-flight one unwinds at the
// engine's next cancellation point with kDeadlineExceeded/kCancelled and
// whatever partial answer set the traversal had gathered
// (QueryResponse::partial).
//
// Construction performs every mutating step up front, on the calling
// thread: program facts are loaded, the shared plan transforms the program
// and compiles all machines (interning whatever symbols that needs), the
// database is frozen, and the epoch's EvalArtifacts set — snapshot-owned
// adjacency memos, closure and candidate-source caches — is built and
// attached to it. From then on workers only read shared state (plan +
// artifacts); everything they write — term pools, engine scratch, the
// thread-local counters — is worker-private or fill-once-with-publication,
// so batches scale with cores and results are byte-identical to sequential
// evaluation.
//
// Live mode: constructed over a SnapshotManager instead of a bare
// database, the service serves a *sequence* of epochs. Every batch
// acquires the current epoch handle once at submission, so all its queries
// see one consistent snapshot even while Publish() swaps the tip mid-batch;
// workers re-point their views at a submission's epoch on first use after
// an epoch bump (cheap — nothing program-derived is rebuilt).
#ifndef BINCHAIN_SERVICE_QUERY_SERVICE_H_
#define BINCHAIN_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "eval/engine.h"
#include "eval/query.h"
#include "obs/trace.h"
#include "service/thread_pool.h"
#include "storage/database.h"
#include "util/cancel_token.h"
#include "util/status.h"

namespace binchain {

class SnapshotManager;
namespace cache {
class AnswerCache;
}  // namespace cache
namespace durability {
class RecoveryManager;
class Wal;
struct WalOptions;
}  // namespace durability

/// Evaluation knobs of one query — the single option surface every entry
/// path shares: the wire JSON's "options" object, the CLI's flags, and
/// in-process callers all construct this one type (there used to be three
/// overlapping shapes: a service-level deadline field, an embedded
/// engine-level EvalOptions, and ad-hoc per-caller plumbing). Plain
/// aggregate initialization works; the chained setters exist so call
/// sites can build a request as one expression.
struct QueryOptions {
  /// Evaluation budget in milliseconds, measured from submission. Enforced
  /// twice: a request whose deadline has already passed when a worker picks
  /// it up is answered without evaluating, and an in-flight traversal whose
  /// deadline passes unwinds at the engine's next cancellation point with a
  /// partial answer set. Either way the response carries kDeadlineExceeded
  /// and timed_out. <= 0 disables the deadline.
  double deadline_ms = 0;
  /// Hard cap on fixpoint iterations; 0 = none (see EvalOptions).
  size_t max_iterations = 0;
  /// Compute the |D1| * |D2| cyclic termination bound (Figure 8 data).
  bool use_cyclic_bound = false;
  /// Force per-source evaluation for all-free queries (the ablation).
  bool disable_closure_sharing = false;

  QueryOptions& set_deadline_ms(double v) {
    deadline_ms = v;
    return *this;
  }
  QueryOptions& set_max_iterations(size_t v) {
    max_iterations = v;
    return *this;
  }
  QueryOptions& set_use_cyclic_bound(bool v) {
    use_cyclic_bound = v;
    return *this;
  }
  QueryOptions& set_disable_closure_sharing(bool v) {
    disable_closure_sharing = v;
    return *this;
  }

  /// Projection onto the engine-level knobs. The deadline stays at the
  /// service layer (it becomes the request token's deadline); the sink is
  /// threaded separately (the service wraps it to count chunks).
  EvalOptions ToEvalOptions() const {
    EvalOptions o;
    o.max_iterations = max_iterations;
    o.use_cyclic_bound = use_cyclic_bound;
    o.disable_closure_sharing = disable_closure_sharing;
    return o;
  }
};

/// One query, by name: `pred(source, target)` with an empty string standing
/// for a free variable. All binding patterns of Section 3 are reachable:
/// {pred, "a", ""} is p(a, Y); {pred, "", "b"} is p(X, b) (inverted
/// system); {pred, "a", "b"} is the membership test; {pred, "", ""} is the
/// all-pairs query, or the diagonal p(X, X) when `diagonal` is set.
///
/// The canonical request type: the data plane's JSON body, the CLI, and
/// in-process callers all decode/construct exactly this struct.
struct QueryRequest {
  std::string pred;
  std::string source;  // empty => first argument free
  std::string target;  // empty => second argument free
  /// Both arguments are the same free variable (p(X, X)). Requires empty
  /// source and target.
  bool diagonal = false;
  QueryOptions options;
  /// Streaming: when set, newly derived answer chunks are delivered to
  /// this sink *while the evaluation runs* (on the worker thread), shaped
  /// per the binding pattern; QueryResponse::tuples still carries the
  /// complete sorted set at the end. Replayed answers (cache hits,
  /// single-flight waiters) arrive as one chunk. A sink that refuses a
  /// chunk cancels the request (kCancelled, partial) and gets no more.
  /// Borrowed: must stay alive until the response is observable (the
  /// future completed / the blocking call returned). Never part of the
  /// request's cache identity.
  AnswerSink* sink = nullptr;

  QueryRequest& set_pred(std::string v) {
    pred = std::move(v);
    return *this;
  }
  QueryRequest& set_source(std::string v) {
    source = std::move(v);
    return *this;
  }
  QueryRequest& set_target(std::string v) {
    target = std::move(v);
    return *this;
  }
  QueryRequest& set_diagonal(bool v) {
    diagonal = v;
    return *this;
  }
  QueryRequest& set_options(QueryOptions v) {
    options = v;
    return *this;
  }
  QueryRequest& set_sink(AnswerSink* v) {
    sink = v;
    return *this;
  }
};

struct QueryResponse {
  Status status = Status::Ok();
  std::vector<Tuple> tuples;  // sorted, deduplicated SymbolId pairs
  EvalStats stats;
  uint64_t fetches = 0;  // EDB retrievals, counted on the worker thread
  /// Epoch id of the snapshot this query evaluated against (0 unless the
  /// service runs in live mode and epochs have advanced).
  uint64_t epoch = 0;
  /// The request's deadline expired — before evaluation started (tuples
  /// empty, no work done) or mid-flight (see `partial`). status carries
  /// kDeadlineExceeded.
  bool timed_out = false;
  /// The request was cancelled through its future (Cancel() or drop) or
  /// by its sink refusing a chunk; status carries kCancelled.
  bool cancelled = false;
  /// The traversal was unwound mid-flight: `tuples` is a valid but possibly
  /// incomplete prefix of the answer set (every tuple reported is a true
  /// answer). Only ever set together with timed_out or cancelled.
  bool partial = false;
  /// The query's completed trace span: queue wait vs eval wall time, the
  /// evaluator's effort counters, the epoch, and the terminal disposition.
  /// Filled for every response, including queries shed at admission or
  /// cancelled while queued (those have eval_ms == 0).
  obs::QueryTrace trace;
};

/// Order-independent aggregates over one batch: every field is a sum (or
/// OR) of per-query values, so the totals are identical for any thread
/// count and any scheduling. Result sets are always schedule-independent.
/// Fetch counts are too, now for a stronger reason: probes over the
/// epoch-shared artifacts (adjacency memos, closure caches) cost zero
/// fetches for *every* worker — the artifact builds themselves are
/// accounted at the artifact layer, never against whichever query happened
/// to trigger them. The exception remains demand-join views, whose body
/// enumerations do fetch: the worker that fills a shared demand entry pays
/// its fetches, later probes are free, so per-query fetch counts for
/// non-chain programs depend on scheduling (totals still converge).
/// EvalStats::memo_hits totals are deterministic up to the handful of
/// fill-once cells (closure / source caches): the filling query reports
/// one fewer hit than a replaying one. Failed queries (cancelled, timed
/// out, shed) contribute to their counters but never to the work totals —
/// cancellation timing is inherently nondeterministic.
struct BatchStats {
  uint64_t queries = 0;
  uint64_t failed = 0;   // responses with !status.ok(), timeouts included
  uint64_t timed_out = 0;  // of failed: deadline expired (before or mid-flight)
  uint64_t cancelled = 0;  // of failed: future cancelled or dropped
  uint64_t overloaded = 0;  // of failed: shed at admission (queue_depth)
  uint64_t tuples = 0;   // answers over all successful queries
  uint64_t fetches = 0;
  uint64_t epoch = 0;    // snapshot the whole batch evaluated against
  /// Scalar fields summed; answers_per_iteration is the *elementwise* sum
  /// over the batch's successful queries (AnswerCurve::Add: entry i =
  /// answers known after iteration i, totalled across queries, a query
  /// that converged earlier continuing flat at its final count), so its
  /// last entry matches `tuples` and the growth curve stays
  /// schedule-independent. Like each query's curve it is stored as steps:
  /// its size follows the distinct totals, not the longest query.
  EvalStats total;
  double wall_ms = 0;    // batch wall time (submission to last completion)
};

/// Service configuration (namespace-scope so it can appear in default
/// arguments of QueryService members).
struct QueryServiceOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  size_t num_threads = 0;
  /// High-water mark of pending work: requests admitted for evaluation but
  /// not yet claimed by a worker (flight leaders and standalone requests;
  /// cache hits and flight waiters never count). An async request that
  /// would evaluate past it is shed with kOverloaded. Blocking calls never
  /// shed, but their pending requests count toward the mark.
  size_t queue_depth = 1024;
  /// Slow-query flight recorder: spans of the last `flight_recorder_capacity`
  /// queries whose total latency reached `flight_recorder_min_ms` are
  /// retained for post-hoc inspection (see QueryService::flight_recorder).
  /// The default threshold of 0 retains every query's span.
  size_t flight_recorder_capacity = obs::kSpanRingCapacity;
  double flight_recorder_min_ms = 0;
  /// When false, completed queries skip the registry counters/histograms,
  /// the queue-depth gauge, and the flight recorder (response traces are
  /// still filled). The off position exists for the before/after overhead
  /// column in bench_service; production keeps it on.
  bool record_metrics = true;
  /// Structured slow-query log: when non-empty, completed queries whose
  /// total latency reaches `slow_query_log_min_ms` are appended to this
  /// file as JSONL (one `{"unix_ms": ..., "trace": {...}}` object per
  /// line), downsampled to every `slow_query_log_sample`-th qualifying
  /// span (1 = log them all). The write happens off the completion lock,
  /// after the response is already observable. An unwritable path fails
  /// construction (check status()).
  ///
  /// New options append here: callers aggregate-initialize this struct.
  std::string slow_query_log_path;
  double slow_query_log_min_ms = 0;
  uint64_t slow_query_log_sample = 1;
  /// Answer-cache byte budget; 0 (the default) retains no answers. When
  /// set, exact-match repeats are served on the caller thread (bypassing
  /// the submission queue), and publishes invalidate only the entries
  /// whose supporting relations changed (see cache::AnswerCache).
  /// Concurrent identical requests collapse onto one evaluation either
  /// way: single-flight is always on.
  size_t answer_cache_bytes = 0;
};

class QueryService;
struct AsyncQueryState;  // one submitted query (opaque; query_service.cc)
struct BatchShared;      // per-batch aggregates + completion (opaque)
struct ServiceObs;       // cached registry instruments (opaque)
struct FlightTable;      // in-flight evaluations by request key (opaque)

/// Handle to one submitted query. Move-only; the result must be claimed
/// with Take() (or the future dropped, which *cancels* the query — an
/// abandoned result is demand nobody wants, so the engine stops paying for
/// it). Safe to wait from any thread; Cancel() is safe from any thread at
/// any time.
class QueryFuture {
 public:
  QueryFuture() = default;
  QueryFuture(QueryFuture&&) noexcept;
  QueryFuture(const QueryFuture&) = delete;
  QueryFuture& operator=(const QueryFuture&) = delete;
  /// Dropping an unconsumed future cancels the query (cooperatively: a
  /// queued query is answered kCancelled without evaluating, an in-flight
  /// one unwinds at its next cancellation point; the response is discarded
  /// when it lands).
  ~QueryFuture();

  bool valid() const { return state_ != nullptr; }
  /// True once the response is ready (never blocks).
  bool Ready() const;
  /// Blocks until the response is ready.
  void Wait() const;
  /// Requests cooperative cancellation; the future still completes (with
  /// kCancelled, or normally if evaluation already passed its last
  /// cancellation point).
  void Cancel();
  /// Blocks until ready and moves the response out; the future becomes
  /// invalid.
  QueryResponse Take();

 private:
  friend class QueryService;
  explicit QueryFuture(std::shared_ptr<AsyncQueryState> state);
  std::shared_ptr<AsyncQueryState> state_;
};

/// Handle to a submitted batch: per-query futures plus batch-level wait /
/// take / cancel. Move-only; dropping the handle cancels every query whose
/// future was neither taken out nor individually consumed.
class BatchHandle {
 public:
  BatchHandle() = default;
  BatchHandle(BatchHandle&&) noexcept;
  BatchHandle& operator=(BatchHandle&&) noexcept;
  BatchHandle(const BatchHandle&) = delete;
  BatchHandle& operator=(const BatchHandle&) = delete;
  ~BatchHandle();

  size_t size() const { return futures_.size(); }
  /// Per-query future, indexed like the submitted batch. May be moved out
  /// for individual waiting; Take() then reports a default (moved-from)
  /// response at that index. The batch's states are one allocation, so a
  /// moved-out future keeps all of them alive until it is dropped.
  QueryFuture& future(size_t i) { return futures_[i]; }

  /// Blocks until every query of the batch completed.
  void Wait() const;
  /// Requests cooperative cancellation of every query in the batch.
  void Cancel();
  /// Blocks until completion and moves all responses out (indexed like the
  /// submitted batch); optionally reports the batch aggregates. The handle
  /// becomes empty.
  std::vector<QueryResponse> Take(BatchStats* stats = nullptr);

 private:
  friend class QueryService;
  std::shared_ptr<BatchShared> shared_;
  std::vector<QueryFuture> futures_;
};

class QueryService {
 public:
  using Options = QueryServiceOptions;

  /// Loads `program` (rules and facts) against `db`, builds the shared
  /// plan plus one evaluation context per worker, then freezes the
  /// database. Check status() before issuing queries. If `db` is already
  /// frozen, the program must carry no facts and must intern no new
  /// symbols (i.e. an identical program was prepared against the database
  /// before it froze).
  QueryService(Database* db, const Program& program, Options options = {});

  /// Live mode: same preparation against `live`'s genesis database, then
  /// seals the manager (the genesis becomes the first served epoch).
  /// Queries always evaluate against the manager's current tip; publishes
  /// may run concurrently with batches. `live` must outlive the service
  /// and must not be sealed yet.
  QueryService(SnapshotManager* live, const Program& program,
               Options options = {});

  /// Durable live mode with crash recovery: `live` must be constructed
  /// over `recovery`'s BuildGenesis() and still unsealed. The constructor
  /// prepares and seals exactly like live mode, but the serving gate stays
  /// *closed*: every submission is answered kUnavailable until
  /// FinishRecovery() has replayed the committed WAL batches — readers
  /// must never observe an epoch older than the pre-crash tip. `recovery`
  /// is borrowed and must stay alive until FinishRecovery returns.
  QueryService(SnapshotManager* live, durability::RecoveryManager* recovery,
               const Program& program, Options options = {});

  /// Replays the recovered batches through the manager's publish pipeline,
  /// opens the WAL (owned by the service from here on), attaches it as the
  /// manager's durability sink, and opens the serving gate. Call once,
  /// from the startup thread, after the recovery constructor succeeded; on
  /// failure the gate stays closed and the status is also what every
  /// submission reports.
  Status FinishRecovery(const durability::WalOptions& wal_options);
  Status FinishRecovery();

  /// Drains the submission queue (cancelled work unwinds promptly) and
  /// joins the workers. Outstanding futures complete before destruction
  /// returns.
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Construction outcome; queries on a failed service return this status.
  const Status& status() const { return init_status_; }

  size_t num_threads() const;
  /// Requests admitted for evaluation but not yet claimed by a worker, on
  /// every submission path (the count queue_depth bounds). Advisory —
  /// another thread may change it immediately — but once a submitter sees
  /// 0 after its own submissions, all of them have been claimed.
  size_t pending() const;
  /// The database the service was prepared against (the genesis epoch in
  /// live mode — later epochs are reached through the manager).
  const Database& database() const { return *db_; }
  /// Spans of recent queries whose latency reached the configured
  /// flight-recorder threshold (oldest first via Snapshot()).
  const obs::FlightRecorder& flight_recorder() const;

  /// Whether the service currently accepts queries: construction
  /// succeeded and the recovery gate (if any) has opened. This is the
  /// /readyz predicate on the admin plane — liveness without readiness is
  /// exactly the window between the recovery constructor and
  /// FinishRecovery().
  bool serving() const {
    return init_status_.ok() && serving_.load(std::memory_order_acquire);
  }

  /// The WAL this service owns in durable live mode (nullptr otherwise or
  /// before FinishRecovery()). Read-only peek for the admin plane's
  /// /debug/epochs; the manager keeps driving writes through its sink.
  const durability::Wal* wal() const { return wal_.get(); }

  /// The answer cache, or nullptr when Options::answer_cache_bytes was 0.
  /// Thread-safe (internally sharded); exposed for /debug/cache, the CLI's
  /// `cache` command, and tests.
  cache::AnswerCache* answer_cache() const { return answer_cache_.get(); }

  /// Async submission: enqueues the request and returns immediately. If
  /// it would evaluate while pending() is at queue_depth, the future is
  /// already completed with kOverloaded (admission control; joining an
  /// identical in-flight request is never refused); a failed service
  /// completes it with status(). The request's deadline starts now.
  QueryFuture Submit(QueryRequest request);

  /// Async batch submission: every request is enqueued (admission applies
  /// per query — shed queries complete immediately with kOverloaded while
  /// the rest proceed), all against one epoch acquired now.
  BatchHandle SubmitBatch(std::vector<QueryRequest> batch);

  /// Evaluates one query, blocking until the response; never shed.
  QueryResponse Eval(const QueryRequest& request);

  /// Evaluates a batch, blocking; the response vector is indexed like
  /// `batch`. The same submission as SubmitBatch, taken at once, except
  /// that it never sheds: its pending requests count toward queue_depth
  /// but are never refused by it. Safe to call from multiple client
  /// threads — batches queue FIFO.
  std::vector<QueryResponse> EvalBatch(const std::vector<QueryRequest>& batch,
                                       BatchStats* stats = nullptr);

 private:
  struct Worker;

  /// Shared construction tail: plan + workers. Returns false on failure
  /// (init_status_ is set).
  bool Init(const Program& program, const Options& options);

  /// Post-freeze tail: ensures the (frozen) snapshot carries an
  /// EvalArtifacts set — adopting one already attached (a second service
  /// over the same frozen database and, per the constructor contract, the
  /// same program), building and attaching otherwise — then rebinds every
  /// worker to it.
  void AdoptSnapshot(Database* db);

  /// Resolves a request to a query literal without interning: unknown
  /// predicates fail, unknown constants report "no answers" through
  /// `empty_ok`. Read-only, callable from workers; resolves against the
  /// epoch the batch acquired.
  Status BuildLiteral(const Database& db, const QueryRequest& request,
                      Literal* out, bool* empty_ok) const;

  /// Per-batch shared state (completion rendezvous, aggregates, epoch
  /// pin), with the epoch acquired now.
  std::shared_ptr<BatchShared> MakeBatchShared(size_t queries);

  /// The front half every submission path shares, run on the caller
  /// thread for the whole batch before anything is dispatched: per
  /// request, the admission gate, RequestKey, the cache lookup, and the
  /// flight join with its shed decision (Join). Refused, shed and cached
  /// requests complete here, joiners park on their flight; returns the
  /// states a worker must evaluate — flight leaders and standalone
  /// requests — in batch order. Because the whole batch joins before any
  /// leader is dispatched, a leader cannot finish before its in-batch
  /// duplicates joined it. `may_shed` is false for Eval/EvalBatch.
  std::vector<std::shared_ptr<AsyncQueryState>> Admit(
      const std::vector<std::shared_ptr<AsyncQueryState>>& states,
      bool may_shed);

  /// Every submission: wraps `batch` into future states under one
  /// BatchHandle, runs the front half, and dispatches its leaders.
  BatchHandle SubmitShared(std::vector<QueryRequest> batch, bool may_shed);

  /// Join's verdict on an admitted cache miss.
  enum class JoinOutcome { kEvaluate, kWaiter, kShed };

  /// Single-flight join and admission control for an admitted cache miss,
  /// under the flight lock. An identical flight on the same epoch whose
  /// leader's deadline is no later than the joiner's (no deadline counts
  /// as latest) takes the request as a waiter. Otherwise the request
  /// would evaluate: with `may_shed` and pending() at queue_depth it is
  /// shed, before any flight exists; else it counts as pending and leads
  /// a new flight (flight_leader set), or runs standalone when a flight
  /// at its key broke a join rule.
  JoinOutcome Join(const std::shared_ptr<AsyncQueryState>& state,
                   bool may_shed);

  /// Ends the flight `q` leads and returns its parked waiters; empty when
  /// `q` leads none. FinishEval calls it exactly once per leader, or the
  /// waiters are never answered.
  std::vector<std::shared_ptr<AsyncQueryState>> EndFlight(AsyncQueryState& q);

  /// The worker half of one dispatched query: RunOne, FinishEval,
  /// CompleteQuery.
  void Serve(size_t worker_id, AsyncQueryState& q);

  /// Evaluates one claimed query on worker `worker_id`'s context, writing
  /// the response into its state.
  void RunOne(size_t worker_id, AsyncQueryState& q);
  /// Marks `q` done and folds it into the batch aggregates.
  static void CompleteQuery(AsyncQueryState& q);

  /// Canonical exact-match key of a request against the prepared program:
  /// the plan fingerprint plus every request field that selects a distinct
  /// answer set (pred, source, target, diagonal, and the QueryOptions
  /// value fields). Deadline, sink, and cancel state are deliberately
  /// excluded — they select *when* a request fails or *how* its answer is
  /// delivered, never *what* it answers. Keys both the cache and the
  /// flight table.
  std::string RequestKey(const QueryRequest& request) const;

  /// Cache fast path, called by the front half after admission passed.
  /// On a hit: fills the response from the cached answer (trace.cache_hit
  /// set), completes the query on the caller thread, and returns true —
  /// the request never touches the queue. Returns false on miss or when
  /// the cache is off.
  bool TryServeFromCache(AsyncQueryState& q);

  /// Inserts q's answer into the cache when it is cacheable: a complete,
  /// successful evaluation that actually ran here (replayed responses are
  /// the cache's own output, never re-inserted). Support set = the
  /// transitive base predicates of the queried predicate, pinned from the
  /// batch's epoch.
  void MaybeCacheInsert(AsyncQueryState& q);

  /// Post-evaluation seam, run on the worker right after RunOne (before
  /// CompleteQuery): cache insert, then end the flight and answer its
  /// waiters. An OK leader's answer is replayed to each; if the leader
  /// failed, the first waiter that completes OK is evaluated inline on
  /// this worker and the rest replay its answer.
  void FinishEval(size_t worker_id, AsyncQueryState& q);

  /// Queues at most one claim-cursor runner per worker for `batch`'s
  /// admitted `leaders`: each runner claims the next unclaimed leader
  /// (FIFO, self-balancing), counts it off pending(), and Serves it.
  void Dispatch(const std::shared_ptr<BatchShared>& batch,
                std::vector<std::shared_ptr<AsyncQueryState>> leaders);

  /// Admission gate shared by every submission path: init_status_ when
  /// construction failed, kUnavailable while the recovery gate is closed,
  /// OK otherwise.
  Status AdmissionStatus() const;

  Database* db_;
  SnapshotManager* live_ = nullptr;
  durability::RecoveryManager* recovery_ = nullptr;  // until FinishRecovery
  std::unique_ptr<durability::Wal> wal_;  // owned sink in durable live mode
  /// False between the recovery constructor and a successful
  /// FinishRecovery(): submissions are answered kUnavailable, because the
  /// tip has not caught up to the pre-crash state yet.
  std::atomic<bool> serving_{true};
  Status init_status_ = Status::Ok();
  SymbolId var_x_ = 0, var_y_ = 0;  // free-variable symbols, interned early
  bool has_free_vars_ = false;
  std::shared_ptr<const PreparedProgram> plan_;  // shared by all workers
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t queue_depth_ = 1024;  // high-water mark of pending_
  /// Requests admitted for evaluation, not yet claimed by a runner (see
  /// pending()). Incremented only under the flight lock, by Join; a
  /// runner decrements it as it claims. Declared before pool_, so it
  /// outlives the runners the pool drains at destruction.
  std::atomic<size_t> pending_{0};
  /// Cached pointers into obs::Registry::Global() plus the per-service
  /// flight recorder; batches carry a raw pointer to this. Declared before
  /// pool_ so destruction joins the workers (who record spans in
  /// CompleteQuery) before the instruments die.
  std::unique_ptr<ServiceObs> obs_;
  /// Exact-match answer cache (nullptr when disabled). shared_ptr because
  /// the snapshot manager's publish listener captures it — a publish
  /// racing service teardown sweeps a still-alive cache. Declared before
  /// pool_ so workers (who insert) join first.
  std::shared_ptr<cache::AnswerCache> answer_cache_;
  /// The single-flight table; declared before pool_ so workers (who end
  /// flights) join first.
  std::unique_ptr<FlightTable> flights_;
  /// RequestKey prefix: the plan fingerprint as 16 hex chars + separator,
  /// precomputed once in Init.
  std::string key_prefix_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace binchain

#endif  // BINCHAIN_SERVICE_QUERY_SERVICE_H_
