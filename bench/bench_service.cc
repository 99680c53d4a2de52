// Standalone query-service throughput benchmark: evaluates an all-sources
// same-generation batch (one sg(c, Y) request per constant, the
// bench_table1 samples) through QueryService at 1/2/4/8 threads, verifying
// that every thread count returns byte-identical result sets before
// reporting aggregate queries/sec. A cyclic Figure-8 batch (overlapping
// sources under the |D1|*|D2| bound) rides along as the contention-heavy
// case, and an all-free sg(X, Y) batch as the shared-artifact stress.
// `fetches` and `memo_hits` together show the epoch-shared artifact effect:
// probes served by the snapshot-owned memos cost no EDB fetches.
//
// Each batch also runs through the async future-based submission path
// (SubmitBatch + Take), best of the same `--reps`, reported as `async_qps`
// next to the blocking throughput, and a dedicated cancellation benchmark
// measures in-flight deadline-enforcement latency: how far past its
// deadline a provably long query (Figure 7 (b)) actually runs before the
// engine's cancellation points unwind it.
//
// Two answer-cache benchmarks ride along: a skewed-repeat (Zipf) stream
// evaluated one query at a time against a cache-off and a cache-on
// service (qps / p50 / hit-rate A/B with byte-identical result hashes),
// and a publish-heavy live run demonstrating selective invalidation —
// publishes touching only `down` retire exactly the pdown entries while
// every pup entry keeps hitting.
//
// The JSON snapshot carries, per benchmark, a `status` object counting
// per-query status codes and a `result_hash` over the response tuples, so
// the CI regression gate (bench/check_regression.py) can assert that
// result sets agree across thread counts and that failure modes
// (deadline_exceeded / cancelled / overloaded) appear only where expected.
//
// Usage:
//   bench_service [--n <size>] [--reps <k>] [--threads <list>] [--smoke]
//                 [--json [path]]
//
// `--json` writes BENCH_service.json (default path) so successive PRs can
// track the throughput trajectory alongside BENCH_storage.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cache/answer_cache.h"
#include "datalog/parser.h"
#include "eval/answer_sink.h"
#include "live/snapshot_manager.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace binchain;
using bench::HostJson;
using bench::JsonEscape;
using bench::MsSince;

/// Per-query status-code counts over one batch run (the regression gate
/// asserts on these).
struct StatusCounts {
  uint64_t ok = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  uint64_t overloaded = 0;
  uint64_t other = 0;
  void Count(const Status& s) {
    switch (s.code()) {
      case StatusCode::kOk: ++ok; break;
      case StatusCode::kDeadlineExceeded: ++deadline_exceeded; break;
      case StatusCode::kCancelled: ++cancelled; break;
      case StatusCode::kOverloaded: ++overloaded; break;
      default: ++other; break;
    }
  }
};

struct BenchResult {
  std::string name;
  size_t threads = 1;
  uint64_t queries = 0;
  uint64_t tuples = 0;   // sanity: must match across thread counts and PRs
  uint64_t fetches = 0;  // aggregate t-cost, deterministic per batch
  uint64_t memo_hits = 0;  // probes served by the epoch-shared artifacts
  double startup_ms = 0;  // service construction (plan + workers + freeze)
  double wall_ms = 0;    // best-of-reps batch wall time
  double qps = 0;        // queries / second at the best rep (blocking path)
  double async_qps = 0;  // same batch through SubmitBatch + futures, best rep
  // Queries that actually evaluated (neither single-flight waiters nor
  // cache hits) in the recorded blocking rep and in the recorded async
  // rep. Both paths collapse identical requests exactly, so these must
  // agree.
  uint64_t evaluated = 0;
  uint64_t async_evaluated = 0;
  double speedup = 1;    // vs the 1-thread run of the same batch
  // Per-query latency percentiles over every query of this run (all reps,
  // blocking + async), read back from the service's own
  // binchain_service_latency_ms registry histogram.
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  uint64_t result_hash = 0;  // over all response tuples; order-sensitive
  StatusCounts status;   // per-query status codes of the recorded run
  bool identical = true;  // result sets match the 1-thread reference
  bool ok = true;
  std::string error;
};

/// FNV-1a over every response's tuples (in batch order): equal across
/// thread counts and submission paths for deterministic batches, so the
/// regression gate can catch result divergence without shipping tuples.
uint64_t HashResponses(const std::vector<QueryResponse>& responses) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const QueryResponse& r : responses) {
    mix(r.status.ok() ? 1 : 2);
    mix(r.tuples.size());
    for (const Tuple& t : r.tuples) {
      for (SymbolId c : t) mix(c);
    }
  }
  return h;
}

/// Responses that ran their own evaluation: neither replayed from an
/// identical in-flight request nor served from the answer cache.
uint64_t CountEvaluated(const std::vector<QueryResponse>& responses) {
  uint64_t n = 0;
  for (const QueryResponse& r : responses) {
    if (!r.trace.collapsed && !r.trace.cache_hit) ++n;
  }
  return n;
}

/// Every constant interned in the database: the all-sources request set.
std::vector<std::string> AllConstants(const Database& db) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const std::string& name : db.relation_names()) {
    const Relation* rel = db.Find(name);
    for (TupleRef t : rel->tuples()) {
      for (SymbolId c : t) {
        if (seen.insert(db.symbols().Name(c)).second) {
          out.push_back(db.symbols().Name(c));
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct Batch {
  std::string label;
  std::unique_ptr<Database> db;
  Program program;
  std::vector<QueryRequest> requests;
};

std::unique_ptr<Batch> MakeSgBatch(const std::string& label,
                                   std::string (*build)(Database&, size_t),
                                   size_t n, const QueryOptions& options) {
  auto b = std::make_unique<Batch>();
  b->label = label;
  b->db = std::make_unique<Database>();
  build(*b->db, n);
  auto parsed = ParseProgram(workloads::SgProgramText(), b->db->symbols());
  if (!parsed.ok()) return nullptr;
  b->program = parsed.take();
  for (const std::string& c : AllConstants(*b->db)) {
    QueryRequest req;
    req.pred = "sg";
    req.source = c;
    req.options = options;
    b->requests.push_back(std::move(req));
  }
  return b;
}

/// All-pairs-style stress on the shared caches: every request is the free-
/// free sg(X, Y), so each one sweeps every candidate source. Pre-refactor,
/// every worker recomputed the candidate set and re-fetched every edge per
/// sweep; with epoch-shared artifacts the source set is computed once per
/// epoch and every probe is memo-served.
std::unique_ptr<Batch> MakeAllFreeBatch(size_t n, size_t repeats) {
  auto b = std::make_unique<Batch>();
  b->label = "allfree/n=" + std::to_string(n);
  b->db = std::make_unique<Database>();
  workloads::Fig7c(*b->db, n);
  auto parsed = ParseProgram(workloads::SgProgramText(), b->db->symbols());
  if (!parsed.ok()) return nullptr;
  b->program = parsed.take();
  for (size_t i = 0; i < repeats; ++i) {
    QueryRequest req;
    req.pred = "sg";
    b->requests.push_back(std::move(req));
  }
  return b;
}

std::unique_ptr<Batch> MakeFig8Batch(size_t m, size_t n, int overlap) {
  auto b = std::make_unique<Batch>();
  b->label = "fig8/m=" + std::to_string(m) + ",n=" + std::to_string(n);
  b->db = std::make_unique<Database>();
  workloads::Fig8(*b->db, m, n);
  auto parsed = ParseProgram(workloads::SgProgramText(), b->db->symbols());
  if (!parsed.ok()) return nullptr;
  b->program = parsed.take();
  QueryOptions options;
  options.use_cyclic_bound = true;
  // Overlapping sources: every up-cycle node, `overlap` times over, so
  // several workers traverse the same cyclic region simultaneously.
  for (int rep = 0; rep < overlap; ++rep) {
    for (size_t i = 1; i <= m; ++i) {
      QueryRequest req;
      req.pred = "sg";
      req.source = "a" + std::to_string(i);
      req.options = options;
      b->requests.push_back(std::move(req));
    }
  }
  return b;
}

/// Runs the batch at `threads` on a service over the (shared, frozen-after-
/// first-service) database; fills throughput numbers and compares result
/// sets against `reference` (the 1-thread responses) when given.
BenchResult RunBatch(Batch& batch, size_t threads, int reps,
                     const std::vector<QueryResponse>* reference,
                     std::vector<QueryResponse>* out_responses) {
  BenchResult r;
  r.name = batch.label + "/threads=" + std::to_string(threads);
  r.threads = threads;
  r.queries = batch.requests.size();

  // The registry is process-global and cumulative; zero it per run so the
  // latency histogram read back below covers exactly this run's queries.
  obs::Registry::Global().ResetForTest();

  QueryService::Options opts;
  opts.num_threads = threads;
  // Async submission below pushes the whole batch at once; keep the
  // high-water mark above the batch so admission never sheds here.
  opts.queue_depth = std::max<size_t>(1024, batch.requests.size());
  // Startup cost: with the shared plan, program transformation and machine
  // compilation happen once, so this should stay flat as threads grow.
  auto ts = std::chrono::steady_clock::now();
  QueryService service(batch.db.get(), batch.program, opts);
  r.startup_ms = MsSince(ts);
  if (!service.status().ok()) {
    r.ok = false;
    r.error = service.status().message();
    return r;
  }

  r.wall_ms = 1e300;
  std::vector<QueryResponse> responses;
  for (int i = 0; i < reps; ++i) {
    BatchStats stats;
    auto t0 = std::chrono::steady_clock::now();
    responses = service.EvalBatch(batch.requests, &stats);
    double ms = MsSince(t0);
    if (stats.failed != 0) {
      for (const QueryResponse& resp : responses) {
        if (!resp.status.ok()) {
          r.ok = false;
          r.error = resp.status.message();
          return r;
        }
      }
    }
    if (ms < r.wall_ms) {
      r.wall_ms = ms;
      r.tuples = stats.tuples;
      r.fetches = stats.fetches;
      r.memo_hits = stats.total.memo_hits;
    }
  }
  r.qps = r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.queries) / r.wall_ms
                        : 0;
  for (const QueryResponse& resp : responses) r.status.Count(resp.status);
  r.result_hash = HashResponses(responses);
  r.evaluated = CountEvaluated(responses);

  // The same batch through SubmitBatch + futures, timed like the blocking
  // path (best of `reps`), so async_qps vs qps is the price of the
  // future-based surface and not of a different estimator. Results must
  // be identical to the blocking path (same workers, same epoch).
  double async_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    BatchHandle handle = service.SubmitBatch(batch.requests);
    BatchStats astats;
    std::vector<QueryResponse> aresp = handle.Take(&astats);
    double ms = MsSince(t0);
    if (astats.failed != 0 || HashResponses(aresp) != r.result_hash) {
      r.ok = false;
      r.error = "async submission diverged from blocking batch";
      return r;
    }
    if (ms < async_ms) {
      async_ms = ms;
      r.async_evaluated = CountEvaluated(aresp);
    }
  }
  r.async_qps =
      async_ms > 0 ? 1000.0 * static_cast<double>(r.queries) / async_ms : 0;

  // Percentiles from the new observability layer rather than a bench-local
  // sort: the same numbers an operator would scrape off /metrics.
  {
    obs::HistogramSnapshot lat =
        obs::Registry::Global()
            .GetHistogram("binchain_service_latency_ms",
                          "Query latency, submission to completion")
            ->Snapshot();
    r.p50_ms = lat.P50();
    r.p95_ms = lat.P95();
    r.p99_ms = lat.P99();
  }

  if (reference != nullptr) {
    r.identical = responses.size() == reference->size();
    for (size_t i = 0; r.identical && i < responses.size(); ++i) {
      r.identical = responses[i].tuples == (*reference)[i].tuples;
    }
  }
  if (out_responses != nullptr) *out_responses = std::move(responses);
  return r;
}

/// In-flight deadline-enforcement latency: a provably long query (Figure
/// 7 (b), Theta(n^2) nodes) with a budget far below its uncancelled
/// runtime, evaluated one at a time so the deadline always lands
/// mid-traversal. Reports how far past the deadline each unwind completed.
struct CancelResult {
  uint64_t queries = 0;
  double deadline_ms = 0;
  double uncancelled_ms = 0;    // the same query, run to completion
  double latency_p50_ms = 0;    // overshoot past the deadline, median
  double latency_max_ms = 0;    // overshoot past the deadline, worst
  uint64_t partial_tuples = 0;  // answers gathered before the last unwind
  /// Attempts whose deadline expired before the worker picked them up,
  /// each resubmitted: a host stall, not an unwind.
  uint64_t queue_expiries = 0;
  StatusCounts status;  // one per query: its in-flight unwind
  bool ok = true;
  std::string error;
};

CancelResult RunCancellationLatency(size_t n, int reps) {
  CancelResult cr;
  Database db;
  std::string source = workloads::Fig7b(db, n);
  auto parsed = ParseProgram(workloads::SgProgramText(), db.symbols());
  if (!parsed.ok()) {
    cr.ok = false;
    cr.error = parsed.status().message();
    return cr;
  }
  QueryService service(&db, parsed.take(), {1, 64});
  if (!service.status().ok()) {
    cr.ok = false;
    cr.error = service.status().message();
    return cr;
  }
  QueryRequest req{"sg", source, "", {}};
  auto t0 = std::chrono::steady_clock::now();
  QueryResponse full = service.Eval(req);
  cr.uncancelled_ms = MsSince(t0);
  if (!full.status.ok()) {
    cr.ok = false;
    cr.error = full.status.message();
    return cr;
  }
  // A budget an order of magnitude under the uncancelled runtime, so the
  // unwind is always mid-flight.
  cr.deadline_ms = std::max(2.0, cr.uncancelled_ms / 16);
  cr.queries = static_cast<uint64_t>(std::max(3, reps * 3));
  // The budget also covers queue pickup, so a host stall longer than it
  // answers a query unevaluated (partial false). That expiry is service
  // behaviour the tests cover, not the unwind this block times: the query
  // is resubmitted, a bounded number of times.
  constexpr int kAttempts = 5;
  std::vector<double> overshoot;
  for (uint64_t i = 0; i < cr.queries; ++i) {
    QueryRequest limited = req;
    limited.options.deadline_ms = cr.deadline_ms;
    QueryResponse resp;
    double ms = 0;
    for (int attempt = 1;; ++attempt) {
      t0 = std::chrono::steady_clock::now();
      resp = service.Eval(limited);
      ms = MsSince(t0);
      bool queue_expiry =
          resp.status.code() == StatusCode::kDeadlineExceeded && !resp.partial;
      if (!queue_expiry || attempt == kAttempts) break;
      ++cr.queue_expiries;
    }
    cr.status.Count(resp.status);
    if (resp.status.code() != StatusCode::kDeadlineExceeded ||
        !resp.partial) {
      cr.ok = false;
      cr.error = "expected a mid-flight deadline unwind";
      return cr;
    }
    overshoot.push_back(ms - cr.deadline_ms);
    cr.partial_tuples = resp.tuples.size();
  }
  std::sort(overshoot.begin(), overshoot.end());
  cr.latency_p50_ms = overshoot[overshoot.size() / 2];
  cr.latency_max_ms = overshoot.back();
  return cr;
}

/// Streamed-delivery latency: the ladder query (Figure 7 (b), one answer
/// per fixpoint iteration) evaluated with an AnswerSink attached, timing
/// the first chunk's arrival against the full response. The data plane's
/// whole point is that first_chunk <= total with room to spare — the
/// regression gate asserts the p50s keep that order, which can only hold
/// if chunks really leave the engine mid-fixpoint.
struct StreamingResult {
  std::string name;
  uint64_t queries = 0;
  uint64_t chunks = 0;  // total over all queries (>= 2 per query required)
  double first_chunk_p50_ms = 0;
  double first_chunk_p95_ms = 0;
  double total_p50_ms = 0;
  double total_p95_ms = 0;
  bool ok = true;
  std::string error;
};

StreamingResult RunStreaming(size_t n, int reps) {
  StreamingResult sr;
  sr.name = "streaming/fig7b/n=" + std::to_string(n);
  Database db;
  std::string source = workloads::Fig7b(db, n);
  auto parsed = ParseProgram(workloads::SgProgramText(), db.symbols());
  if (!parsed.ok()) {
    sr.ok = false;
    sr.error = parsed.status().message();
    return sr;
  }
  QueryService service(&db, parsed.take(), {1, 64});
  if (!service.status().ok()) {
    sr.ok = false;
    sr.error = service.status().message();
    return sr;
  }

  /// Stamps the arrival of the first chunk relative to submission.
  struct TimingSink : AnswerSink {
    std::chrono::steady_clock::time_point t0;
    double first_ms = -1;
    uint64_t chunks = 0;
    bool OnAnswers(const Tuple*, size_t, const SymbolTable&) override {
      if (first_ms < 0) first_ms = MsSince(t0);
      ++chunks;
      return true;
    }
  };

  sr.queries = static_cast<uint64_t>(std::max(8, reps * 8));
  std::vector<double> first, total;
  QueryRequest req{"sg", source, "", {}};
  for (uint64_t i = 0; i < sr.queries; ++i) {
    TimingSink sink;
    QueryRequest q = req;
    q.sink = &sink;
    sink.t0 = std::chrono::steady_clock::now();
    QueryResponse resp = service.Eval(q);
    double tot = MsSince(sink.t0);
    if (!resp.status.ok()) {
      sr.ok = false;
      sr.error = resp.status.message();
      return sr;
    }
    if (sink.first_ms < 0 || sink.chunks < 2) {
      sr.ok = false;
      sr.error = "expected >= 2 streamed chunks on the ladder, got " +
                 std::to_string(sink.chunks);
      return sr;
    }
    first.push_back(sink.first_ms);
    total.push_back(tot);
    sr.chunks += sink.chunks;
  }
  std::sort(first.begin(), first.end());
  std::sort(total.begin(), total.end());
  auto pct = [](const std::vector<double>& v, size_t p) {
    return v[std::min(v.size() - 1, v.size() * p / 100)];
  };
  sr.first_chunk_p50_ms = pct(first, 50);
  sr.first_chunk_p95_ms = pct(first, 95);
  sr.total_p50_ms = pct(total, 50);
  sr.total_p95_ms = pct(total, 95);
  return sr;
}

/// Before/after cost of the observability layer on the service hot path:
/// the same batch through two services over one frozen database, one with
/// record_metrics off (no counters, histograms, gauge or flight recorder)
/// and one with the production default on. After one untimed batch each,
/// the sides run in `kObsOverheadPairs` back-to-back pairs, the order
/// alternating from pair to pair, and `ratio` is the median of the
/// per-pair cpu_on / cpu_off ratios. Each side is timed in process CPU
/// time (every thread's, the workers' included): recording costs CPU,
/// while a batch's wall time on a shared host also counts scheduling
/// waits and stolen time, which swing one pair's wall ratio by x2 and
/// can favour one service's threads for many pairs in a row. The
/// regression gate bounds `ratio`; the design target is <= 1.01 — a
/// handful of relaxed increments per completed query.
constexpr int kObsOverheadPairs = 31;

struct ObsOverheadResult {
  std::string name;
  size_t threads = 0;
  uint64_t queries = 0;
  int pairs = 0;
  double cpu_off_ms = 0;  // median over pairs, metrics disabled
  double cpu_on_ms = 0;   // median over pairs, metrics enabled
  double ratio = 0;       // median of the per-pair cpu_on / cpu_off
  bool ok = true;
  std::string error;
};

/// CPU time used so far by every thread of this process, in ms.
double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

ObsOverheadResult RunObsOverhead(Batch& batch, size_t threads) {
  ObsOverheadResult r;
  r.name = batch.label + "/obs_overhead";
  r.threads = threads;
  r.queries = batch.requests.size();
  r.pairs = kObsOverheadPairs;

  QueryService::Options opts;
  opts.num_threads = threads;
  opts.queue_depth = std::max<size_t>(1024, batch.requests.size());
  QueryService::Options off = opts;
  off.record_metrics = false;
  QueryService service_off(batch.db.get(), batch.program, off);
  QueryService service_on(batch.db.get(), batch.program, opts);
  if (!service_off.status().ok() || !service_on.status().ok()) {
    r.ok = false;
    r.error = (!service_off.status().ok() ? service_off.status()
                                          : service_on.status())
                  .message();
    return r;
  }

  BatchStats stats;
  service_off.EvalBatch(batch.requests, &stats);
  uint64_t tuples_off = stats.tuples;
  service_on.EvalBatch(batch.requests, &stats);
  if (stats.tuples != tuples_off) {
    r.ok = false;
    r.error = "metrics on/off runs disagree on result size";
    return r;
  }
  auto timed = [&](QueryService& service) {
    double t0 = ProcessCpuMs();
    service.EvalBatch(batch.requests, &stats);
    return ProcessCpuMs() - t0;
  };
  std::vector<double> off_ms, on_ms, ratios;
  for (int i = 0; i < kObsOverheadPairs; ++i) {
    double cpu_off, cpu_on;
    if (i % 2 == 0) {
      cpu_off = timed(service_off);
      cpu_on = timed(service_on);
    } else {
      cpu_on = timed(service_on);
      cpu_off = timed(service_off);
    }
    off_ms.push_back(cpu_off);
    on_ms.push_back(cpu_on);
    ratios.push_back(cpu_off > 0 ? cpu_on / cpu_off : 0);
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  r.cpu_off_ms = median(off_ms);
  r.cpu_on_ms = median(on_ms);
  r.ratio = median(ratios);
  return r;
}

/// Skewed-repeat workload: queries drawn one at a time from a Zipf
/// distribution over the ranked constants, the request shape the answer
/// cache exists for. The same deterministic stream runs against a
/// cache-off and a cache-on service over one shared frozen database;
/// one-at-a-time submission never overlaps two identical requests, so
/// single-flight stays out of the picture and the A/B isolates the cache.
/// Responses are hashed in stream order on both sides — the cache must
/// never change an answer.
struct SkewedCacheResult {
  std::string name;
  uint64_t queries = 0;
  uint64_t distinct = 0;       // population the Zipf ranks draw from
  double zipf_s = 0;
  double wall_off_ms = 1e300;  // best rep, cache disabled
  double wall_on_ms = 1e300;   // best rep, cache enabled
  double qps_off = 0;
  double qps_on = 0;
  double speedup = 0;          // qps_on / qps_off
  double p50_off_ms = 0;       // per-query latency, best rep
  double p50_on_ms = 0;
  double hit_rate = 0;         // over every cache-on rep
  uint64_t result_hash_off = 0;
  uint64_t result_hash_on = 0;
  bool hashes_match = false;
  bool ok = true;
  std::string error;
};

SkewedCacheResult RunSkewedCache(size_t n, int reps) {
  SkewedCacheResult r;
  r.name = "skewed/fig7b/n=" + std::to_string(n);
  r.zipf_s = 1.07;
  Database db;
  workloads::Fig7b(db, n);
  auto parsed = ParseProgram(workloads::SgProgramText(), db.symbols());
  if (!parsed.ok()) {
    r.ok = false;
    r.error = parsed.status().message();
    return r;
  }
  Program program = parsed.take();

  // Rank every constant and draw a fixed stream from the Zipf CDF; the
  // seed makes the stream identical across sides, reps, and PRs.
  std::vector<std::string> sources = AllConstants(db);
  r.distinct = sources.size();
  std::vector<double> cdf;
  cdf.reserve(sources.size());
  double acc = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), r.zipf_s);
    cdf.push_back(acc);
  }
  const size_t kStream = 512;
  r.queries = kStream;
  Rng rng(0x5eedcafe);
  std::vector<const std::string*> stream;
  stream.reserve(kStream);
  for (size_t i = 0; i < kStream; ++i) {
    double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 * acc;
    size_t idx = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (idx >= sources.size()) idx = sources.size() - 1;
    stream.push_back(&sources[idx]);
  }

  QueryService::Options off_opts;
  off_opts.num_threads = 2;
  QueryService::Options on_opts = off_opts;
  on_opts.answer_cache_bytes = 64 << 20;
  QueryService service_off(&db, program, off_opts);
  QueryService service_on(&db, program, on_opts);
  if (!service_off.status().ok() || !service_on.status().ok()) {
    r.ok = false;
    r.error = (!service_off.status().ok() ? service_off.status()
                                          : service_on.status())
                  .message();
    return r;
  }

  // One pass of the stream, one query at a time (the serving shape —
  // cache hits complete on the caller thread, misses go through the
  // workers). Returns false on any failed query.
  auto run_stream = [&](QueryService& service, double* wall_ms, double* p50,
                        uint64_t* hash) {
    std::vector<QueryResponse> responses;
    responses.reserve(stream.size());
    std::vector<double> lat;
    lat.reserve(stream.size());
    auto t0 = std::chrono::steady_clock::now();
    for (const std::string* source : stream) {
      QueryRequest req;
      req.pred = "sg";
      req.source = *source;
      auto q0 = std::chrono::steady_clock::now();
      responses.push_back(service.Eval(req));
      lat.push_back(MsSince(q0));
      if (!responses.back().status.ok()) {
        r.ok = false;
        r.error = responses.back().status.message();
        return false;
      }
    }
    double ms = MsSince(t0);
    if (ms < *wall_ms) {
      *wall_ms = ms;
      std::sort(lat.begin(), lat.end());
      *p50 = lat[lat.size() / 2];
    }
    uint64_t h = HashResponses(responses);
    if (*hash != 0 && *hash != h) {
      r.ok = false;
      r.error = "skewed stream hash drifted across reps";
      return false;
    }
    *hash = h;
    return true;
  };

  // Reps interleave so machine drift hits both sides equally. The cache
  // stays warm across cache-on reps — steady-state behavior is exactly
  // what the benchmark is after.
  for (int i = 0; i < std::max(3, reps); ++i) {
    if (!run_stream(service_off, &r.wall_off_ms, &r.p50_off_ms,
                    &r.result_hash_off) ||
        !run_stream(service_on, &r.wall_on_ms, &r.p50_on_ms,
                    &r.result_hash_on)) {
      return r;
    }
  }
  r.qps_off = r.wall_off_ms > 0
                  ? 1000.0 * static_cast<double>(kStream) / r.wall_off_ms
                  : 0;
  r.qps_on = r.wall_on_ms > 0
                 ? 1000.0 * static_cast<double>(kStream) / r.wall_on_ms
                 : 0;
  r.speedup = r.qps_off > 0 ? r.qps_on / r.qps_off : 0;
  r.hashes_match = r.result_hash_on == r.result_hash_off;
  cache::CacheSnapshot snap = service_on.answer_cache()->Snapshot();
  r.hit_rate = snap.HitRate();
  return r;
}

/// Publish-heavy selective invalidation: two independent closures over
/// disjoint base relations (support(pup) = {up}, support(pdown) = {down})
/// on a live service, publishes that grow only the down-chain. Each
/// publish must invalidate exactly the pdown entries (the up side keeps
/// hitting off the copy-on-write re-shared relation), so the steady-state
/// hit rate under a write stream is 1/2, not 0.
struct CacheInvalidationResult {
  std::string name;
  uint64_t warm_entries = 0;      // entries after the warming pass
  uint64_t publishes = 0;
  uint64_t invalidated = 0;       // total across all publishes
  uint64_t surviving_hits = 0;    // pup hits recorded after publishes
  uint64_t expected_per_publish = 0;  // pdown entry count
  bool selective = false;  // every publish retired exactly the pdown side
  bool ok = true;
  std::string error;
};

CacheInvalidationResult RunCacheInvalidation(size_t chain, int cycles) {
  CacheInvalidationResult r;
  r.name = "cache_invalidation/chain=" + std::to_string(chain);
  r.publishes = static_cast<uint64_t>(cycles);
  r.expected_per_publish = chain;  // one pdown entry per source d1..d<chain>

  static const char* kTwoClosures =
      "pup(X, Y) :- up(X, Y).\n"
      "pup(X, Y) :- up(X, Z), pup(Z, Y).\n"
      "pdown(X, Y) :- down(X, Y).\n"
      "pdown(X, Y) :- down(X, Z), pdown(Z, Y).\n";
  auto genesis = std::make_unique<Database>();
  genesis->GetOrCreate("up", 2);
  genesis->GetOrCreate("down", 2);
  for (size_t i = 1; i <= chain; ++i) {
    genesis->AddFact("up", {"u" + std::to_string(i),
                            "u" + std::to_string(i + 1)});
    genesis->AddFact("down", {"d" + std::to_string(i),
                              "d" + std::to_string(i + 1)});
  }
  auto parsed = ParseProgram(kTwoClosures, genesis->symbols());
  if (!parsed.ok()) {
    r.ok = false;
    r.error = parsed.status().message();
    return r;
  }
  Program program = parsed.take();
  SnapshotManager manager(std::move(genesis));
  QueryService::Options opts;
  opts.num_threads = 2;
  opts.answer_cache_bytes = 16 << 20;
  QueryService service(&manager, program, opts);
  if (!service.status().ok()) {
    r.ok = false;
    r.error = service.status().message();
    return r;
  }

  auto query_all = [&](const char* pred, const char* prefix) {
    for (size_t i = 1; i <= chain; ++i) {
      QueryRequest req;
      req.pred = pred;
      req.source = prefix + std::to_string(i);
      QueryResponse resp = service.Eval(req);
      if (!resp.status.ok()) {
        r.ok = false;
        r.error = resp.status.message();
        return false;
      }
    }
    return true;
  };

  if (!query_all("pup", "u") || !query_all("pdown", "d")) return r;
  const cache::AnswerCache* cache = service.answer_cache();
  r.warm_entries = cache->Snapshot().entries;

  r.selective = true;
  size_t next_down = chain + 1;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    cache::CacheSnapshot before = cache->Snapshot();
    manager.AddFact("down", {"d" + std::to_string(next_down),
                             "d" + std::to_string(next_down + 1)});
    ++next_down;
    PublishStats ps = manager.Publish();
    if (!ps.status.ok()) {
      r.ok = false;
      r.error = ps.status.message();
      return r;
    }
    cache::CacheSnapshot after = cache->Snapshot();
    uint64_t dropped = after.invalidations - before.invalidations;
    r.invalidated += dropped;
    // Selectivity: the publish touched only `down`, so exactly the pdown
    // entries may go; every pup entry must survive and keep hitting.
    if (dropped != r.expected_per_publish) r.selective = false;
    if (!query_all("pup", "u") || !query_all("pdown", "d")) return r;
    cache::CacheSnapshot served = cache->Snapshot();
    uint64_t pup_hits = served.hits - after.hits;
    r.surviving_hits += pup_hits;
    if (pup_hits < chain) r.selective = false;  // a pup entry was dropped
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 128;
  int reps = 3;
  bool json = false;
  std::string json_path = "BENCH_service.json";
  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--n") && i + 1 < argc) {
      n = static_cast<size_t>(std::atol(argv[++i]));
    } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
      if (reps < 1) {
        std::fprintf(stderr, "--reps must be >= 1\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      thread_counts.clear();
      for (const char* p = argv[++i]; *p;) {
        char* end = nullptr;
        size_t t = static_cast<size_t>(std::strtoul(p, &end, 10));
        if (end == p || t == 0) {
          std::fprintf(stderr, "bad --threads list (want e.g. 1,2,4)\n");
          return 2;
        }
        p = end;
        if (*p == ',') ++p;
        thread_counts.push_back(t);
      }
    } else if (!std::strcmp(argv[i], "--smoke")) {
      n = 32;
      reps = 1;
    } else if (!std::strcmp(argv[i], "--json")) {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--n <size>] [--reps <k>] [--threads <list>] "
                   "[--smoke] [--json [path]]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<std::unique_ptr<Batch>> batches;
  batches.push_back(MakeSgBatch("fig7a", &workloads::Fig7a, n, {}));
  batches.push_back(MakeSgBatch("fig7b", &workloads::Fig7b, n / 2, {}));
  batches.push_back(MakeSgBatch("fig7c", &workloads::Fig7c, n, {}));
  batches.push_back(MakeFig8Batch(17, 19, 4));
  batches.push_back(MakeAllFreeBatch(n, 8));

  std::vector<BenchResult> results;
  int failures = 0;
  for (auto& batch : batches) {
    if (batch == nullptr) {
      ++failures;
      continue;
    }
    std::vector<QueryResponse> reference;
    double base_qps = 0;
    for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
      // The first entry (by position, so duplicate thread values still get
      // checked) is the reference run all others are compared against.
      bool is_reference = ti == 0;
      BenchResult r = RunBatch(*batch, thread_counts[ti], reps,
                               is_reference ? nullptr : &reference,
                               is_reference ? &reference : nullptr);
      if (is_reference) base_qps = r.qps;
      if (base_qps > 0) r.speedup = r.qps / base_qps;
      results.push_back(std::move(r));
    }
  }

  CancelResult cancel = RunCancellationLatency(512, reps);
  if (!cancel.ok) ++failures;

  StreamingResult streaming = RunStreaming(std::max<size_t>(16, n / 2), reps);
  if (!streaming.ok) ++failures;

  // Overhead is measured on the fig8 batch (queries that do ~1 ms of real
  // traversal each, the shape production queries have) at a thread count
  // the hardware can actually run — oversubscribed threads on a small CI
  // box turn any mutex into a preemption lottery and measure the
  // scheduler, not the metrics layer.
  ObsOverheadResult overhead;
  overhead.ok = false;
  overhead.error = "fig8 batch unavailable";
  for (auto& batch : batches) {
    if (batch == nullptr || batch->label.compare(0, 4, "fig8") != 0) continue;
    size_t overhead_threads = std::max<size_t>(
        1, std::min<size_t>(
               *std::max_element(thread_counts.begin(), thread_counts.end()),
               std::thread::hardware_concurrency()));
    overhead = RunObsOverhead(*batch, overhead_threads);
    break;
  }
  if (!overhead.ok) ++failures;

  SkewedCacheResult skewed = RunSkewedCache(n / 2, reps);
  if (!skewed.ok || !skewed.hashes_match) ++failures;
  CacheInvalidationResult invalidation =
      RunCacheInvalidation(/*chain=*/std::max<size_t>(8, n / 8),
                           /*cycles=*/4);
  if (!invalidation.ok || !invalidation.selective) ++failures;

  std::printf(
      "%-28s %8s %10s %10s %10s %12s %12s %10s %8s %10s %8s %8s %8s %6s "
      "%11s\n",
      "batch", "queries", "tuples", "startup_ms", "wall_ms", "queries/sec",
      "async_qps", "speedup", "fetches", "memo_hits", "p50_ms", "p95_ms",
      "p99_ms", "same", "evals b/a");
  for (const BenchResult& r : results) {
    if (!r.ok) {
      ++failures;
      std::printf("%-28s ERROR: %s\n", r.name.c_str(), r.error.c_str());
      continue;
    }
    if (!r.identical) ++failures;
    std::printf(
        "%-28s %8llu %10llu %10.3f %10.3f %12.1f %12.1f %9.2fx %8llu %10llu "
        "%8.3f %8.3f %8.3f %6s %5llu/%-5llu\n",
        r.name.c_str(), static_cast<unsigned long long>(r.queries),
        static_cast<unsigned long long>(r.tuples), r.startup_ms, r.wall_ms,
        r.qps, r.async_qps, r.speedup,
        static_cast<unsigned long long>(r.fetches),
        static_cast<unsigned long long>(r.memo_hits), r.p50_ms, r.p95_ms,
        r.p99_ms, r.identical ? "yes" : "NO",
        static_cast<unsigned long long>(r.evaluated),
        static_cast<unsigned long long>(r.async_evaluated));
  }
  if (overhead.ok) {
    std::printf(
        "obs overhead (%s, threads=%zu): metrics off %.3f ms, on %.3f ms "
        "of CPU (medians), median pair ratio x%.4f over %d pairs of %llu "
        "queries\n",
        overhead.name.c_str(), overhead.threads, overhead.cpu_off_ms,
        overhead.cpu_on_ms, overhead.ratio, overhead.pairs,
        static_cast<unsigned long long>(overhead.queries));
  } else {
    std::printf("obs overhead: ERROR: %s\n", overhead.error.c_str());
  }
  if (cancel.ok) {
    std::printf(
        "cancellation latency (fig7b/n=512): uncancelled %.2f ms, deadline "
        "%.2f ms, overshoot p50 %.3f ms / max %.3f ms over %llu queries "
        "(%llu partial tuples at last unwind, %llu queue expiries "
        "resubmitted)\n",
        cancel.uncancelled_ms, cancel.deadline_ms, cancel.latency_p50_ms,
        cancel.latency_max_ms,
        static_cast<unsigned long long>(cancel.queries),
        static_cast<unsigned long long>(cancel.partial_tuples),
        static_cast<unsigned long long>(cancel.queue_expiries));
  } else {
    std::printf("cancellation latency: ERROR: %s\n", cancel.error.c_str());
  }
  if (streaming.ok) {
    std::printf(
        "streamed delivery (%s): first chunk p50 %.3f ms / p95 %.3f ms, "
        "full response p50 %.3f ms / p95 %.3f ms, %llu chunks over %llu "
        "queries\n",
        streaming.name.c_str(), streaming.first_chunk_p50_ms,
        streaming.first_chunk_p95_ms, streaming.total_p50_ms,
        streaming.total_p95_ms,
        static_cast<unsigned long long>(streaming.chunks),
        static_cast<unsigned long long>(streaming.queries));
  } else {
    std::printf("streamed delivery: ERROR: %s\n", streaming.error.c_str());
  }
  if (skewed.ok) {
    std::printf(
        "skewed repeats (%s, zipf s=%.2f, %llu queries over %llu keys): "
        "cache off %.1f qps / p50 %.3f ms, on %.1f qps / p50 %.3f ms, "
        "speedup x%.2f, hit rate %.3f, results %s\n",
        skewed.name.c_str(), skewed.zipf_s,
        static_cast<unsigned long long>(skewed.queries),
        static_cast<unsigned long long>(skewed.distinct), skewed.qps_off,
        skewed.p50_off_ms, skewed.qps_on, skewed.p50_on_ms, skewed.speedup,
        skewed.hit_rate, skewed.hashes_match ? "identical" : "DIVERGED");
  } else {
    std::printf("skewed repeats: ERROR: %s\n", skewed.error.c_str());
  }
  if (invalidation.ok) {
    std::printf(
        "cache invalidation (%s): %llu warm entries, %llu publishes "
        "touching only `down`, %llu invalidated (expected %llu/publish), "
        "%llu surviving pup hits — %s\n",
        invalidation.name.c_str(),
        static_cast<unsigned long long>(invalidation.warm_entries),
        static_cast<unsigned long long>(invalidation.publishes),
        static_cast<unsigned long long>(invalidation.invalidated),
        static_cast<unsigned long long>(invalidation.expected_per_publish),
        static_cast<unsigned long long>(invalidation.surviving_hits),
        invalidation.selective ? "selective" : "NOT SELECTIVE");
  } else {
    std::printf("cache invalidation: ERROR: %s\n",
                invalidation.error.c_str());
  }

  if (json) {
    auto status_json = [](const StatusCounts& s) {
      std::string out = "{\"ok\": " + std::to_string(s.ok) +
                        ", \"deadline_exceeded\": " +
                        std::to_string(s.deadline_exceeded) +
                        ", \"cancelled\": " + std::to_string(s.cancelled) +
                        ", \"overloaded\": " + std::to_string(s.overloaded) +
                        ", \"other\": " + std::to_string(s.other) + "}";
      return out;
    };
    char hash_buf[32];
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"service\",\n  \"host\": " << HostJson()
        << ",\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const BenchResult& r = results[i];
      std::snprintf(hash_buf, sizeof(hash_buf), "0x%016llx",
                    static_cast<unsigned long long>(r.result_hash));
      out << "    {\"name\": \"" << JsonEscape(r.name) << "\", \"ok\": "
          << (r.ok && r.identical ? "true" : "false")
          << ", \"threads\": " << r.threads << ", \"queries\": " << r.queries
          << ", \"startup_ms\": " << r.startup_ms
          << ", \"wall_ms\": " << r.wall_ms << ", \"qps\": " << r.qps
          << ", \"async_qps\": " << r.async_qps
          << ", \"evaluated\": " << r.evaluated
          << ", \"async_evaluated\": " << r.async_evaluated
          << ", \"speedup\": " << r.speedup << ", \"p50_ms\": " << r.p50_ms
          << ", \"p95_ms\": " << r.p95_ms << ", \"p99_ms\": " << r.p99_ms
          << ", \"tuples\": " << r.tuples
          << ", \"fetches\": " << r.fetches
          << ", \"memo_hits\": " << r.memo_hits
          << ", \"result_hash\": \"" << hash_buf << "\""
          << ", \"status\": " << status_json(r.status) << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"obs_overhead\": {\"name\": \"" << JsonEscape(overhead.name)
        << "\", \"ok\": " << (overhead.ok ? "true" : "false")
        << ", \"threads\": " << overhead.threads
        << ", \"queries\": " << overhead.queries
        << ", \"pairs\": " << overhead.pairs
        << ", \"cpu_off_ms\": " << overhead.cpu_off_ms
        << ", \"cpu_on_ms\": " << overhead.cpu_on_ms
        << ", \"ratio\": " << overhead.ratio << "},\n";
    out << "  \"cancellation\": {\"ok\": " << (cancel.ok ? "true" : "false")
        << ", \"queries\": " << cancel.queries
        << ", \"deadline_ms\": " << cancel.deadline_ms
        << ", \"uncancelled_ms\": " << cancel.uncancelled_ms
        << ", \"latency_p50_ms\": " << cancel.latency_p50_ms
        << ", \"latency_max_ms\": " << cancel.latency_max_ms
        << ", \"queue_expiries\": " << cancel.queue_expiries
        << ", \"status\": " << status_json(cancel.status) << "},\n";
    out << "  \"streaming\": {\"name\": \"" << JsonEscape(streaming.name)
        << "\", \"ok\": " << (streaming.ok ? "true" : "false")
        << ", \"queries\": " << streaming.queries
        << ", \"chunks\": " << streaming.chunks
        << ", \"first_chunk_p50_ms\": " << streaming.first_chunk_p50_ms
        << ", \"first_chunk_p95_ms\": " << streaming.first_chunk_p95_ms
        << ", \"total_p50_ms\": " << streaming.total_p50_ms
        << ", \"total_p95_ms\": " << streaming.total_p95_ms << "},\n";
    char off_hash[32], on_hash[32];
    std::snprintf(off_hash, sizeof(off_hash), "0x%016llx",
                  static_cast<unsigned long long>(skewed.result_hash_off));
    std::snprintf(on_hash, sizeof(on_hash), "0x%016llx",
                  static_cast<unsigned long long>(skewed.result_hash_on));
    out << "  \"skewed\": {\"name\": \"" << JsonEscape(skewed.name)
        << "\", \"ok\": " << (skewed.ok ? "true" : "false")
        << ", \"queries\": " << skewed.queries
        << ", \"distinct\": " << skewed.distinct
        << ", \"zipf_s\": " << skewed.zipf_s
        << ", \"qps_off\": " << skewed.qps_off
        << ", \"qps_on\": " << skewed.qps_on
        << ", \"speedup\": " << skewed.speedup
        << ", \"p50_off_ms\": " << skewed.p50_off_ms
        << ", \"p50_on_ms\": " << skewed.p50_on_ms
        << ", \"hit_rate\": " << skewed.hit_rate
        << ", \"result_hash_off\": \"" << off_hash << "\""
        << ", \"result_hash_on\": \"" << on_hash << "\""
        << ", \"hashes_match\": "
        << (skewed.hashes_match ? "true" : "false") << "},\n";
    out << "  \"cache_invalidation\": {\"name\": \""
        << JsonEscape(invalidation.name)
        << "\", \"ok\": " << (invalidation.ok ? "true" : "false")
        << ", \"warm_entries\": " << invalidation.warm_entries
        << ", \"publishes\": " << invalidation.publishes
        << ", \"invalidated\": " << invalidation.invalidated
        << ", \"expected_per_publish\": "
        << invalidation.expected_per_publish
        << ", \"surviving_hits\": " << invalidation.surviving_hits
        << ", \"selective\": "
        << (invalidation.selective ? "true" : "false") << "}\n";
    out << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
