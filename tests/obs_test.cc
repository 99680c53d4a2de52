// Observability layer: sharded counter/gauge/histogram semantics under
// concurrency (run under TSan in CI), histogram bucket boundaries and
// percentile extraction, the Prometheus/JSON exposition formats (golden),
// the flight-recorder ring, and the per-query trace spans the service
// completion seam fills — including for queries that never ran (queued
// then cancelled, or shed at admission).
#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datalog/parser.h"
#include "live/snapshot_manager.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

using obs::FlightRecorder;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::PublishRecorder;
using obs::PublishTrace;
using obs::QueryTrace;
using obs::Registry;

/// A scratch file path that cleans itself up (for the slow-query sink).
class TempFile {
 public:
  TempFile() {
    char tmpl[] = "/tmp/binchain_obs_XXXXXX";
    int fd = mkstemp(tmpl);
    EXPECT_GE(fd, 0);
    if (fd >= 0) {
      close(fd);
      path_ = tmpl;
    }
  }
  ~TempFile() {
    if (!path_.empty()) unlink(path_.c_str());
  }
  const std::string& path() const { return path_; }
  std::vector<std::string> Lines() const {
    std::vector<std::string> lines;
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

 private:
  std::string path_;
};

TEST(ObsShardTest, ThreadShardIsStableAndBounded) {
  size_t first = obs::ThreadShard();
  EXPECT_LT(first, obs::kShards);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(obs::ThreadShard(), first);
  // Other threads get their own (bounded) shard, stable for their lifetime.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      size_t mine = obs::ThreadShard();
      EXPECT_LT(mine, obs::kShards);
      for (int i = 0; i < 10; ++i) EXPECT_EQ(obs::ThreadShard(), mine);
    });
  }
  for (auto& th : threads) th.join();
}

// The TSan target of the suite: writers on every shard racing a reader
// that aggregates and renders. Any missing atomicity shows up as a data
// race under -fsanitize=thread; the final totals must be exact.
TEST(ObsCounterTest, ConcurrentIncrementsAndSnapshotsAreExactOnceQuiesced) {
  Registry reg;
  obs::Counter* c = reg.GetCounter("binchain_test_hits_total", "test");
  obs::Histogram* h = reg.GetHistogram("binchain_test_lat_ms", "test");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> stop{false};
  // Reader: totals must be monotone while writers run, never invented.
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t v = c->Value();
      EXPECT_GE(v, last);
      EXPECT_LE(v, kThreads * kPerThread);
      last = v;
      HistogramSnapshot snap = h->Snapshot();
      EXPECT_LE(snap.count, kThreads * kPerThread);
      std::string out;
      reg.RenderPrometheus(&out);
      EXPECT_FALSE(out.empty());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c->Inc();
        h->Observe(0.5);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(c->Value(), kThreads * kPerThread);
  HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.counts[Histogram::BucketFor(0.5)], kThreads * kPerThread);
}

TEST(ObsGaugeTest, SetAndAddAreSignedPointInTime) {
  Registry reg;
  obs::Gauge* g = reg.GetGauge("binchain_test_depth", "test");
  EXPECT_EQ(g->Value(), 0);
  g->Set(42);
  EXPECT_EQ(g->Value(), 42);
  g->Add(-50);
  EXPECT_EQ(g->Value(), -8);
  g->Set(7);
  EXPECT_EQ(g->Value(), 7);
}

TEST(ObsHistogramTest, BucketBoundariesAreUpperInclusive) {
  // Bounds are 2^i microseconds: an observation exactly on a bound lands
  // *in* that bucket; one ulp above it spills into the next.
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    double bound = Histogram::UpperBound(i);
    EXPECT_EQ(Histogram::BucketFor(bound), i) << "bound " << bound;
    double above = std::nextafter(bound, 1e300);
    EXPECT_EQ(Histogram::BucketFor(above), i + 1) << "just above " << bound;
    if (i > 0) {
      EXPECT_DOUBLE_EQ(bound, 2 * Histogram::UpperBound(i - 1));
    }
  }
  EXPECT_DOUBLE_EQ(Histogram::UpperBound(0), 0.001);  // 1 microsecond
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(-1), 0u);  // clock skew clamps low
  // Past the last finite bound: the +Inf overflow bucket.
  EXPECT_EQ(Histogram::BucketFor(1e12), Histogram::kBuckets);
}

TEST(ObsHistogramTest, ObserveFillsTheBoundaryBucketAndSum) {
  Registry reg;
  obs::Histogram* h = reg.GetHistogram("binchain_test_h_ms", "test");
  h->Observe(Histogram::UpperBound(5));
  h->Observe(std::nextafter(Histogram::UpperBound(5), 1e300));
  h->Observe(1e12);  // overflow
  HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.counts[5], 1u);
  EXPECT_EQ(snap.counts[6], 1u);
  EXPECT_EQ(snap.counts[Histogram::kBuckets], 1u);
  EXPECT_GT(snap.sum_ms, 0);
}

TEST(ObsHistogramTest, QuantilesInterpolateWithinTheWinningBucket) {
  Registry reg;
  obs::Histogram* h = reg.GetHistogram("binchain_test_q_ms", "test");
  EXPECT_EQ(h->Snapshot().Quantile(0.5), 0);  // empty histogram
  // 100 observations of 1.0 ms all land in the (0.512, 1.024] bucket, so
  // quantile rank r interpolates linearly across that bucket's width.
  for (int i = 0; i < 100; ++i) h->Observe(1.0);
  HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.P50(), 0.512 + 0.50 * (1.024 - 0.512));
  EXPECT_DOUBLE_EQ(snap.P95(), 0.512 + 0.95 * (1.024 - 0.512));
  EXPECT_DOUBLE_EQ(snap.P99(), 0.512 + 0.99 * (1.024 - 0.512));
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1.024);
  // A quantile that lands in the +Inf bucket reports the last finite
  // bound — the only defensible estimate without an upper edge.
  obs::Histogram* inf = reg.GetHistogram("binchain_test_inf_ms", "test");
  inf->Observe(1e12);
  EXPECT_DOUBLE_EQ(inf->Snapshot().P50(),
                   Histogram::UpperBound(Histogram::kBuckets - 1));
}

TEST(ObsRegistryTest, GetIsIdempotentByNameAndKeepsFirstHelp) {
  Registry reg;
  obs::Counter* a = reg.GetCounter("binchain_test_total", "first help");
  obs::Counter* b = reg.GetCounter("binchain_test_total", "second help");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->help(), "first help");
  EXPECT_EQ(reg.GetGauge("binchain_test_g", "h"),
            reg.GetGauge("binchain_test_g", "h2"));
  EXPECT_EQ(reg.GetHistogram("binchain_test_h", "h"),
            reg.GetHistogram("binchain_test_h", "h2"));
}

TEST(ObsRegistryTest, ResetForTestZeroesValuesButKeepsPointersValid) {
  Registry reg;
  obs::Counter* c = reg.GetCounter("binchain_test_total", "t");
  obs::Gauge* g = reg.GetGauge("binchain_test_g", "t");
  obs::Histogram* h = reg.GetHistogram("binchain_test_h_ms", "t");
  c->Inc(5);
  g->Set(9);
  h->Observe(1.0);
  reg.ResetForTest();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Snapshot().count, 0u);
  c->Inc();  // the cached pointer still works after reset
  EXPECT_EQ(c->Value(), 1u);
}

// Golden: the exact exposition bytes for a registry with one of each
// instrument kind. Catches accidental format drift (ordering, HELP/TYPE
// lines, cumulative buckets, +Inf, _sum/_count) that would break scrapers.
TEST(ObsExpositionTest, PrometheusGolden) {
  Registry reg;
  reg.GetGauge("binchain_test_epoch", "Serving epoch")->Set(7);
  reg.GetCounter("binchain_test_queries_total", "Queries completed")->Inc(3);
  obs::Histogram* h =
      reg.GetHistogram("binchain_test_latency_ms", "Query latency");
  h->Observe(0.001);  // exactly on the first bound -> bucket 0
  h->Observe(0.5);    // (0.256, 0.512] -> bucket 9
  h->Observe(1e12);   // +Inf overflow

  // Name-sorted: epoch < latency_ms < queries_total.
  std::string expected;
  expected +=
      "# HELP binchain_test_epoch Serving epoch\n"
      "# TYPE binchain_test_epoch gauge\n"
      "binchain_test_epoch 7\n"
      "# HELP binchain_test_latency_ms Query latency\n"
      "# TYPE binchain_test_latency_ms histogram\n";
  uint64_t cum = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (i == 0) cum += 1;  // the 0.001 observation
    if (i == 9) cum += 1;  // the 0.5 observation
    char line[128];
    std::snprintf(line, sizeof(line),
                  "binchain_test_latency_ms_bucket{le=\"%.10g\"} %llu\n",
                  Histogram::UpperBound(i),
                  static_cast<unsigned long long>(cum));
    expected += line;
  }
  expected +=
      "binchain_test_latency_ms_bucket{le=\"+Inf\"} 3\n";
  {
    // Sum is carried in integer nanoseconds; reconstruct the same rounding.
    char line[128];
    std::snprintf(
        line, sizeof(line), "binchain_test_latency_ms_sum %.10g\n",
        static_cast<double>(static_cast<uint64_t>(0.001 * 1e6) +
                            static_cast<uint64_t>(0.5 * 1e6) +
                            static_cast<uint64_t>(1e12 * 1e6)) /
            1e6);
    expected += line;
  }
  expected +=
      "binchain_test_latency_ms_count 3\n"
      "# HELP binchain_test_queries_total Queries completed\n"
      "# TYPE binchain_test_queries_total counter\n"
      "binchain_test_queries_total 3\n";

  EXPECT_EQ(reg.RenderPrometheus(), expected);
}

TEST(ObsExpositionTest, PrometheusLinesAreScrapeShaped) {
  // Every line of the exposition is either a comment or starts with the
  // metric name — the shape bench/lint_prometheus.py and the CI scrape
  // step assert on.
  Registry reg;
  reg.GetCounter("binchain_test_a_total", "a")->Inc();
  reg.GetGauge("binchain_test_b", "b")->Set(1);
  reg.GetHistogram("binchain_test_c_ms", "c")->Observe(1);
  std::string out = reg.RenderPrometheus();
  size_t start = 0;
  while (start < out.size()) {
    size_t end = out.find('\n', start);
    ASSERT_NE(end, std::string::npos);  // newline-terminated lines only
    std::string line = out.substr(start, end - start);
    EXPECT_TRUE(line.rfind("# ", 0) == 0 ||
                line.rfind("binchain_test_", 0) == 0)
        << "unexpected line: " << line;
    start = end + 1;
  }
}

TEST(ObsExpositionTest, JsonDumpCarriesCountsAndPercentiles) {
  Registry reg;
  reg.GetCounter("binchain_test_queries_total", "q")->Inc(3);
  reg.GetGauge("binchain_test_epoch", "e")->Set(-2);
  obs::Histogram* h = reg.GetHistogram("binchain_test_lat_ms", "l");
  for (int i = 0; i < 4; ++i) h->Observe(1.0);
  std::string out = reg.RenderJson();
  EXPECT_NE(out.find("\"binchain_test_queries_total\": 3"), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"binchain_test_epoch\": -2"), std::string::npos) << out;
  EXPECT_NE(out.find("\"binchain_test_lat_ms\": {\"count\": 4"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"p99_ms\": "), std::string::npos) << out;
}

TEST(FlightRecorderTest, RingRetainsTheLastCapacitySpansOldestFirst) {
  FlightRecorder rec(3, 0);
  for (uint64_t id = 1; id <= 7; ++id) {
    QueryTrace t;
    t.query_id = id;
    t.total_ms = static_cast<double>(id);
    rec.Record(t);
  }
  std::vector<QueryTrace> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].query_id, 5u);
  EXPECT_EQ(spans[1].query_id, 6u);
  EXPECT_EQ(spans[2].query_id, 7u);
}

TEST(FlightRecorderTest, ThresholdFiltersFastQueries) {
  FlightRecorder rec(8, 5.0);
  QueryTrace fast;
  fast.query_id = 1;
  fast.total_ms = 1.0;
  rec.Record(fast);
  QueryTrace slow;
  slow.query_id = 2;
  slow.total_ms = 10.0;
  rec.Record(slow);
  std::vector<QueryTrace> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].query_id, 2u);
}

TEST(FlightRecorderTest, JsonIsAnArrayOfSpanObjects) {
  FlightRecorder rec(4, 0);
  EXPECT_EQ(rec.RenderJson(), "[]");
  QueryTrace t;
  t.query_id = 9;
  t.answers = 2;
  rec.Record(t);
  std::string out = rec.RenderJson();
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
  EXPECT_NE(out.find("\"query_id\": 9"), std::string::npos) << out;
  EXPECT_NE(out.find("\"answers\": 2"), std::string::npos) << out;
}

// ---------------------------------------------------------- trace spans

Program SgProgram(Database& db) {
  return ParseProgram(workloads::SgProgramText(), db.symbols()).take();
}

TEST(TraceSpanTest, CompletedQueryCarriesAFullSpan) {
  Database db;
  std::string source = workloads::Fig7b(db, 64);
  Program program = SgProgram(db);
  QueryService service(&db, program, {2, 64});
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  QueryRequest req{"sg", source, "", {}};
  QueryResponse resp = service.Eval(req);
  ASSERT_TRUE(resp.status.ok());
  ASSERT_FALSE(resp.tuples.empty());

  const QueryTrace& t = resp.trace;
  EXPECT_GT(t.query_id, 0u);
  EXPECT_NE(t.pred, 0u);  // "sg" was interned after the EDB constants
  EXPECT_GE(t.queue_wait_ms, 0);
  EXPECT_GE(t.eval_ms, 0);
  EXPECT_GE(t.total_ms, t.queue_wait_ms);
  EXPECT_EQ(t.answers, resp.tuples.size());
  EXPECT_EQ(t.iterations, resp.stats.iterations);
  EXPECT_EQ(t.fetches, resp.stats.fetches);
  EXPECT_EQ(t.epoch, resp.epoch);
  EXPECT_GT(t.iterations, 0u);
  EXPECT_FALSE(t.timed_out);
  EXPECT_FALSE(t.cancelled);
  EXPECT_FALSE(t.shed);

  // The same span reached the flight recorder (default threshold 0).
  bool recorded = false;
  for (const QueryTrace& s : service.flight_recorder().Snapshot()) {
    if (s.query_id == t.query_id) {
      recorded = true;
      EXPECT_EQ(s.answers, t.answers);
      EXPECT_EQ(s.epoch, t.epoch);
    }
  }
  EXPECT_TRUE(recorded);
}

TEST(TraceSpanTest, DistinctQueriesGetDistinctIds) {
  Database db;
  workloads::Fig7a(db, 32);
  Program program = SgProgram(db);
  QueryService service(&db, program, {2, 64});
  ASSERT_TRUE(service.status().ok());
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(QueryRequest{"sg", "", "", {}});
  std::vector<QueryResponse> responses = service.EvalBatch(batch, nullptr);
  std::set<uint64_t> ids;
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok());
    ids.insert(r.trace.query_id);
  }
  EXPECT_EQ(ids.size(), responses.size());
  EXPECT_EQ(ids.count(0), 0u);
}

// The lifecycle guarantee the ISSUE calls out: queries that never reach a
// worker — cancelled while queued, or shed at admission — still complete
// with a full span (eval_ms == 0, disposition flags set) and still land
// in the flight recorder.
TEST(TraceSpanTest, QueuedCancelledAndShedQueriesProduceCompleteSpans) {
  Database db;
  std::string source = workloads::Fig7b(db, 1024);
  Program program = SgProgram(db);
  QueryService service(&db, program, {1, 1});
  ASSERT_TRUE(service.status().ok());

  // Distinct iteration caps (all far beyond what the query needs) give the
  // three requests distinct keys: identical ones would join the running
  // query's flight instead of queueing.
  auto req = [&source](size_t i) {
    QueryRequest r{"sg", source, "", {}};
    r.options.max_iterations = size_t{1} << (20 + i);
    return r;
  };
  // Park the single worker on a ~hundreds-of-ms query, fill the 1-deep
  // queue, then overflow it. Cancel promptly (well inside the running
  // query's lifetime) so both cancellations land before natural
  // completion.
  QueryFuture running = service.Submit(req(0));
  while (service.pending() != 0) std::this_thread::yield();
  QueryFuture queued = service.Submit(req(1));
  QueryFuture shed = service.Submit(req(2));
  queued.Cancel();
  running.Cancel();

  QueryResponse shed_resp = shed.Take();
  EXPECT_EQ(shed_resp.status.code(), StatusCode::kOverloaded);
  EXPECT_GT(shed_resp.trace.query_id, 0u);
  EXPECT_TRUE(shed_resp.trace.shed);
  EXPECT_EQ(shed_resp.trace.eval_ms, 0);  // never accepted, never ran
  EXPECT_EQ(shed_resp.trace.answers, 0u);

  QueryResponse queued_resp = queued.Take();
  EXPECT_EQ(queued_resp.status.code(), StatusCode::kCancelled);
  EXPECT_GT(queued_resp.trace.query_id, 0u);
  EXPECT_TRUE(queued_resp.trace.cancelled);
  // The span is complete even though the query never evaluated: a worker
  // may claim it after the cancel and early-out in microseconds, so the
  // hard guarantees are on the effort counters, not the clock fields.
  EXPECT_EQ(queued_resp.trace.iterations, 0u);
  EXPECT_EQ(queued_resp.trace.answers, 0u);
  EXPECT_GE(queued_resp.trace.total_ms, 0);
  EXPECT_GE(queued_resp.trace.queue_wait_ms, 0);

  QueryResponse running_resp = running.Take();
  EXPECT_EQ(running_resp.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(running_resp.trace.cancelled);

  // All three dispositions are in the recorder.
  std::set<uint64_t> recorded;
  for (const QueryTrace& s : service.flight_recorder().Snapshot()) {
    recorded.insert(s.query_id);
  }
  EXPECT_EQ(recorded.count(shed_resp.trace.query_id), 1u);
  EXPECT_EQ(recorded.count(queued_resp.trace.query_id), 1u);
  EXPECT_EQ(recorded.count(running_resp.trace.query_id), 1u);
}

// ------------------------------------------------ span rings & reset hooks

TEST(SpanRingTest, DefaultCapacityIsTheSharedConstantEverywhere) {
  // Before this PR the recorder default (256) and the service option (64)
  // disagreed; both now cite obs::kSpanRingCapacity.
  FlightRecorder queries;
  PublishRecorder publishes;
  EXPECT_EQ(queries.capacity(), obs::kSpanRingCapacity);
  EXPECT_EQ(publishes.capacity(), obs::kSpanRingCapacity);
  QueryServiceOptions opts;
  EXPECT_EQ(opts.flight_recorder_capacity, obs::kSpanRingCapacity);
}

TEST(SpanRingTest, GlobalResetForTestClearsLiveRings) {
  // Every SpanRing registers a reset hook with the global registry, so the
  // single test hook clears counters AND recorders in one call.
  FlightRecorder queries(4, 0);
  PublishRecorder publishes(4, 0);
  queries.Record(QueryTrace{});
  publishes.Record(PublishTrace{});
  ASSERT_EQ(queries.Snapshot().size(), 1u);
  ASSERT_EQ(publishes.Snapshot().size(), 1u);
  Registry::Global().ResetForTest();
  EXPECT_TRUE(queries.Snapshot().empty());
  EXPECT_TRUE(publishes.Snapshot().empty());
  // Rings keep working after the reset, and destruction unregisters the
  // hook (a second reset after scope exit must not touch freed memory —
  // ASan would catch it via the rings destroyed at the end of this test).
  queries.Record(QueryTrace{});
  EXPECT_EQ(queries.Snapshot().size(), 1u);
}

TEST(ProcessMetricsTest, GlobalRegistryServesTheProcessFamily) {
  std::string out = Registry::Global().RenderPrometheus();
  EXPECT_NE(out.find("binchain_process_start_time_seconds"),
            std::string::npos);
  EXPECT_NE(out.find("binchain_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(out.find("binchain_process_build_info 1"), std::string::npos);
#ifdef __linux__
  // RSS is only readable via /proc; elsewhere the gauge reports -1. The
  // leading newline skips past the # HELP/# TYPE comment lines.
  size_t pos = out.find("\nbinchain_process_resident_memory_bytes ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_GT(atoll(out.c_str() + pos +
                  strlen("\nbinchain_process_resident_memory_bytes ")),
            0);
#endif
  // The render hook survives ResetForTest: values are re-stamped on the
  // next render rather than staying zeroed.
  Registry::Global().ResetForTest();
  out = Registry::Global().RenderPrometheus();
  size_t start_pos = out.find("\nbinchain_process_start_time_seconds ");
  ASSERT_NE(start_pos, std::string::npos);
  EXPECT_GT(atoll(out.c_str() + start_pos +
                  strlen("\nbinchain_process_start_time_seconds ")),
            0);
}

// -------------------------------------------------- publish-pipeline spans

TEST(PublishTraceTest, PublishRecordsAPipelineSpanPerBatch) {
  auto genesis = std::make_unique<Database>();
  workloads::Fig7a(*genesis, 8);
  SnapshotManager manager(std::move(genesis));
  manager.Seal();

  const uint64_t before_us = obs::SteadyNowUs();
  manager.AddFact("up", {"p1", "p2"});
  ASSERT_TRUE(manager.Publish().status.ok());
  manager.AddFact("up", {"p2", "p3"});
  ASSERT_TRUE(manager.Publish().status.ok());

  std::vector<PublishTrace> spans = manager.publish_recorder().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].publish_id, 1u);
  EXPECT_EQ(spans[1].publish_id, 2u);
  EXPECT_EQ(spans[0].epoch, 1u);
  EXPECT_EQ(spans[1].epoch, 2u);
  for (const PublishTrace& s : spans) {
    EXPECT_FALSE(s.refused);
    EXPECT_EQ(s.facts_added, 1u);
    EXPECT_EQ(s.relations_touched, 1u);
    EXPECT_GE(s.start_us, before_us);
    EXPECT_GT(s.total_ms, 0);
    // Attributed phases never exceed the wall time they partition.
    EXPECT_LE(s.stage_ms + s.freeze_ms + s.artifact_ms + s.commit_ms +
                  s.swap_ms,
              s.total_ms + 1e-9);
  }
  EXPECT_GT(spans[1].start_us, spans[0].start_us);

  // A third one-fact publish merges the two delta layers below it: the
  // span carries the compaction PublishStats counted.
  manager.AddFact("up", {"p3", "p4"});
  PublishStats merged = manager.Publish();
  EXPECT_EQ(merged.relations_merged, 1u);
  EXPECT_GT(merged.rows_compacted, 0u);
  spans = manager.publish_recorder().Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[2].relations_merged, merged.relations_merged);
  EXPECT_EQ(spans[2].rows_compacted, merged.rows_compacted);
  std::string json;
  spans[2].RenderJson(&json);
  EXPECT_NE(json.find("\"rows_compacted\": " +
                      std::to_string(merged.rows_compacted)),
            std::string::npos)
      << json;
}

/// A durability sink that refuses every commit, to drive the refused-span
/// path without fault-injection machinery.
class RefusingSink : public DurabilitySink {
 public:
  Status StageAdd(const std::string&,
                  const std::vector<std::string>&) override {
    return Status::Ok();
  }
  Status StageDelete(const std::string&,
                     const std::vector<std::string>&) override {
    return Status::Ok();
  }
  Status Commit(uint64_t) override {
    return Status::Internal("sink refuses");
  }
  void Published(const Database&) override {}
  void Sealed(const Database&) override {}
};

TEST(PublishTraceTest, RefusedCommitRecordsARefusedSpan) {
  auto genesis = std::make_unique<Database>();
  workloads::Fig7a(*genesis, 8);
  SnapshotManager manager(std::move(genesis));
  RefusingSink sink;
  manager.SetDurabilitySink(&sink);
  manager.Seal();

  manager.AddFact("up", {"p1", "p2"});
  EXPECT_FALSE(manager.Publish().status.ok());

  std::vector<PublishTrace> spans = manager.publish_recorder().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].refused);
  // No tip swap happened, so no time is attributed to one.
  EXPECT_EQ(spans[0].swap_ms, 0);
  EXPECT_GT(spans[0].total_ms, 0);
}

// ------------------------------------------------------- slow-query sink

TEST(SlowLogTest, ThresholdAndSamplingGateWrites) {
  TempFile file;
  obs::SlowQueryLog log;
  ASSERT_TRUE(log.Open(file.path(), /*min_ms=*/5.0, /*sample_every=*/2).ok());
  ASSERT_TRUE(log.enabled());

  QueryTrace fast;
  fast.query_id = 1;
  fast.total_ms = 1.0;
  log.MaybeRecord(fast);  // below threshold: not even counted as seen

  for (uint64_t id = 2; id <= 5; ++id) {
    QueryTrace slow;
    slow.query_id = id;
    slow.total_ms = 50.0;
    log.MaybeRecord(slow);
  }
  EXPECT_EQ(log.seen(), 4u);
  EXPECT_EQ(log.written(), 2u);  // every 2nd qualifying span: ids 2 and 4
  log.Close();
  EXPECT_FALSE(log.enabled());

  std::vector<std::string> lines = file.Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("{\"unix_ms\": ", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("\"query_id\": 2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"query_id\": 4"), std::string::npos);
}

TEST(SlowLogTest, ServiceAppendsQualifyingSpansAsJsonl) {
  TempFile file;
  Database db;
  workloads::Fig7a(db, 32);
  Program program = SgProgram(db);
  QueryServiceOptions opts;
  opts.num_threads = 2;
  opts.slow_query_log_path = file.path();
  opts.slow_query_log_min_ms = 0;  // everything qualifies
  QueryResponse resp;
  {
    QueryService service(&db, program, opts);
    ASSERT_TRUE(service.status().ok()) << service.status().message();
    QueryRequest req{"sg", "", "", {}};
    resp = service.Eval(req);
    ASSERT_TRUE(resp.status.ok());
    // The sink writes after the completion notify, off the batch lock —
    // the destructor joins the workers, so the line is durable past here.
  }

  std::vector<std::string> lines = file.Lines();
  ASSERT_GE(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"trace\": {\"query_id\": "), std::string::npos)
      << lines[0];
  EXPECT_NE(
      lines[0].find("\"query_id\": " + std::to_string(resp.trace.query_id)),
      std::string::npos);
}

// ------------------------------------------------------ Chrome trace JSON

TEST(ChromeTraceTest, EmptyRingsStillRenderAValidDocument) {
  std::string out = obs::RenderChromeTrace({}, {});
  EXPECT_NE(out.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(out.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  EXPECT_EQ(out.substr(out.size() - 4), "]\n}\n");
}

TEST(ChromeTraceTest, OverlappingQueriesSpreadAcrossLanes) {
  // q1 [0, 10ms) and q2 [1ms, 11ms) overlap -> distinct lanes; q3 starts
  // at 50ms, after both ended -> reuses the first lane.
  QueryTrace q1, q2, q3;
  q1.query_id = 1;
  q1.start_us = 0;
  q1.total_ms = 10;
  q2.query_id = 2;
  q2.start_us = 1000;
  q2.total_ms = 10;
  q3.query_id = 3;
  q3.start_us = 50000;
  q3.total_ms = 1;
  std::string out = obs::RenderChromeTrace({q1, q2, q3}, {});
  EXPECT_NE(out.find("\"queries-0\""), std::string::npos);
  EXPECT_NE(out.find("\"queries-1\""), std::string::npos);
  EXPECT_EQ(out.find("\"queries-2\""), std::string::npos);  // two lanes only
  // Lane assignment: q1 tid 2, q2 tid 3, q3 back on tid 2.
  EXPECT_NE(out.find("\"tid\": 2, \"cat\": \"query\", \"name\": \"query 1\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"tid\": 3, \"cat\": \"query\", \"name\": \"query 2\""),
            std::string::npos);
  EXPECT_NE(out.find("\"tid\": 2, \"cat\": \"query\", \"name\": \"query 3\""),
            std::string::npos);
}

TEST(ChromeTraceTest, PublishSlicesCarryPipelinePhaseChildren) {
  PublishTrace p;
  p.publish_id = 1;
  p.epoch = 4;
  p.start_us = 2000;
  p.stage_ms = 1;
  p.freeze_ms = 2;
  p.artifact_ms = 0;  // zero phases are elided, not rendered as 0-width
  p.commit_ms = 3;
  p.swap_ms = 0.5;
  p.total_ms = 7;
  p.facts_added = 9;
  std::string out = obs::RenderChromeTrace({}, {p});
  EXPECT_NE(out.find("\"name\": \"publish e4\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"stage\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"freeze\""), std::string::npos);
  EXPECT_EQ(out.find("\"name\": \"artifact_refresh\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"wal_commit\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"tip_swap\""), std::string::npos);
  // Phases lay end-to-end from the parent's start: wal_commit begins after
  // stage (1ms) + freeze (2ms) => ts 2000 + 3000 us.
  EXPECT_NE(out.find("\"name\": \"wal_commit\", \"ts\": 5000.0"),
            std::string::npos)
      << out;
  // All publish slices share the dedicated publish lane (tid 1).
  EXPECT_NE(out.find("\"thread_name\", \"args\": {\"name\": \"publish\"}"),
            std::string::npos);
}

TEST(TraceSpanTest, RecordMetricsOffStillFillsResponseTraces) {
  Database db;
  workloads::Fig7a(db, 32);
  Program program = SgProgram(db);
  QueryServiceOptions opts;
  opts.num_threads = 1;
  opts.record_metrics = false;
  QueryService service(&db, program, opts);
  ASSERT_TRUE(service.status().ok());
  QueryRequest req{"sg", "", "", {}};
  QueryResponse resp = service.Eval(req);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_GT(resp.trace.query_id, 0u);
  EXPECT_EQ(resp.trace.answers, resp.tuples.size());
  // But nothing reaches the flight recorder (the A/B bench switch).
  EXPECT_TRUE(service.flight_recorder().Snapshot().empty());
}

}  // namespace
}  // namespace binchain
