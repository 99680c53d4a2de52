// Concurrency semantics of the query service: identical result sets and
// deterministic aggregate stats across thread counts, engine reuse across
// repeated queries, freeze behavior of the storage snapshot, a stress run
// with overlapping sources on the Figure-8 cyclic workload, the async
// submission surface — futures, mid-flight deadline/cancellation unwinds,
// queue-depth admission, batch aggregates, and a streaming sink that
// refuses a chunk — the single-flight rules that collapse identical
// requests, and a seeded stress run that mixes every submission path at
// once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/answer_cache.h"
#include "datalog/parser.h"
#include "eval/answer_sink.h"
#include "service/query_service.h"
#include "service/thread_pool.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

Program SgProgram(Database& db) {
  return ParseProgram(workloads::SgProgramText(), db.symbols()).take();
}

/// All-sources batch over every constant of the database.
std::vector<QueryRequest> AllSourcesBatch(const Database& db,
                                          const QueryOptions& options = {}) {
  std::set<std::string> constants;
  for (const std::string& name : db.relation_names()) {
    for (TupleRef t : db.Find(name)->tuples()) {
      for (SymbolId c : t) constants.insert(db.symbols().Name(c));
    }
  }
  std::vector<QueryRequest> batch;
  for (const std::string& c : constants) {
    QueryRequest req;
    req.pred = "sg";
    req.source = c;
    req.options = options;
    batch.push_back(std::move(req));
  }
  return batch;
}

void ExpectSameResponses(const std::vector<QueryResponse>& a,
                         const std::vector<QueryResponse>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status.ok(), b[i].status.ok()) << i;
    EXPECT_EQ(a[i].tuples, b[i].tuples) << i;
    EXPECT_EQ(a[i].stats.nodes, b[i].stats.nodes) << i;
    EXPECT_EQ(a[i].stats.iterations, b[i].stats.iterations) << i;
    EXPECT_EQ(a[i].fetches, b[i].fetches) << i;
  }
}

TEST(ThreadPoolTest, RunsEverySubmittedTaskExactlyOnceAndDrainsOnExit) {
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (size_t i = 0; i < hits.size(); ++i) {
      pool.Submit([&hits, i](size_t worker) {
        EXPECT_LT(worker, 4u);
        ++hits[i];
      });
    }
    // Destruction drains: every accepted task runs before join.
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ServiceTest, BatchMatchesSingleThreadedOnFig7Samples) {
  for (auto build : {&workloads::Fig7a, &workloads::Fig7b, &workloads::Fig7c}) {
    Database db;
    build(db, 24);
    Program program = SgProgram(db);
    std::vector<QueryRequest> batch = AllSourcesBatch(db);
    ASSERT_FALSE(batch.empty());

    QueryService seq(&db, program, {1});
    ASSERT_TRUE(seq.status().ok()) << seq.status().message();
    BatchStats seq_stats;
    auto seq_responses = seq.EvalBatch(batch, &seq_stats);

    QueryService par(&db, program, {4});
    ASSERT_TRUE(par.status().ok()) << par.status().message();
    BatchStats par_stats;
    auto par_responses = par.EvalBatch(batch, &par_stats);

    ExpectSameResponses(seq_responses, par_responses);
    // Aggregates are sums of per-query values: identical for any schedule.
    EXPECT_EQ(seq_stats.queries, par_stats.queries);
    EXPECT_EQ(seq_stats.failed, par_stats.failed);
    EXPECT_EQ(seq_stats.tuples, par_stats.tuples);
    EXPECT_EQ(seq_stats.fetches, par_stats.fetches);
    EXPECT_EQ(seq_stats.total.nodes, par_stats.total.nodes);
    EXPECT_EQ(seq_stats.total.arcs, par_stats.total.arcs);
    EXPECT_EQ(seq_stats.total.iterations, par_stats.total.iterations);
    EXPECT_EQ(seq_stats.total.expansions, par_stats.total.expansions);
    EXPECT_EQ(seq_stats.total.answers_per_iteration,
              par_stats.total.answers_per_iteration);
    EXPECT_EQ(seq_stats.total.answers_per_iteration.back(), seq_stats.tuples);
  }
}

TEST(ServiceTest, RepeatedQueryOnOneServiceIsDeterministic) {
  // Engine reuse: the same request through the same (warm) worker contexts
  // must reproduce answers and stats exactly.
  Database db;
  std::string a = workloads::Fig7b(db, 16);
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());
  QueryRequest req;
  req.pred = "sg";
  req.source = a;
  QueryResponse first = service.Eval(req);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.tuples.empty());
  for (int i = 0; i < 5; ++i) {
    QueryResponse again = service.Eval(req);
    ASSERT_TRUE(again.status.ok());
    EXPECT_EQ(again.tuples, first.tuples);
    EXPECT_EQ(again.stats.nodes, first.stats.nodes);
    EXPECT_EQ(again.stats.arcs, first.stats.arcs);
    EXPECT_EQ(again.stats.iterations, first.stats.iterations);
    EXPECT_EQ(again.fetches, first.fetches);
  }
}

TEST(ServiceTest, AllBindingPatternsThroughTheService) {
  Database db;
  std::string a = workloads::Fig7c(db, 8);
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());

  QueryResponse bound_free = service.Eval({"sg", a, "", {}});
  ASSERT_TRUE(bound_free.status.ok());
  ASSERT_FALSE(bound_free.tuples.empty());

  // p(a, b): membership of a known answer.
  const Tuple& first = bound_free.tuples.front();
  QueryResponse bound_bound = service.Eval(
      {"sg", db.symbols().Name(first[0]), db.symbols().Name(first[1]), {}});
  ASSERT_TRUE(bound_bound.status.ok());
  EXPECT_EQ(bound_bound.tuples.size(), 1u);

  // p(X, b): the inverted system; must include (a, b).
  QueryResponse free_bound =
      service.Eval({"sg", "", db.symbols().Name(first[1]), {}});
  ASSERT_TRUE(free_bound.status.ok());
  EXPECT_NE(std::find(free_bound.tuples.begin(), free_bound.tuples.end(),
                      first),
            free_bound.tuples.end());

  // p(X, Y): all pairs; every bound-free answer appears.
  QueryResponse free_free = service.Eval({"sg", "", ""});
  ASSERT_TRUE(free_free.status.ok());
  for (const Tuple& t : bound_free.tuples) {
    EXPECT_NE(std::find(free_free.tuples.begin(), free_free.tuples.end(), t),
              free_free.tuples.end());
  }
}

TEST(ServiceTest, TraceSourceIsTheBoundConstant) {
  // The span's source is the SymbolId of the bound argument on both bound
  // patterns, evaluated or served from the answer cache.
  Database db;
  std::string a = workloads::Fig7c(db, 8);
  QueryService::Options opts;
  opts.num_threads = 2;
  opts.answer_cache_bytes = 1 << 20;
  QueryService service(&db, SgProgram(db), opts);
  ASSERT_TRUE(service.status().ok());
  const SymbolId a_id = *db.symbols().Find(a);
  const SymbolId b_id = *db.symbols().Find("b1");
  for (bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cache hit" : "evaluated");
    QueryResponse forward =
        service.Eval(QueryRequest().set_pred("sg").set_source(a));
    ASSERT_TRUE(forward.status.ok());
    EXPECT_EQ(forward.trace.cache_hit, cached);
    EXPECT_EQ(forward.trace.source, a_id);
    QueryResponse inverted =
        service.Eval(QueryRequest().set_pred("sg").set_target("b1"));
    ASSERT_TRUE(inverted.status.ok());
    EXPECT_EQ(inverted.trace.cache_hit, cached);
    EXPECT_EQ(inverted.trace.source, b_id);
  }
}

TEST(ServiceTest, DiagonalQueryFiltersToEqualPairs) {
  Database db;
  db.AddFact("flat", {"a", "a"});
  db.AddFact("flat", {"b", "c"});
  db.AddFact("up", {"d", "b"});
  db.AddFact("down", {"c", "d"});  // sg(d, d) via up.flat.down
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());
  QueryRequest req;
  req.pred = "sg";
  req.diagonal = true;
  QueryResponse diag = service.Eval(req);
  ASSERT_TRUE(diag.status.ok()) << diag.status.message();
  SymbolId a = *db.symbols().Find("a");
  SymbolId d = *db.symbols().Find("d");
  EXPECT_EQ(diag.tuples, (std::vector<Tuple>{Tuple{a, a}, Tuple{d, d}}));
  // Malformed: diagonal with a bound argument.
  req.source = "a";
  EXPECT_FALSE(service.Eval(req).status.ok());
}

TEST(ServiceTest, ErrorAndEmptyRequestsDoNotPoisonTheBatch) {
  Database db;
  std::string a = workloads::Fig7a(db, 8);
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());
  std::vector<QueryRequest> batch = {
      {"sg", a, "", {}},
      {"nonexistent_predicate", a, "", {}},
      {"sg", "never_interned_constant", "", {}},
  };
  BatchStats stats;
  auto responses = service.EvalBatch(batch, &stats);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[0].tuples.empty());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_TRUE(responses[2].status.ok());  // unknown constant: empty answer
  EXPECT_TRUE(responses[2].tuples.empty());
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(ServiceTest, ConstructionFreezesTheDatabase) {
  Database db;
  workloads::Fig7a(db, 8);
  EXPECT_FALSE(db.frozen());
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());
  EXPECT_TRUE(db.frozen());
  EXPECT_TRUE(db.symbols().frozen());
  // Facts cannot be loaded against a frozen snapshot.
  Database frozen_db;
  workloads::Fig7a(frozen_db, 4);
  Program with_facts =
      ParseProgram("p(X, Y) :- e(X, Y). e(a, b).", frozen_db.symbols()).take();
  frozen_db.Freeze();
  QueryService bad(&frozen_db, with_facts, {1});
  EXPECT_FALSE(bad.status().ok());
  // A failed service reports the failure through responses AND BatchStats.
  BatchStats bad_stats;
  auto bad_responses = bad.EvalBatch({{"p", "a", ""}}, &bad_stats);
  ASSERT_EQ(bad_responses.size(), 1u);
  EXPECT_FALSE(bad_responses[0].status.ok());
  EXPECT_EQ(bad_stats.queries, 1u);
  EXPECT_EQ(bad_stats.failed, 1u);
}

TEST(ServiceTest, Fig8CyclicStressWithOverlappingSources) {
  // Overlapping sources over cyclic data: every worker traverses the same
  // two cycles under the |D1|*|D2| bound, repeatedly, on shared frozen
  // storage. Compare 1-thread and 4-thread runs response-for-response.
  Database db;
  workloads::Fig8(db, 7, 9);
  Program program = SgProgram(db);
  QueryOptions options;
  options.use_cyclic_bound = true;
  std::vector<QueryRequest> batch;
  for (int rep = 0; rep < 6; ++rep) {
    for (size_t i = 1; i <= 7; ++i) {
      QueryRequest req;
      req.pred = "sg";
      req.source = "a" + std::to_string(i);
      req.options = options;
      batch.push_back(std::move(req));
    }
  }

  QueryService seq(&db, program, {1});
  ASSERT_TRUE(seq.status().ok());
  BatchStats seq_stats;
  auto expected = seq.EvalBatch(batch, &seq_stats);
  EXPECT_EQ(seq_stats.failed, 0u);

  QueryService par(&db, program, {4});
  ASSERT_TRUE(par.status().ok());
  for (int round = 0; round < 3; ++round) {
    BatchStats par_stats;
    auto got = par.EvalBatch(batch, &par_stats);
    ExpectSameResponses(expected, got);
    EXPECT_EQ(par_stats.fetches, seq_stats.fetches);
    EXPECT_EQ(par_stats.total.nodes, seq_stats.total.nodes);
  }
}

TEST(ServiceTest, ExpiredDeadlineReturnsTimedOutWithoutEvaluating) {
  Database db;
  std::string a = workloads::Fig7b(db, 12);
  QueryService service(&db, SgProgram(db), {2});
  ASSERT_TRUE(service.status().ok());

  // A vanishingly small positive budget is already expired by the time any
  // worker picks the request up (the clock has nanosecond resolution), so
  // the outcome is deterministic; zero disables the deadline entirely.
  QueryRequest expired{"sg", a, "", {}};
  expired.options.deadline_ms = 1e-9;
  QueryRequest unlimited{"sg", a, "", {}};
  QueryRequest generous{"sg", a, "", {}};
  generous.options.deadline_ms = 1e9;

  BatchStats stats;
  auto responses = service.EvalBatch({expired, unlimited, generous}, &stats);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].timed_out);
  EXPECT_FALSE(responses[0].status.ok());
  EXPECT_EQ(responses[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(responses[0].tuples.empty());
  EXPECT_EQ(responses[0].stats.nodes, 0u);  // never evaluated

  EXPECT_FALSE(responses[1].timed_out);
  ASSERT_TRUE(responses[1].status.ok());
  EXPECT_FALSE(responses[1].tuples.empty());
  EXPECT_FALSE(responses[2].timed_out);
  ASSERT_TRUE(responses[2].status.ok());
  EXPECT_EQ(responses[2].tuples, responses[1].tuples);

  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.timed_out, 1u);
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// A workload whose single bound-source query runs for hundreds of
/// milliseconds uncancelled (Figure 7 (b) at n = 1024: Theta(n^2) nodes),
/// so deadlines and cancellations land provably mid-flight.
struct LongQueryRig {
  Database db;
  std::string source;
  Program program;
  LongQueryRig() : source(workloads::Fig7b(db, 1024)), program(SgProgram(db)) {}
  QueryRequest Request(double deadline_ms = 0) const {
    QueryRequest req{"sg", source, "", {}};
    req.options.deadline_ms = deadline_ms;
    return req;
  }
  /// The same query under the i-th distinct key: an iteration cap far
  /// beyond what the query needs changes the request key, not the work.
  /// Identical concurrent requests would join one flight; tests about
  /// queueing use these to keep every request its own evaluation.
  QueryRequest DistinctRequest(size_t i) const {
    QueryRequest req = Request();
    req.options.max_iterations = size_t{1} << (20 + i);
    return req;
  }
};

/// `threads` workers that shed async requests past `depth` pending ones.
QueryServiceOptions DepthOptions(size_t threads, size_t depth) {
  QueryServiceOptions opts;
  opts.num_threads = threads;
  opts.queue_depth = depth;
  return opts;
}

/// sg(a_i, Y) on the long-query rig: i = 1024 is one answer, one hop.
QueryRequest LadderTop(size_t i) {
  return QueryRequest().set_pred("sg").set_source("a" + std::to_string(i));
}

TEST(AsyncServiceTest, MidFlightDeadlineInterruptsLongQuery) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 64});
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  // Reference: the same query without a deadline, to completion.
  auto t0 = std::chrono::steady_clock::now();
  QueryResponse full = service.Eval(rig.Request());
  double uncancelled_ms = MsSince(t0);
  ASSERT_TRUE(full.status.ok());
  ASSERT_FALSE(full.tuples.empty());

  // A budget an order of magnitude below the uncancelled runtime: the
  // deadline provably passes mid-traversal, not in the queue.
  double deadline_ms = std::max(5.0, std::min(50.0, uncancelled_ms / 8));
  t0 = std::chrono::steady_clock::now();
  QueryResponse cut = service.Eval(rig.Request(deadline_ms));
  double cancelled_ms = MsSince(t0);

  EXPECT_EQ(cut.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(cut.timed_out);
  EXPECT_FALSE(cut.cancelled);
  EXPECT_TRUE(cut.partial);  // interrupted mid-flight, not at admission
  EXPECT_TRUE(cut.stats.cancelled);
  EXPECT_GT(cut.stats.cancel_checks, 0u);
  EXPECT_GT(cut.stats.nodes, 0u);  // it really was evaluating
  // The unwind happened well before uncancelled completion time.
  EXPECT_LT(cancelled_ms, uncancelled_ms / 2)
      << "uncancelled=" << uncancelled_ms << "ms cancelled=" << cancelled_ms;
  // Partial answers are a true subset of the full answer set.
  EXPECT_LT(cut.tuples.size(), full.tuples.size());
  for (const Tuple& t : cut.tuples) {
    EXPECT_TRUE(std::binary_search(full.tuples.begin(), full.tuples.end(), t));
  }
}

TEST(AsyncServiceTest, FutureCancelUnwindsInFlightQuery) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 64});
  ASSERT_TRUE(service.status().ok());

  auto t0 = std::chrono::steady_clock::now();
  QueryResponse full = service.Eval(rig.Request());
  double uncancelled_ms = MsSince(t0);
  ASSERT_TRUE(full.status.ok());

  t0 = std::chrono::steady_clock::now();
  QueryFuture future = service.Submit(rig.Request());
  ASSERT_TRUE(future.valid());
  // Wait until the worker claimed it, then give the traversal a head
  // start so the cancel provably lands mid-flight.
  while (service.pending() != 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  future.Cancel();
  QueryResponse resp = future.Take();
  double cancelled_ms = MsSince(t0);
  EXPECT_FALSE(future.valid());

  EXPECT_EQ(resp.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(resp.cancelled);
  EXPECT_FALSE(resp.timed_out);
  EXPECT_TRUE(resp.partial);
  EXPECT_LT(cancelled_ms, uncancelled_ms / 2)
      << "uncancelled=" << uncancelled_ms << "ms cancelled=" << cancelled_ms;
}

TEST(AsyncServiceTest, DroppedFutureCancelsAndFreesTheWorker) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 64});
  ASSERT_TRUE(service.status().ok());

  auto t0 = std::chrono::steady_clock::now();
  QueryResponse full = service.Eval(rig.Request());
  double uncancelled_ms = MsSince(t0);
  ASSERT_TRUE(full.status.ok());

  t0 = std::chrono::steady_clock::now();
  {
    QueryFuture dropped = service.Submit(rig.Request());
    while (service.pending() != 0) std::this_thread::yield();
    // Dropping the future unconsumed cancels the in-flight query.
  }
  // The single worker frees up almost immediately: a follow-up query on
  // the same (1-thread) service completes long before the abandoned query
  // could have run to completion.
  QueryRequest cheap{"sg", rig.source, rig.source, {}};
  cheap.options.max_iterations = 1;
  QueryResponse after = service.Eval(cheap);
  double followup_ms = MsSince(t0);
  EXPECT_TRUE(after.status.ok());
  EXPECT_LT(followup_ms, uncancelled_ms / 2)
      << "uncancelled=" << uncancelled_ms << "ms follow-up=" << followup_ms;
}

TEST(AsyncServiceTest, QueueOverloadShedsWithKOverloaded) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 2});
  ASSERT_TRUE(service.status().ok());

  // Park the single worker on a long query and fill the 2-deep queue.
  // Distinct keys: identical requests would join the running flight.
  QueryFuture running = service.Submit(rig.DistinctRequest(0));
  while (service.pending() != 0) std::this_thread::yield();
  QueryFuture queued1 = service.Submit(rig.DistinctRequest(1));
  QueryFuture queued2 = service.Submit(rig.DistinctRequest(2));
  EXPECT_EQ(service.pending(), 2u);

  // Past the high-water mark: shed immediately, future already completed.
  QueryFuture shed = service.Submit(rig.DistinctRequest(3));
  EXPECT_TRUE(shed.Ready());
  QueryResponse shed_resp = shed.Take();
  EXPECT_EQ(shed_resp.status.code(), StatusCode::kOverloaded);
  EXPECT_TRUE(shed_resp.tuples.empty());

  // Unwind the parked work; queued queries are answered kCancelled
  // without evaluating.
  running.Cancel();
  queued1.Cancel();
  queued2.Cancel();
  QueryResponse r1 = queued1.Take();
  EXPECT_EQ(r1.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(r1.stats.nodes, 0u);  // never evaluated
  QueryResponse r0 = running.Take();
  EXPECT_EQ(r0.status.code(), StatusCode::kCancelled);
  queued2.Wait();
}

TEST(AsyncServiceTest, BatchAdmissionShedsOverflowAndReportsAggregates) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 2});
  ASSERT_TRUE(service.status().ok());

  // Park the worker so the queue state is deterministic.
  QueryFuture running = service.Submit(rig.Request());
  while (service.pending() != 0) std::this_thread::yield();

  // Distinct iteration caps (all far beyond what the query needs) give the
  // five requests distinct keys: identical requests would be collapsed by
  // single-flight into a single evaluation, and this test is about the
  // queue overflowing.
  std::vector<QueryRequest> batch(5, rig.Request());
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].options.max_iterations = 1 << (20 + i);
  }
  BatchHandle handle = service.SubmitBatch(batch);
  ASSERT_EQ(handle.size(), 5u);
  // Queue depth 2: exactly two of the five were admitted, three shed.
  handle.Cancel();   // the two admitted ones unwind as kCancelled
  running.Cancel();  // free the worker so the admitted pair completes

  BatchStats stats;
  std::vector<QueryResponse> responses = handle.Take(&stats);
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_EQ(stats.failed, 5u);
  EXPECT_EQ(stats.overloaded, 3u);
  EXPECT_EQ(stats.cancelled, 2u);
  size_t overloaded = 0, cancelled = 0;
  for (const QueryResponse& r : responses) {
    if (r.status.code() == StatusCode::kOverloaded) ++overloaded;
    if (r.status.code() == StatusCode::kCancelled) ++cancelled;
  }
  EXPECT_EQ(overloaded, 3u);
  EXPECT_EQ(cancelled, 2u);
  running.Wait();
}

/// Refuses every chunk, as the data plane's sink does once its client is
/// gone.
class RefusingSink : public AnswerSink {
 public:
  bool OnAnswers(const Tuple*, size_t, const SymbolTable&) override {
    ++calls;
    return false;
  }
  int calls = 0;
};

// A sink that refuses its first chunk cancels the request: the engine
// unwinds at its next cancellation point with a partial answer set, the
// sink hears nothing more, and the one worker is free for the next query.
TEST(AsyncServiceTest, RefusedChunkCancelsTheQueryAndFreesTheWorker) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, DepthOptions(1, 64));
  ASSERT_TRUE(service.status().ok());
  QueryResponse full = service.Eval(rig.Request());
  ASSERT_TRUE(full.status.ok());

  RefusingSink sink;
  QueryResponse cut = service.Eval(rig.Request().set_sink(&sink));
  EXPECT_EQ(cut.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(cut.cancelled);
  EXPECT_FALSE(cut.timed_out);
  EXPECT_TRUE(cut.partial);
  EXPECT_EQ(cut.trace.chunks, 1u);
  EXPECT_EQ(sink.calls, 1);
  EXPECT_LT(cut.tuples.size(), full.tuples.size());

  QueryResponse next = service.Eval(LadderTop(1024));
  ASSERT_TRUE(next.status.ok());
  EXPECT_EQ(next.tuples.size(), 1u);
}

TEST(AsyncServiceTest, DeadlineBudgetIncludesQueueTime) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, {1, 64});
  ASSERT_TRUE(service.status().ok());

  // Occupy the worker long enough for the queued request's budget to
  // expire before pickup.
  QueryFuture running = service.Submit(rig.Request());
  while (service.pending() != 0) std::this_thread::yield();
  QueryFuture starved = service.Submit(rig.Request(/*deadline_ms=*/5));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  running.Cancel();
  running.Wait();
  QueryResponse resp = starved.Take();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resp.timed_out);
  EXPECT_FALSE(resp.partial);       // expired in the queue, not mid-flight
  EXPECT_EQ(resp.stats.nodes, 0u);  // answered without evaluating
}

TEST(AsyncServiceTest, SubmitBatchMatchesBlockingEvalBatch) {
  Database db;
  workloads::Fig7b(db, 16);
  Program program = SgProgram(db);
  QueryService service(&db, program, {2, 256});
  ASSERT_TRUE(service.status().ok());
  std::vector<QueryRequest> batch = AllSourcesBatch(db);

  BatchStats blocking_stats;
  auto blocking = service.EvalBatch(batch, &blocking_stats);

  BatchHandle handle = service.SubmitBatch(batch);
  BatchStats async_stats;
  auto async = handle.Take(&async_stats);

  ExpectSameResponses(blocking, async);
  EXPECT_EQ(blocking_stats.tuples, async_stats.tuples);
  EXPECT_EQ(blocking_stats.fetches, async_stats.fetches);
  EXPECT_EQ(blocking_stats.failed, async_stats.failed);
  EXPECT_EQ(async_stats.overloaded, 0u);
}

TEST(AsyncServiceTest, BlockingBatchBackpressuresInsteadOfShedding) {
  // A queue far smaller than the batch: the blocking path waits for room
  // rather than shedding, so every query completes.
  Database db;
  workloads::Fig7b(db, 16);
  QueryService service(&db, SgProgram(db), {2, 2});
  ASSERT_TRUE(service.status().ok());
  std::vector<QueryRequest> batch = AllSourcesBatch(db);
  ASSERT_GT(batch.size(), 4u);
  BatchStats stats;
  auto responses = service.EvalBatch(batch, &stats);
  EXPECT_EQ(stats.queries, batch.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.overloaded, 0u);
  for (const QueryResponse& r : responses) EXPECT_TRUE(r.status.ok());
}

// Admission is decided before a flight exists, so a full queue refuses
// only requests that would evaluate: a duplicate of a queued leader joins
// it and is answered, a distinct request is shed.
TEST(AsyncServiceTest, FullQueueAdmitsDuplicatesOfAQueuedLeader) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, DepthOptions(1, 1));
  ASSERT_TRUE(service.status().ok());
  QueryFuture running = service.Submit(rig.DistinctRequest(0));
  while (service.pending() != 0) std::this_thread::yield();
  const QueryRequest cheap = LadderTop(1024);
  QueryFuture queued = service.Submit(cheap);
  QueryFuture duplicate = service.Submit(cheap);
  QueryFuture distinct = service.Submit(rig.DistinctRequest(1));
  EXPECT_EQ(service.pending(), 1u);
  EXPECT_TRUE(distinct.Ready());
  EXPECT_EQ(distinct.Take().status.code(), StatusCode::kOverloaded);

  running.Cancel();
  QueryResponse led = queued.Take();
  QueryResponse joined = duplicate.Take();
  ASSERT_TRUE(led.status.ok()) << led.status.message();
  ASSERT_TRUE(joined.status.ok()) << joined.status.message();
  EXPECT_FALSE(led.trace.collapsed);
  EXPECT_TRUE(joined.trace.collapsed);
  EXPECT_EQ(joined.tuples, led.tuples);
  EXPECT_EQ(led.tuples.size(), 1u);
  EXPECT_EQ(service.pending(), 0u);
  running.Wait();
}

// A blocking batch never sheds, but its pending requests are admitted work
// like any other: they count toward the async high-water mark.
TEST(AsyncServiceTest, PendingBlockingBatchCountsTowardAsyncHighWaterMark) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, DepthOptions(1, 2));
  ASSERT_TRUE(service.status().ok());
  QueryFuture running = service.Submit(rig.DistinctRequest(0));
  while (service.pending() != 0) std::this_thread::yield();
  // Four distinct cheap queries, twice the queue depth.
  std::vector<QueryRequest> batch;
  for (size_t i = 0; i < 4; ++i) batch.push_back(LadderTop(1024 - i));
  std::vector<QueryResponse> got;
  std::thread client([&] { got = service.EvalBatch(batch); });
  // Bounded, so a service that does not count blocking work fails here
  // instead of hanging.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.pending() < batch.size() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  const size_t pending = service.pending();
  QueryFuture probe = service.Submit(rig.DistinctRequest(1));
  const bool shed_at_once = probe.Ready();
  probe.Cancel();
  running.Cancel();
  const StatusCode probe_code = probe.Take().status.code();
  client.join();

  EXPECT_EQ(pending, batch.size());
  EXPECT_TRUE(shed_at_once);
  EXPECT_EQ(probe_code, StatusCode::kOverloaded);
  ASSERT_EQ(got.size(), batch.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].status.ok()) << got[i].status.message();
    EXPECT_EQ(got[i].tuples.size(), i + 1);
  }
  EXPECT_EQ(service.pending(), 0u);
}

// A future waits for its own query, not for its batch: an awaited query's
// completion wakes it while the batch's other queries still run.
TEST(AsyncServiceTest, FutureWakesWhenItsQueryCompletesBeforeTheBatch) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, DepthOptions(2, 64));
  ASSERT_TRUE(service.status().ok());
  BatchHandle handle = service.SubmitBatch({rig.Request(), LadderTop(1024)});
  QueryResponse cheap = handle.future(1).Take();
  EXPECT_TRUE(cheap.status.ok()) << cheap.status.message();
  EXPECT_FALSE(handle.future(0).Ready());  // the long query still runs
  handle.Cancel();
  handle.Wait();
}

/// The Figure 8 overlap batch bench_service runs: every up-cycle source of
/// Fig8(m = 17, n = 19) four times over — 68 requests, 17 distinct.
std::vector<QueryRequest> Fig8x4Batch() {
  std::vector<QueryRequest> batch;
  for (int rep = 0; rep < 4; ++rep) {
    for (size_t i = 1; i <= 17; ++i) {
      QueryRequest req{"sg", "a" + std::to_string(i), "", {}};
      req.options.use_cyclic_bound = true;
      batch.push_back(std::move(req));
    }
  }
  return batch;
}

QueryServiceOptions SingleFlightOptions(size_t threads, size_t cache_bytes) {
  QueryServiceOptions opts;
  opts.num_threads = threads;
  opts.queue_depth = 1024;
  opts.answer_cache_bytes = cache_bytes;
  return opts;
}

// Every path collapses in-batch duplicates exactly: the whole batch joins
// its flights before any leader is dispatched, so no leader can finish
// (and dissolve its flight) while a duplicate is still on its way in.
TEST(SingleFlightTest, DuplicatesInOneBatchEvaluateOnce) {
  Database db;
  workloads::Fig8(db, 17, 19);
  Program program = SgProgram(db);
  const std::vector<QueryRequest> batch = Fig8x4Batch();
  std::vector<QueryResponse> reference;
  BatchStats ref_stats;
  {
    QueryService ref(&db, program, SingleFlightOptions(1, 0));
    ASSERT_TRUE(ref.status().ok()) << ref.status().message();
    reference = ref.EvalBatch(batch, &ref_stats);
  }
  for (const size_t threads : {1, 8}) {
    for (const size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
      QueryService service(&db, program,
                           SingleFlightOptions(threads, cache_bytes));
      ASSERT_TRUE(service.status().ok()) << service.status().message();
      for (const bool async : {false, true}) {
        for (int rep = 0; rep < 20; ++rep) {
          SCOPED_TRACE(std::string(async ? "SubmitBatch" : "EvalBatch") +
                       " threads=" + std::to_string(threads) +
                       (cache_bytes > 0 ? " cache on" : " cache off") +
                       " rep=" + std::to_string(rep));
          if (service.answer_cache() != nullptr) {
            service.answer_cache()->Clear();
          }
          BatchStats stats;
          std::vector<QueryResponse> got =
              async ? service.SubmitBatch(batch).Take(&stats)
                    : service.EvalBatch(batch, &stats);
          ASSERT_EQ(got.size(), reference.size());
          // Waiters replay their leader's effort counters, so the batch
          // totals depend on neither path, workers nor cache.
          EXPECT_EQ(stats.tuples, ref_stats.tuples);
          EXPECT_EQ(stats.fetches, ref_stats.fetches);
          EXPECT_EQ(stats.total.nodes, ref_stats.total.nodes);
          EXPECT_EQ(stats.total.iterations, ref_stats.total.iterations);
          EXPECT_EQ(stats.total.expansions, ref_stats.total.expansions);
          size_t collapsed = 0;
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(got[i].status.ok()) << got[i].status.message();
            EXPECT_FALSE(got[i].trace.cache_hit) << i;
            EXPECT_EQ(got[i].tuples, reference[i].tuples) << i;
            if (got[i].trace.collapsed) ++collapsed;
          }
          EXPECT_EQ(collapsed, 51u);  // 17 evaluations for 68 requests
        }
      }
    }
  }
}

// A request never joins a flight whose leader may run past its deadline:
// a parked waiter is answered only when its leader finishes, so joining a
// deadline-free leader would answer the request long after its budget.
TEST(SingleFlightTest, WaiterNeverOutlivesItsDeadline) {
  LongQueryRig rig;
  for (const size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
    SCOPED_TRACE(cache_bytes > 0 ? "cache on" : "cache off");
    QueryService service(&rig.db, rig.program,
                         SingleFlightOptions(2, cache_bytes));
    ASSERT_TRUE(service.status().ok()) << service.status().message();
    auto t0 = std::chrono::steady_clock::now();
    QueryResponse full = service.Eval(rig.Request());
    const double uncancelled_ms = MsSince(t0);
    ASSERT_TRUE(full.status.ok());
    if (service.answer_cache() != nullptr) service.answer_cache()->Clear();

    QueryFuture leader = service.Submit(rig.Request());
    while (service.pending() != 0) std::this_thread::yield();
    // A budget far below the leader's runtime, so joining would be late.
    const double deadline_ms =
        std::max(1.0, std::min(10.0, uncancelled_ms / 16));
    t0 = std::chrono::steady_clock::now();
    QueryResponse late = service.Submit(rig.Request(deadline_ms)).Take();
    const double answered_ms = MsSince(t0);
    EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(late.timed_out);
    EXPECT_FALSE(late.trace.collapsed);
    EXPECT_LT(answered_ms, uncancelled_ms / 2)
        << "uncancelled=" << uncancelled_ms << "ms answered=" << answered_ms;
    leader.Cancel();
    leader.Wait();
  }
}

// Blocking and async requests collapse onto each other: a leader is shed
// before its flight exists or not at all, so a blocking waiter never rides
// a leader that might be refused.
TEST(SingleFlightTest, BlockingDuplicateJoinsAsyncLeader) {
  LongQueryRig rig;
  QueryService service(&rig.db, rig.program, SingleFlightOptions(2, 0));
  ASSERT_TRUE(service.status().ok()) << service.status().message();
  QueryFuture leader = service.Submit(rig.Request());
  while (service.pending() != 0) std::this_thread::yield();
  QueryResponse joined = service.Eval(rig.Request());
  QueryResponse led = leader.Take();
  ASSERT_TRUE(led.status.ok()) << led.status.message();
  ASSERT_TRUE(joined.status.ok()) << joined.status.message();
  EXPECT_FALSE(led.trace.collapsed);
  EXPECT_TRUE(joined.trace.collapsed);
  EXPECT_EQ(joined.tuples, led.tuples);
}

// A leader that fails (here: its own deadline) does not fail its waiters,
// and does not make each of them pay a full evaluation either: the first
// waiter re-evaluates, the others replay its answer.
TEST(SingleFlightTest, FailedLeaderCostsOneReevaluation) {
  LongQueryRig rig;
  for (const size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
    SCOPED_TRACE(cache_bytes > 0 ? "cache on" : "cache off");
    QueryService service(&rig.db, rig.program,
                         SingleFlightOptions(2, cache_bytes));
    ASSERT_TRUE(service.status().ok()) << service.status().message();
    auto t0 = std::chrono::steady_clock::now();
    QueryResponse full = service.Eval(rig.Request());
    const double uncancelled_ms = MsSince(t0);
    ASSERT_TRUE(full.status.ok());
    if (service.answer_cache() != nullptr) service.answer_cache()->Clear();

    // One batch, so all four deadline-free waiters deterministically join
    // the leader (an earlier deadline than theirs) before it runs; its
    // budget lands well before it could finish.
    std::vector<QueryRequest> batch(5, rig.Request());
    batch[0].options.deadline_ms =
        std::max(5.0, std::min(20.0, uncancelled_ms / 8));
    std::vector<QueryResponse> got = service.SubmitBatch(batch).Take();
    EXPECT_EQ(got[0].status.code(), StatusCode::kDeadlineExceeded);
    size_t evaluated = 0;
    for (size_t i = 1; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].status.ok()) << got[i].status.message();
      EXPECT_EQ(got[i].tuples, full.tuples) << i;
      if (!got[i].trace.collapsed) ++evaluated;
    }
    EXPECT_EQ(evaluated, 1u);
  }
}

TEST(ServiceTest, ConcurrentClientBatches) {
  // Two client threads hammering the same service: batches serialize onto
  // the pool and each client still sees exactly its own results.
  Database db;
  workloads::Fig7b(db, 12);
  Program program = SgProgram(db);
  QueryService service(&db, program, {2});
  ASSERT_TRUE(service.status().ok());
  std::vector<QueryRequest> batch = AllSourcesBatch(db);
  auto expected = service.EvalBatch(batch);

  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        auto got = service.EvalBatch(batch);
        if (got.size() != expected.size()) {
          ++mismatches;
          continue;
        }
        for (size_t j = 0; j < got.size(); ++j) {
          if (got[j].tuples != expected[j].tuples) ++mismatches;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// One stress client's view of its responses. Clients only count; the
/// test thread asserts, so every failure carries the seed.
struct Dispositions {
  uint64_t submitted = 0;
  uint64_t evaluated = 0;
  uint64_t collapsed = 0;
  uint64_t cache_hits = 0;
  uint64_t shed = 0;
  uint64_t cancelled_or_timed_out = 0;
  uint64_t blocking_shed = 0;  // must stay 0: blocking calls never shed
  uint64_t wrong = 0;          // OK responses unlike the reference
  uint64_t unexpected = 0;     // any other status
  std::string first_error;

  void Count(const QueryResponse& r, bool async, const QueryResponse& ref) {
    switch (r.status.code()) {
      case StatusCode::kOk:
        if (r.tuples != ref.tuples || r.stats.nodes != ref.stats.nodes ||
            r.fetches != ref.fetches) {
          ++wrong;
          Note("answer differs from the 1-worker reference");
        }
        if (r.trace.cache_hit) {
          ++cache_hits;
        } else if (r.trace.collapsed) {
          ++collapsed;
        } else {
          ++evaluated;
        }
        break;
      case StatusCode::kOverloaded:
        ++shed;
        if (!async) ++blocking_shed;
        break;
      case StatusCode::kCancelled:
      case StatusCode::kDeadlineExceeded:
        ++cancelled_or_timed_out;
        break;
      default:
        ++unexpected;
        Note(r.status.message());
    }
  }
  void Note(const std::string& error) {
    if (first_error.empty()) first_error = error;
  }
  void Add(const Dispositions& o) {
    submitted += o.submitted;
    evaluated += o.evaluated;
    collapsed += o.collapsed;
    cache_hits += o.cache_hits;
    shed += o.shed;
    cancelled_or_timed_out += o.cancelled_or_timed_out;
    blocking_shed += o.blocking_shed;
    wrong += o.wrong;
    unexpected += o.unexpected;
    if (first_error.empty()) first_error = o.first_error;
  }
};

// Every submission path at once against a 4-deep queue: four clients mix
// Submit, SubmitBatch, Eval and EvalBatch over 16 Fig. 7(b) keys, with
// in-batch and cross-client duplicates, random deadlines and cancels, so
// sheds, cross-path collapses and failed leaders' re-evaluations meet.
// Seeded per client; cache off for odd seeds, on for even ones.
TEST(ServiceStressTest, MixedSubmittersMatchTheReferenceAndAddUp) {
  Database db;
  workloads::Fig7b(db, 64);
  Program program = SgProgram(db);
  std::vector<QueryRequest> keys;
  for (size_t i = 1; i <= 61; i += 4) {
    keys.push_back(QueryRequest().set_pred("sg").set_source(
        "a" + std::to_string(i)));
  }
  std::vector<QueryResponse> reference;
  {
    QueryService ref(&db, program, SingleFlightOptions(1, 0));
    ASSERT_TRUE(ref.status().ok()) << ref.status().message();
    reference = ref.EvalBatch(keys);
  }
  const double kDeadlinesMs[] = {0.01, 0.1, 1, 10};

  for (const uint64_t seed : {1, 2}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    QueryServiceOptions opts;
    opts.num_threads = 2;
    opts.queue_depth = 4;
    opts.answer_cache_bytes = seed % 2 == 0 ? size_t{1} << 13 : 0;
    QueryService service(&db, program, opts);
    ASSERT_TRUE(service.status().ok()) << service.status().message();
    const auto stop =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(1000);
    std::vector<Dispositions> tallies(4);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < tallies.size(); ++c) {
      clients.emplace_back([&, c] {
        Rng rng(seed * 1000 + c);
        Dispositions& t = tallies[c];
        while (std::chrono::steady_clock::now() < stop) {
          const uint64_t op = rng.Below(4);  // Submit, SubmitBatch, Eval(Batch)
          const bool async = op < 2;
          const size_t n = op % 2 == 0 ? 1 : rng.Between(1, 6);
          std::vector<size_t> picked;
          std::vector<QueryRequest> batch;
          for (size_t j = 0; j < n; ++j) {
            picked.push_back(rng.Below(keys.size()));
            batch.push_back(keys[picked.back()]);
            if (rng.Chance(1, 4)) {
              batch.back().options.deadline_ms = kDeadlinesMs[rng.Below(4)];
            }
          }
          t.submitted += n;
          std::vector<QueryResponse> got;
          if (op == 0) {
            QueryFuture f = service.Submit(batch[0]);
            if (rng.Chance(1, 5)) f.Cancel();
            got.push_back(f.Take());
          } else if (op == 1) {
            BatchHandle h = service.SubmitBatch(batch);
            if (rng.Chance(1, 5)) h.future(rng.Below(n)).Cancel();
            got = h.Take();
          } else if (op == 2) {
            got.push_back(service.Eval(batch[0]));
          } else {
            got = service.EvalBatch(batch);
          }
          if (got.size() != n) {
            t.Note("response count differs from the batch size");
            continue;
          }
          for (size_t j = 0; j < n; ++j) {
            t.Count(got[j], async, reference[picked[j]]);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();

    Dispositions total;
    for (const Dispositions& t : tallies) total.Add(t);
    EXPECT_EQ(total.first_error, "");
    EXPECT_EQ(total.wrong, 0u);
    EXPECT_EQ(total.unexpected, 0u);
    EXPECT_EQ(total.blocking_shed, 0u);
    EXPECT_EQ(total.evaluated + total.collapsed + total.cache_hits +
                  total.shed + total.cancelled_or_timed_out,
              total.submitted);
    EXPECT_GT(total.evaluated, 0u);
    EXPECT_EQ(service.pending(), 0u);
    std::printf(
        "seed %llu: %llu submitted, %llu evaluated, %llu collapsed, "
        "%llu cache hits, %llu shed, %llu cancelled or timed out\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(total.submitted),
        static_cast<unsigned long long>(total.evaluated),
        static_cast<unsigned long long>(total.collapsed),
        static_cast<unsigned long long>(total.cache_hits),
        static_cast<unsigned long long>(total.shed),
        static_cast<unsigned long long>(total.cancelled_or_timed_out));
  }
}

}  // namespace
}  // namespace binchain
