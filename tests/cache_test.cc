// The answer cache in front of QueryService: exact-match hits replay the
// stored response verbatim, publishes invalidate exactly the entries whose
// supporting relations changed (copy-on-write pointer identity plus the
// dead_mutations tombstone counter), concurrent identical misses collapse
// onto one evaluation (the TSan target of this file), and the byte cap
// holds under eviction. Throughout, a cache-on service must be
// observationally identical to a cache-off one — the cache is an
// optimization, never a semantics change.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/answer_cache.h"
#include "datalog/parser.h"
#include "live/snapshot_manager.h"
#include "service/query_service.h"
#include "storage/database.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

using cache::AnswerCache;
using cache::CacheSnapshot;
using cache::CachedAnswer;
using cache::SupportDep;

/// Two independent closures over disjoint base relations, so the support
/// sets separate cleanly: support(pup) = {up}, support(pdown) = {down}.
/// A publish that touches only `down` must leave every pup entry valid.
const char* kTwoClosureProgram =
    "pup(X, Y) :- up(X, Y).\n"
    "pup(X, Y) :- up(X, Z), pup(Z, Y).\n"
    "pdown(X, Y) :- down(X, Y).\n"
    "pdown(X, Y) :- down(X, Z), pdown(Z, Y).\n";

/// up-chain u1 -> ... -> u<n> and down-chain d1 -> ... -> d<n>, built in a
/// deterministic order so two independently built databases intern the
/// same symbols to the same ids (tuples compare equal across services).
std::unique_ptr<Database> TwoChainGenesis(size_t n) {
  auto db = std::make_unique<Database>();
  db->GetOrCreate("up", 2);
  db->GetOrCreate("down", 2);
  for (size_t i = 1; i < n; ++i) {
    db->AddFact("up", {"u" + std::to_string(i), "u" + std::to_string(i + 1)});
  }
  for (size_t i = 1; i < n; ++i) {
    db->AddFact("down",
                {"d" + std::to_string(i), "d" + std::to_string(i + 1)});
  }
  return db;
}

QueryRequest Req(const char* pred, const std::string& source) {
  QueryRequest req;
  req.pred = pred;
  req.source = source;
  return req;
}

/// A live service over the two-chain workload with the answer cache on.
struct CacheRig {
  explicit CacheRig(size_t chain = 8, size_t cache_bytes = 1 << 20)
      : manager([&] {
          auto genesis = TwoChainGenesis(chain);
          program = ParseProgram(kTwoClosureProgram, genesis->symbols()).take();
          return genesis;
        }()) {
    QueryService::Options opts;
    opts.num_threads = 2;
    opts.answer_cache_bytes = cache_bytes;
    service = std::make_unique<QueryService>(&manager, program, opts);
    EXPECT_TRUE(service->status().ok()) << service->status().message();
  }

  CacheSnapshot Snap() const { return service->answer_cache()->Snapshot(); }

  Program program;
  SnapshotManager manager;
  std::unique_ptr<QueryService> service;
};

TEST(AnswerCacheTest, MissFillsThenHitReplaysVerbatim) {
  CacheRig rig;
  QueryRequest req = Req("pup", "u1");

  QueryResponse first = rig.service->Eval(req);
  ASSERT_TRUE(first.status.ok()) << first.status.message();
  EXPECT_EQ(first.tuples.size(), 7u);  // u1 reaches u2..u8
  EXPECT_FALSE(first.trace.cache_hit);
  CacheSnapshot snap = rig.Snap();
  EXPECT_EQ(snap.misses, 1u);
  EXPECT_EQ(snap.hits, 0u);
  EXPECT_EQ(snap.inserts, 1u);
  EXPECT_EQ(snap.entries, 1u);
  EXPECT_GT(snap.bytes, 0u);

  QueryResponse second = rig.service->Eval(req);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.trace.cache_hit);
  // The replay is verbatim: answers, effort counters, and fetch counts all
  // come from the stored evaluation, so batch totals cannot drift.
  EXPECT_EQ(second.tuples, first.tuples);
  EXPECT_EQ(AnswerCache::HashTuples(second.tuples),
            AnswerCache::HashTuples(first.tuples));
  EXPECT_EQ(second.fetches, first.fetches);
  EXPECT_EQ(second.stats.nodes, first.stats.nodes);
  EXPECT_EQ(second.stats.iterations, first.stats.iterations);
  EXPECT_EQ(second.stats.answers_per_iteration,
            first.stats.answers_per_iteration);
  snap = rig.Snap();
  EXPECT_EQ(snap.hits, 1u);
  EXPECT_EQ(snap.misses, 1u);
  EXPECT_EQ(snap.entries, 1u);

  // A different binding is a different key.
  QueryResponse other = rig.service->Eval(Req("pup", "u3"));
  ASSERT_TRUE(other.status.ok());
  EXPECT_FALSE(other.trace.cache_hit);
  EXPECT_EQ(rig.Snap().misses, 2u);
  EXPECT_EQ(rig.Snap().entries, 2u);
}

TEST(AnswerCacheTest, ClearDropsEntriesButKeepsCounters) {
  CacheRig rig;
  ASSERT_TRUE(rig.service->Eval(Req("pup", "u1")).status.ok());
  ASSERT_TRUE(rig.service->Eval(Req("pdown", "d1")).status.ok());
  ASSERT_EQ(rig.Snap().entries, 2u);

  rig.service->answer_cache()->Clear();
  CacheSnapshot snap = rig.Snap();
  EXPECT_EQ(snap.entries, 0u);
  EXPECT_EQ(snap.bytes, 0u);
  EXPECT_EQ(snap.misses, 2u);  // history survives Clear()

  QueryResponse r = rig.service->Eval(Req("pup", "u1"));
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.trace.cache_hit);
}

TEST(AnswerCacheTest, EvictionHoldsByteCapAndKeepsHotEntry) {
  // 32 KiB across 8 shards = 4 KiB per shard; a 64-node chain yields
  // answers of up to 63 tuples, so 64 distinct entries cannot all fit.
  CacheRig rig(/*chain=*/64, /*cache_bytes=*/32 << 10);
  QueryRequest hot = Req("pup", "u1");
  ASSERT_TRUE(rig.service->Eval(hot).status.ok());
  for (size_t i = 2; i <= 64; ++i) {
    ASSERT_TRUE(
        rig.service->Eval(Req("pup", "u" + std::to_string(i))).status.ok());
    // Re-touch the hot entry so it is promoted to the protected segment;
    // eviction drains probation first, so the hot entry outlives the scan.
    QueryResponse h = rig.service->Eval(hot);
    ASSERT_TRUE(h.status.ok());
    EXPECT_TRUE(h.trace.cache_hit) << "hot entry evicted after u" << i;
  }
  CacheSnapshot snap = rig.Snap();
  EXPECT_GT(snap.evictions, 0u);
  EXPECT_LE(snap.bytes, snap.max_bytes);
  EXPECT_LT(snap.entries, 64u);
}

TEST(AnswerCacheTest, PublishInvalidatesOnlyTouchedSupportSets) {
  CacheRig rig;
  QueryResponse pup1 = rig.service->Eval(Req("pup", "u1"));
  QueryResponse pdown1 = rig.service->Eval(Req("pdown", "d1"));
  ASSERT_TRUE(pup1.status.ok());
  ASSERT_TRUE(pdown1.status.ok());
  ASSERT_EQ(rig.Snap().entries, 2u);

  auto old_tip = rig.manager.Acquire();
  rig.manager.AddFact("down", {"d8", "d9"});
  ASSERT_TRUE(rig.manager.Publish().status.ok());
  auto new_tip = rig.manager.Acquire();

  // The invalidation signal is storage-level copy-on-write identity:
  // the publish touched only `down`, so the new epoch re-shares the very
  // same `up` Relation object and replaces the `down` one.
  EXPECT_EQ(new_tip->Find("up"), old_tip->Find("up"));
  EXPECT_NE(new_tip->Find("down"), old_tip->Find("down"));

  CacheSnapshot snap = rig.Snap();
  EXPECT_EQ(snap.invalidations, 1u);  // exactly the pdown entry
  EXPECT_EQ(snap.entries, 1u);

  // pup still hits — and at the *new* epoch, because its support set is
  // untouched the cached answer is provably still correct.
  QueryResponse pup2 = rig.service->Eval(Req("pup", "u1"));
  ASSERT_TRUE(pup2.status.ok());
  EXPECT_TRUE(pup2.trace.cache_hit);
  EXPECT_EQ(pup2.epoch, 1u);
  EXPECT_EQ(pup2.tuples, pup1.tuples);

  // pdown misses and re-evaluates against the grown chain.
  QueryResponse pdown2 = rig.service->Eval(Req("pdown", "d1"));
  ASSERT_TRUE(pdown2.status.ok());
  EXPECT_FALSE(pdown2.trace.cache_hit);
  EXPECT_EQ(pdown2.tuples.size(), pdown1.tuples.size() + 1);
}

TEST(AnswerCacheTest, TombstoneRetractionInvalidatesThroughPublish) {
  CacheRig rig;
  QueryResponse before = rig.service->Eval(Req("pup", "u1"));
  ASSERT_TRUE(before.status.ok());
  ASSERT_EQ(before.tuples.size(), 7u);

  rig.manager.DeleteFact("up", {"u4", "u5"});
  ASSERT_TRUE(rig.manager.Publish().status.ok());
  auto tip = rig.manager.Acquire();
  EXPECT_GT(tip->Find("up")->dead_mutations(), 0u);

  EXPECT_EQ(rig.Snap().invalidations, 1u);
  QueryResponse after = rig.service->Eval(Req("pup", "u1"));
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.trace.cache_hit);
  EXPECT_EQ(after.tuples.size(), 3u);  // u1 now reaches only u2..u4
}

// The byte cap covers everything an entry holds, the stats' answer curve
// included: two entries alike but for a 1-step vs a 4,096-step curve must
// be accounted at least the extra steps (8 B each) apart.
TEST(AnswerCacheTest, EntryBytesCountTheAnswerCurve) {
  auto answer_with_steps = [](size_t steps) {
    auto answer = std::make_shared<CachedAnswer>();
    answer->tuples.push_back({0, 1});
    for (size_t i = 1; i <= steps; ++i) {
      answer->stats.answers_per_iteration.push_back(i);
    }
    return answer;
  };
  auto accounted = [](std::shared_ptr<CachedAnswer> answer) {
    AnswerCache cache(64 << 20, /*program_fingerprint=*/1);
    cache.Insert("key", {}, std::move(answer), /*epoch=*/0);
    EXPECT_EQ(cache.Snapshot().entries, 1u);
    return cache.Snapshot().bytes;
  };
  const uint64_t short_curve = accounted(answer_with_steps(1));
  const uint64_t long_curve = accounted(answer_with_steps(4096));
  EXPECT_GE(long_curve, short_curve + (4096 - 1) * 8);
}

// The dead_mutations counter is the defensive second check behind pointer
// identity: even when an entry's support pointer still matches (as under
// pointer reuse across an ABA-style recycle), a differing tombstone count
// must invalidate. Exercised directly against the cache, which is the only
// way to hold the pointer fixed while the counter disagrees.
TEST(AnswerCacheTest, DeadMutationsMismatchInvalidatesDespitePointerMatch) {
  Database db;
  db.AddFact("up", {"a", "b"});
  SymbolId up_id = *db.symbols().Find("up");

  AnswerCache cache(1 << 20, /*program_fingerprint=*/1);
  auto answer = std::make_shared<CachedAnswer>();
  answer->tuples.push_back({0, 1});
  answer->result_hash = AnswerCache::HashTuples(answer->tuples);

  // Stamp a *different* epoch than the lookup sees, so Lookup takes the
  // per-dep re-validation path instead of the validated-epoch fast path
  // (at the stamped epoch an entry is valid by construction).
  const uint64_t other_epoch = db.epoch() + 1;
  SupportDep fresh{up_id, db.FindSharedById(up_id),
                   db.Find("up")->dead_mutations()};
  cache.Insert("k-fresh", {fresh}, answer, other_epoch);
  EXPECT_NE(cache.Lookup("k-fresh", db), nullptr);

  SupportDep stale{up_id, db.FindSharedById(up_id),
                   db.Find("up")->dead_mutations() + 1};
  cache.Insert("k-stale", {stale}, answer, other_epoch);
  EXPECT_EQ(cache.Lookup("k-stale", db), nullptr);  // dropped as invalid
  EXPECT_EQ(cache.Snapshot().invalidations, 1u);
}

// Concurrent identical misses must collapse onto one evaluation: one
// leader runs, every other submission parks on the flight and replays the
// leader's response. Single-flight is the service's, so it collapses with
// the cache off too. Run under TSan in CI.
TEST(AnswerCacheTest, SingleFlightCollapsesConcurrentIdenticalSubmits) {
  for (const size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
    SCOPED_TRACE(cache_bytes == 0 ? "cache off" : "cache on");
    auto genesis = std::make_unique<Database>();
    // Large enough that later submissions land while the leader is still
    // evaluating (Fig 7(b) is the Theta(n^2) same-generation sample).
    std::string source = workloads::Fig7b(*genesis, 384);
    Program program =
        ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
    SnapshotManager manager(std::move(genesis));
    QueryService::Options opts;
    opts.num_threads = 4;
    opts.answer_cache_bytes = cache_bytes;
    QueryService service(&manager, program, opts);
    ASSERT_TRUE(service.status().ok()) << service.status().message();

    constexpr size_t kClients = 8;
    QueryRequest req = Req("sg", source);
    std::vector<QueryFuture> futures;
    futures.reserve(kClients);
    for (size_t i = 0; i < kClients; ++i) {
      futures.push_back(service.Submit(req));
    }

    std::vector<QueryResponse> responses;
    for (QueryFuture& f : futures) responses.push_back(f.Take());

    const uint64_t expect_hash = AnswerCache::HashTuples(responses[0].tuples);
    size_t collapsed = 0, hits = 0;
    for (const QueryResponse& r : responses) {
      ASSERT_TRUE(r.status.ok()) << r.status.message();
      EXPECT_EQ(AnswerCache::HashTuples(r.tuples), expect_hash);
      EXPECT_EQ(r.tuples, responses[0].tuples);
      if (r.trace.collapsed) ++collapsed;
      if (r.trace.cache_hit) ++hits;
    }
    // Every non-leader either joined the flight (collapsed) or, had the
    // leader already finished, hit the freshly inserted entry.
    EXPECT_GE(collapsed + hits, 1u);
    EXPECT_GE(collapsed, 1u);
    if (cache_bytes > 0) {
      // The leader (+ at most a rare straggler).
      EXPECT_LE(service.answer_cache()->Snapshot().inserts, 2u);
    }
  }
}

// The cache must be invisible in the results: a cache-on service and a
// cache-off service fed the same publishes and the same (repeat-heavy)
// batches answer byte-identically at every epoch.
TEST(AnswerCacheTest, CacheOnAndOffAnswerIdenticallyAcrossPublishCycles) {
  auto off_genesis = TwoChainGenesis(8);
  auto on_genesis = TwoChainGenesis(8);
  Program off_prog =
      ParseProgram(kTwoClosureProgram, off_genesis->symbols()).take();
  Program on_prog =
      ParseProgram(kTwoClosureProgram, on_genesis->symbols()).take();
  SnapshotManager off_mgr(std::move(off_genesis));
  SnapshotManager on_mgr(std::move(on_genesis));

  QueryService::Options off_opts;
  off_opts.num_threads = 2;
  QueryService off(&off_mgr, off_prog, off_opts);
  QueryService::Options on_opts;
  on_opts.num_threads = 2;
  on_opts.answer_cache_bytes = 1 << 20;
  QueryService on(&on_mgr, on_prog, on_opts);
  ASSERT_TRUE(off.status().ok());
  ASSERT_TRUE(on.status().ok());

  // Repeats inside the batch (single-flight) and across epochs (cache
  // hits and selective invalidation both get exercised).
  const std::vector<QueryRequest> batch = {
      Req("pup", "u1"), Req("pdown", "d1"), Req("pup", "u1"),
      Req("pup", "u3"), Req("pdown", "d1"),
  };
  // Cycle deltas alternate which closure they touch; the last one is a
  // retraction so the tombstone path is covered too.
  const auto apply_delta = [](SnapshotManager& m, size_t cycle) {
    switch (cycle) {
      case 1: m.AddFact("up", {"u8", "u9"}); break;
      case 2: m.AddFact("down", {"d8", "d9"}); break;
      case 3: m.DeleteFact("up", {"u2", "u3"}); break;
    }
  };

  for (size_t cycle = 0; cycle <= 3; ++cycle) {
    if (cycle > 0) {
      apply_delta(off_mgr, cycle);
      apply_delta(on_mgr, cycle);
      ASSERT_TRUE(off_mgr.Publish().status.ok());
      ASSERT_TRUE(on_mgr.Publish().status.ok());
    }
    BatchStats off_stats, on_stats;
    std::vector<QueryResponse> a = off.EvalBatch(batch, &off_stats);
    std::vector<QueryResponse> b = on.EvalBatch(batch, &on_stats);
    ASSERT_EQ(a.size(), batch.size());
    ASSERT_EQ(b.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(a[i].status.ok()) << a[i].status.message();
      ASSERT_TRUE(b[i].status.ok()) << b[i].status.message();
      EXPECT_EQ(a[i].epoch, cycle) << i;
      EXPECT_EQ(b[i].epoch, cycle) << i;
      // Identical construction order interns identical symbol ids, so the
      // tuples must match bit-for-bit, not just up to renaming.
      EXPECT_EQ(a[i].tuples, b[i].tuples) << "query " << i << " cycle "
                                          << cycle;
      EXPECT_EQ(AnswerCache::HashTuples(a[i].tuples),
                AnswerCache::HashTuples(b[i].tuples));
      EXPECT_EQ(a[i].stats.answers_per_iteration,
                b[i].stats.answers_per_iteration)
          << "query " << i << " cycle " << cycle;
    }
    // Hits replay the stored stats verbatim, so the batch totals match too.
    EXPECT_EQ(off_stats.tuples, on_stats.tuples);
    EXPECT_EQ(off_stats.fetches, on_stats.fetches);
    EXPECT_EQ(off_stats.total.nodes, on_stats.total.nodes);
    EXPECT_EQ(off_stats.total.iterations, on_stats.total.iterations);
    EXPECT_EQ(off_stats.total.answers_per_iteration,
              on_stats.total.answers_per_iteration);
    EXPECT_EQ(on_stats.total.answers_per_iteration.back(), on_stats.tuples);
  }
  CacheSnapshot snap = on.answer_cache()->Snapshot();
  EXPECT_GT(snap.hits, 0u);           // repeats across epochs were served
  EXPECT_GT(snap.invalidations, 0u);  // and the deltas retired stale entries
}

}  // namespace
}  // namespace binchain
