// Epoch-scoped shared evaluation artifacts: the snapshot-owned adjacency /
// closure / demand memos must (a) enumerate exactly what the EDB probes
// they replace enumerate, (b) refresh in O(delta) across epochs — entries
// whose relations are untouched are reused by pointer, only dependents of
// the delta are invalidated — and (c) fill safely under concurrent probes
// (this test runs under ThreadSanitizer in CI alongside service_test).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datalog/parser.h"
#include "eval/eval_artifacts.h"
#include "eval/query.h"
#include "eval/relation_view.h"
#include "live/snapshot_manager.h"
#include "service/query_service.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

std::vector<SymbolId> DirectSuccessors(const Relation& rel, SymbolId u) {
  std::vector<SymbolId> out;
  const SymbolId key[2] = {u, 0};
  rel.ForEachMatch(0b01u, TupleRef(key, 2),
                   [&](TupleRef m) { out.push_back(m[1]); });
  return out;
}

std::vector<SymbolId> DirectPredecessors(const Relation& rel, SymbolId v) {
  std::vector<SymbolId> out;
  const SymbolId key[2] = {0, v};
  rel.ForEachMatch(0b10u, TupleRef(key, 2),
                   [&](TupleRef m) { out.push_back(m[0]); });
  return out;
}

TEST(SharedAdjacencyTest, MatchesDirectProbesInOrder) {
  Relation rel(2);
  rel.Insert({3, 7});
  rel.Insert({3, 5});
  rel.Insert({9, 3});
  rel.Insert({3, 11});
  rel.Insert({5, 3});
  rel.Freeze();
  SharedAdjacency adj(&rel);
  EXPECT_FALSE(adj.built());
  adj.EnsureBuilt();
  ASSERT_TRUE(adj.built());
  for (SymbolId c = 0; c <= 12; ++c) {
    std::vector<SymbolId> succ, pred;
    adj.ForEachSucc(c, [&](SymbolId v) { succ.push_back(v); });
    adj.ForEachPred(c, [&](SymbolId u) { pred.push_back(u); });
    EXPECT_EQ(succ, DirectSuccessors(rel, c)) << "succ of " << c;
    EXPECT_EQ(pred, DirectPredecessors(rel, c)) << "pred of " << c;
  }
}

// Probes every id from 0 to one past the largest, both directions, against
// the relation's own index probes.
void ExpectMatchesDirectProbes(const SharedAdjacency& adj, const Relation& rel,
                               SymbolId largest) {
  for (SymbolId c = 0; c <= largest + 1; ++c) {
    std::vector<SymbolId> succ, pred;
    adj.ForEachSucc(c, [&](SymbolId v) { succ.push_back(v); });
    adj.ForEachPred(c, [&](SymbolId u) { pred.push_back(u); });
    EXPECT_EQ(succ, DirectSuccessors(rel, c)) << "succ of " << c;
    EXPECT_EQ(pred, DirectPredecessors(rel, c)) << "pred of " << c;
  }
}

TEST(SharedAdjacencyTest, ChainedLayerCoversDeltaRowsOnly) {
  // Each layer's offsets span only its own keys, so a chain whose deltas
  // land below, inside and above the earlier spans (and one with no rows
  // at all) must still enumerate exactly what the relation does.
  auto base = std::make_shared<Relation>(2);
  for (SymbolId i = 10; i < 16; ++i) base->Insert(Tuple{i, i + 1});
  base->Freeze();
  auto adj = std::make_shared<SharedAdjacency>(base.get());
  adj->EnsureBuilt();
  ExpectMatchesDirectProbes(*adj, *base, 16);

  const std::vector<std::vector<Tuple>> deltas = {
      {{3, 12}, {4, 3}},      // below the base span in both directions
      {{12, 40}, {13, 11}},   // keys inside it; a second successor for 12
      {},                     // an empty layer
      {{60, 61}, {61, 10}},   // above every earlier span
      {{4, 4}, {3, 4}},       // only old low ids
  };
  // Extend may merge earlier delta layers (size tiers), so the memo chain
  // below is built over each epoch's relation, kept alive here: its rows
  // are a prefix of the next one's either way.
  std::shared_ptr<const Relation> rel = base;
  std::vector<std::shared_ptr<const Relation>> epochs = {base};
  for (size_t k = 0; k < deltas.size(); ++k) {
    SCOPED_TRACE("layer " + std::to_string(k + 1));
    auto delta = Relation::Extend(rel);
    for (const Tuple& t : deltas[k]) ASSERT_TRUE(delta->Insert(t));
    delta->Freeze();
    ASSERT_NE(delta->base(), nullptr);  // chained, not flattened
    epochs.push_back(delta);
    adj = std::make_shared<SharedAdjacency>(delta.get(), adj);
    EXPECT_EQ(adj->chain_depth(), k + 1);
    adj->EnsureBuilt();
    rel = delta;
    ExpectMatchesDirectProbes(*adj, *rel, 61);
  }
  // Base rows enumerate before delta rows (global insertion order).
  std::vector<SymbolId> twelve;
  adj->ForEachSucc(12, [&](SymbolId v) { twelve.push_back(v); });
  EXPECT_EQ(twelve, (std::vector<SymbolId>{13, 40}));

  // The flatten path: one standalone memo over the compacted copy.
  auto flat = rel->Flatten();
  flat->Freeze();
  SharedAdjacency standalone(flat.get());
  standalone.EnsureBuilt();
  ExpectMatchesDirectProbes(standalone, *flat, 61);
}

TEST(SharedAdjacencyTest, ConcurrentBuildAndProbeAgree) {
  // The fill-once probe path under contention: every thread races
  // EnsureBuilt, then enumerates; all must see the one built memo. Runs
  // under TSan in CI.
  Relation rel(2);
  for (SymbolId i = 0; i < 400; ++i) rel.Insert(Tuple{i % 37, (i * 7) % 53});
  rel.Freeze();
  std::vector<std::vector<SymbolId>> expected(64);
  for (SymbolId c = 0; c < 64; ++c) expected[c] = DirectSuccessors(rel, c);

  SharedAdjacency adj(&rel);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      adj.EnsureBuilt();
      for (SymbolId c = 0; c < 64; ++c) {
        std::vector<SymbolId> got;
        adj.ForEachSucc(c, [&](SymbolId v) { got.push_back(v); });
        if (got != expected[c]) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SharedDemandMemoTest, JoinsOncePerSourceAcrossViews) {
  Database db;
  db.AddFact("e", {"a", "b"});
  db.AddFact("e", {"a", "c"});
  db.AddFact("e", {"b", "c"});
  auto parsed = ParseProgram("h(X, Y) :- e(X, Y).", db.symbols());
  ASSERT_TRUE(parsed.ok());
  std::vector<Literal> body = parsed.value().rules[0].body;
  SymbolId x = *db.symbols().Find("X");
  SymbolId y = *db.symbols().Find("Y");
  SymbolId a = *db.symbols().Find("a");

  SharedDemandMemo shared;
  // Two "workers": separate pools, one shared memo.
  ViewRegistry views1(&db.symbols()), views2(&db.symbols());
  DemandJoinView v1(&db, &views1.pool(), body, {x}, {Term::Var(y)});
  DemandJoinView v2(&db, &views2.pool(), body, {x}, {Term::Var(y)});
  v1.BindSharedMemo(&shared);
  v2.BindSharedMemo(&shared);

  auto run = [&db](DemandJoinView& v, TermPool& pool, SymbolId src) {
    std::set<SymbolId> out;
    v.ForEachSucc(pool.Unary(src), [&](TermId t) { out.insert(pool.Get(t)[0]); });
    return out;
  };
  std::set<SymbolId> first = run(v1, views1.pool(), a);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(shared.entries(), 1u);

  // The second view's probe is served by the shared memo: same outputs,
  // zero additional EDB fetches, one memo hit.
  uint64_t fetches_before = db.TotalFetches();
  uint64_t hits_before = EvalArtifacts::ThreadMemoHits();
  std::set<SymbolId> second = run(v2, views2.pool(), a);
  EXPECT_EQ(second, first);
  EXPECT_EQ(db.TotalFetches(), fetches_before);
  EXPECT_EQ(EvalArtifacts::ThreadMemoHits(), hits_before + 1);
}

std::shared_ptr<const EvalArtifacts> ArtifactsOf(const SnapshotManager& m) {
  auto arts =
      std::dynamic_pointer_cast<const EvalArtifacts>(m.Acquire()->artifact());
  EXPECT_NE(arts, nullptr);
  return arts;
}

TEST(EvalArtifactsTest, PublishInvalidatesOnlyDependentEntries) {
  auto genesis = std::make_unique<Database>();
  workloads::Fig7c(*genesis, 12);
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
  SnapshotManager manager(std::move(genesis));
  QueryService service(&manager, program, {2});
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  auto e0 = manager.Acquire();
  auto a0 = ArtifactsOf(manager);
  ASSERT_NE(a0, nullptr);
  SymbolId up = *e0->symbols().Find("up");
  SymbolId flat = *e0->symbols().Find("flat");
  SymbolId down = *e0->symbols().Find("down");
  // Genesis build: one adjacency entry per binary relation, eagerly built.
  EXPECT_EQ(a0->refresh_stats().adjacency_entries, 3u);
  for (SymbolId p : {up, flat, down}) {
    ASSERT_NE(a0->Adjacency(p), nullptr);
    EXPECT_TRUE(a0->Adjacency(p)->built());
  }

  // Delta touching `up` only.
  manager.AddFact("up", {"a12", "a13"});
  manager.Publish();
  auto e1 = manager.Acquire();
  auto a1 = ArtifactsOf(manager);
  ASSERT_NE(a1, nullptr);
  ASSERT_NE(a1, a0);

  // Untouched relations: the very same memo objects serve the new epoch.
  EXPECT_EQ(a1->Adjacency(flat), a0->Adjacency(flat));
  EXPECT_EQ(a1->Adjacency(down), a0->Adjacency(down));
  // The touched relation got a chained O(delta) extension, not a rebuild.
  EXPECT_NE(a1->Adjacency(up), a0->Adjacency(up));
  EXPECT_EQ(a1->Adjacency(up)->relation(), e1->Find("up"));
  EXPECT_EQ(a1->Adjacency(up)->chain_depth(), 1u);
  const EvalArtifacts::RefreshStats& rs = a1->refresh_stats();
  EXPECT_EQ(rs.adjacency_reused, 2u);
  EXPECT_EQ(rs.adjacency_extended, 1u);
  EXPECT_EQ(rs.adjacency_rebuilt, 0u);
  // sg reads up/flat/down transitively, so its closure/source cells are
  // invalidated (fresh, unfilled).
  EXPECT_EQ(rs.derived_entries, rs.derived_invalidated);
  EXPECT_EQ(rs.derived_reused, 0u);

  // A duplicate-only publish changes no relation: everything is reused.
  manager.AddFact("up", {"a12", "a13"});
  manager.Publish();
  auto a2 = ArtifactsOf(manager);
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a2->Adjacency(up), a1->Adjacency(up));
  EXPECT_EQ(a2->Adjacency(flat), a1->Adjacency(flat));
  EXPECT_EQ(a2->refresh_stats().adjacency_reused, 3u);
  EXPECT_EQ(a2->refresh_stats().derived_reused,
            a2->refresh_stats().derived_entries);
}

TEST(EvalArtifactsTest, MemoLayersFollowMergedRelationLayers) {
  // Steady one-fact publishes merge relation layers (size tiers, depth
  // cap). Each refresh must chain the new memo onto the deepest previous
  // memo layer still in the relation's chain, so memo layers keep mapping
  // onto relation layers and no compaction forces a full CSR rebuild.
  auto genesis = std::make_unique<Database>();
  workloads::Fig7c(*genesis, 12);
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
  SnapshotManager manager(std::move(genesis));
  QueryService::Options opts;
  opts.num_threads = 1;
  QueryService service(&manager, program, opts);
  ASSERT_TRUE(service.status().ok()) << service.status().message();
  SymbolId up = *manager.Acquire()->symbols().Find("up");

  bool merged = false;
  for (size_t i = 0; i < 3 * Relation::kMaxChainDepth; ++i) {
    SCOPED_TRACE("publish " + std::to_string(i));
    manager.AddFact("up", {"u" + std::to_string(i), "a1"});
    PublishStats ps = manager.Publish();
    merged |= ps.relations_merged > 0;
    auto epoch = manager.Acquire();
    auto arts = ArtifactsOf(manager);
    ASSERT_NE(arts, nullptr);
    EXPECT_EQ(arts->refresh_stats().adjacency_extended, 1u);
    EXPECT_EQ(arts->refresh_stats().adjacency_rebuilt, 0u);
    const Relation* rel = epoch->Find("up");
    const SharedAdjacency* adj = arts->Adjacency(up);
    ASSERT_EQ(adj->relation(), rel);
    // Every memo layer mirrors a layer of the relation's chain, strictly
    // further down at each step.
    const Relation* below = rel;
    for (const SharedAdjacency* layer = adj->base().get(); layer != nullptr;
         layer = layer->base().get()) {
      do {
        below = below->base().get();
      } while (below != nullptr && below != layer->relation());
      ASSERT_NE(below, nullptr) << "memo layer off the relation's chain";
    }
    EXPECT_LE(adj->chain_depth(), rel->chain_depth());
    // The tip answers like its relation.
    adj->EnsureBuilt();
    std::vector<SymbolId> preds;
    adj->ForEachPred(*epoch->symbols().Find("a1"),
                     [&](SymbolId u) { preds.push_back(u); });
    EXPECT_EQ(preds, DirectPredecessors(*rel, *epoch->symbols().Find("a1")));
  }
  EXPECT_TRUE(merged);
}

TEST(EvalArtifactsTest, ServiceServesFromSharedArtifactsWithZeroFetches) {
  // The all-pairs-style batch the refactor targets: every constant as a
  // source, plus all-free sweeps, over 1 and 4 workers. Identical results,
  // zero EDB fetches (every probe is memo-served), memo hits visible.
  Database db;
  workloads::Fig7b(db, 16);
  Program program =
      ParseProgram(workloads::SgProgramText(), db.symbols()).take();
  std::set<std::string> constants;
  for (const std::string& name : db.relation_names()) {
    for (TupleRef t : db.Find(name)->tuples()) {
      for (SymbolId c : t) constants.insert(db.symbols().Name(c));
    }
  }
  std::vector<QueryRequest> batch;
  for (const std::string& c : constants) batch.push_back({"sg", c, "", {}});
  batch.push_back({"sg", "", "", {}});  // all-free sweep

  QueryService seq(&db, program, {1});
  ASSERT_TRUE(seq.status().ok());
  BatchStats seq_stats;
  auto expected = seq.EvalBatch(batch, &seq_stats);
  EXPECT_EQ(seq_stats.failed, 0u);
  EXPECT_EQ(seq_stats.fetches, 0u);
  EXPECT_GT(seq_stats.total.memo_hits, 0u);

  QueryService par(&db, program, {4});
  ASSERT_TRUE(par.status().ok());
  BatchStats par_stats;
  auto got = par.EvalBatch(batch, &par_stats);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tuples, expected[i].tuples) << i;
    EXPECT_EQ(got[i].fetches, expected[i].fetches) << i;
  }
  EXPECT_EQ(par_stats.fetches, 0u);
}

TEST(EvalArtifactsTest, CompatiblePlanRejectsDifferentRuleSets) {
  // Artifacts cache closure/source results keyed by predicate id, so a
  // service must not adopt an attached set that was built for a different
  // rule set over the same spellings.
  Database db;
  db.AddFact("e", {"a", "b"});
  db.AddFact("f", {"b", "c"});
  Program prog_e =
      ParseProgram("p(X, Y) :- e(X, Y). p(X, Z) :- e(X, Y), p(Y, Z).",
                   db.symbols())
          .take();
  Program prog_f =
      ParseProgram("p(X, Y) :- f(X, Y). p(X, Z) :- f(X, Y), p(Y, Z).",
                   db.symbols())
          .take();
  auto plan_e = PrepareProgram(&db, prog_e, /*compile_machines=*/false);
  auto plan_f = PrepareProgram(&db, prog_f, /*compile_machines=*/false);
  ASSERT_TRUE(plan_e.ok() && plan_f.ok());
  db.Freeze();
  auto arts = EvalArtifacts::BuildFor(db, plan_e.value(), nullptr);
  EXPECT_TRUE(arts->CompatiblePlan(*plan_e.value(), db.symbols()));
  EXPECT_FALSE(arts->CompatiblePlan(*plan_f.value(), db.symbols()));
}

TEST(EvalArtifactsTest, SharedClosureCacheAcrossConcurrentAllFreeQueries) {
  // Pure-closure program: all-free queries are answered by the shared
  // Tarjan result; the fill-once cell must survive 4 workers racing to
  // publish it. Runs under TSan in CI.
  Database db;
  db.AddFact("e", {"a", "b"});
  db.AddFact("e", {"b", "c"});
  db.AddFact("e", {"c", "a"});
  db.AddFact("e", {"c", "d"});
  Program program =
      ParseProgram(workloads::PathProgramText(), db.symbols()).take();

  QueryService service(&db, program, {4});
  ASSERT_TRUE(service.status().ok()) << service.status().message();
  // Concurrent submissions under distinct keys (identical requests would
  // be collapsed by single-flight into one evaluation — the point here is
  // 4 workers racing on the fill-once cell). An iteration cap far beyond
  // what the query needs changes the key, not the work.
  constexpr size_t kClients = 12;
  std::vector<QueryResponse> responses(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        QueryRequest req{"path", "", "", {}};
        req.options.max_iterations = size_t{1} << (20 + i);
        responses[i] = service.Eval(req);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  uint64_t memo_hits = 0, fetches = 0;
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    memo_hits += r.stats.memo_hits;
    fetches += r.fetches;
  }
  const std::vector<Tuple>& first = responses[0].tuples;
  EXPECT_FALSE(first.empty());
  for (const QueryResponse& r : responses) EXPECT_EQ(r.tuples, first);
  // Every query past the initial fill races hits the shared cell. Up to
  // one query *per worker* can see the cell empty before the first publish
  // lands (they compute concurrently, first wins, none of them counts a
  // hit), so the guaranteed floor is the client count minus the workers.
  EXPECT_GE(memo_hits, kClients - 4);
  EXPECT_EQ(fetches, 0u);
}

}  // namespace
}  // namespace binchain
