// Live-update subsystem: the epoch-based snapshot lifecycle. Publishing a
// sequence of deltas must be observationally identical to cold-rebuilding
// the database at every epoch (the snapshot chain is an optimization, never
// a semantics change), including while queries run concurrently with
// Publish() (the TSan target of the live CI job). Also covers the
// freeze -> thaw -> insert -> re-freeze story on an exclusively owned
// database, epoch storage sharing (copy-on-write), chain compaction, and
// symbol-id stability across epochs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datalog/parser.h"
#include "eval/eval_artifacts.h"
#include "eval/query.h"
#include "live/snapshot_manager.h"
#include "service/query_service.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

struct Fact {
  std::string pred;
  std::vector<std::string> args;
};

/// Reads a workload database back out as string facts, so the same facts
/// can be replayed through the live pipeline and through cold rebuilds.
std::vector<Fact> ExtractFacts(const Database& db) {
  std::vector<Fact> facts;
  for (const std::string& name : db.relation_names()) {
    const Relation* rel = db.Find(name);
    for (TupleRef t : rel->tuples()) {
      Fact f;
      f.pred = name;
      for (SymbolId c : t) f.args.push_back(db.symbols().Name(c));
      facts.push_back(std::move(f));
    }
  }
  return facts;
}

/// Result tuples rendered as sorted "a|b" strings: epoch chains and cold
/// rebuilds intern in different orders, so ids are not comparable — names
/// are.
std::vector<std::string> Render(const std::vector<Tuple>& tuples,
                                const SymbolTable& symbols) {
  std::vector<std::string> out;
  for (const Tuple& t : tuples) {
    std::string s;
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) s += "|";
      s += symbols.Name(t[i]);
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string RequestLiteral(const QueryRequest& req) {
  std::string s = req.pred + "(";
  s += req.source.empty() ? "X" : req.source;
  s += ", ";
  s += req.target.empty() ? (req.diagonal ? "X" : "Y") : req.target;
  return s + ")";
}

/// Cold rebuild: a fresh database holding exactly `facts`, a solo engine,
/// and the same queries. The reference the live pipeline must match.
std::vector<std::vector<std::string>> ColdAnswers(
    const std::vector<Fact>& facts, const std::vector<Fact>& schema,
    const char* program_text, const std::vector<QueryRequest>& requests) {
  Database db;
  // Pre-declare every relation of the full workload so the program
  // compiles even when a relation's facts have not been published yet
  // (mirrors the live genesis).
  for (const Fact& f : schema) db.GetOrCreate(f.pred, f.args.size());
  for (const Fact& f : facts) db.AddFact(f.pred, f.args);
  QueryEngine engine(&db);
  EXPECT_TRUE(engine.LoadProgramText(program_text).ok());
  std::vector<std::vector<std::string>> answers;
  for (const QueryRequest& req : requests) {
    auto r = engine.Query(RequestLiteral(req), req.options.ToEvalOptions());
    EXPECT_TRUE(r.ok()) << r.status().message();
    answers.push_back(
        r.ok() ? Render(r.value().tuples, db.symbols())
               : std::vector<std::string>{"<error>"});
  }
  return answers;
}

/// Splits a workload's facts into a genesis load plus `cycles` deltas,
/// publishes them one by one, and checks every epoch's batch results
/// against a cold rebuild of the facts published so far.
void RunPublishEquivalence(const Database& workload, const char* program_text,
                           const std::vector<QueryRequest>& requests,
                           size_t cycles) {
  std::vector<Fact> facts = ExtractFacts(workload);
  ASSERT_GE(facts.size(), cycles + 1);
  size_t genesis_count = facts.size() / 2;
  size_t per_cycle = (facts.size() - genesis_count + cycles - 1) / cycles;

  auto genesis = std::make_unique<Database>();
  // Pre-declare every relation so the program compiles even when all of a
  // relation's facts arrive in later epochs.
  for (const Fact& f : facts) genesis->GetOrCreate(f.pred, f.args.size());
  for (size_t i = 0; i < genesis_count; ++i) {
    genesis->AddFact(facts[i].pred, facts[i].args);
  }
  Program program =
      ParseProgram(program_text, genesis->symbols()).take();

  SnapshotManager manager(std::move(genesis));
  QueryService::Options opts;
  opts.num_threads = 2;
  QueryService service(&manager, program, opts);
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  // Epoch 0 (the sealed genesis) must already match a cold rebuild.
  std::vector<Fact> published(facts.begin(), facts.begin() + genesis_count);
  size_t next_fact = genesis_count;
  for (size_t cycle = 0; cycle <= cycles; ++cycle) {
    if (cycle > 0) {
      size_t end = std::min(facts.size(), next_fact + per_cycle);
      size_t staged = end - next_fact;
      for (; next_fact < end; ++next_fact) {
        manager.AddFact(facts[next_fact].pred, facts[next_fact].args);
        published.push_back(facts[next_fact]);
      }
      PublishStats ps = manager.Publish();
      EXPECT_EQ(ps.epoch, cycle);
      EXPECT_EQ(ps.facts_added + ps.facts_duplicate, staged);
    }
    auto expected = ColdAnswers(published, facts, program_text, requests);
    BatchStats stats;
    auto responses = service.EvalBatch(requests, &stats);
    EXPECT_EQ(stats.epoch, cycle);
    auto tip = manager.Acquire();
    ASSERT_EQ(responses.size(), requests.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok())
          << responses[i].status.message();
      EXPECT_EQ(responses[i].epoch, cycle) << i;
      EXPECT_EQ(Render(responses[i].tuples, tip->symbols()), expected[i])
          << "query " << i << " at epoch " << cycle;
    }
  }
  EXPECT_EQ(next_fact, facts.size());
}

std::vector<QueryRequest> SgRequests(const std::vector<std::string>& sources,
                                     const QueryOptions& options = {}) {
  std::vector<QueryRequest> out;
  for (const std::string& s : sources) {
    QueryRequest req;
    req.pred = "sg";
    req.source = s;
    req.options = options;
    out.push_back(std::move(req));
  }
  return out;
}

TEST(LiveTest, Fig7bPublishMatchesColdRebuild) {
  Database workload;
  workloads::Fig7b(workload, 12);
  RunPublishEquivalence(workload, workloads::SgProgramText(),
                        SgRequests({"a1", "a3", "a7"}), 3);
}

TEST(LiveTest, LadderPublishMatchesColdRebuild) {
  Database workload;
  workloads::Fig7c(workload, 16);
  RunPublishEquivalence(workload, workloads::SgProgramText(),
                        SgRequests({"a1", "a2", "a8"}), 4);
}

TEST(LiveTest, Fig8CyclicPublishMatchesColdRebuild) {
  Database workload;
  workloads::Fig8(workload, 5, 7);
  QueryOptions options;
  options.use_cyclic_bound = true;
  RunPublishEquivalence(workload, workloads::SgProgramText(),
                        SgRequests({"a1", "a2"}, options), 3);
}

TEST(LiveTest, InvertedAndAllFreeQueriesAcrossEpochs) {
  Database workload;
  workloads::Fig7c(workload, 10);
  QueryRequest inverted;  // sg(X, b3): inverted system
  inverted.pred = "sg";
  inverted.target = "b3";
  QueryRequest all_free;  // sg(X, Y)
  all_free.pred = "sg";
  RunPublishEquivalence(workload, workloads::SgProgramText(),
                        {inverted, all_free}, 3);
}

// Queries running while Publish() swaps the tip: every batch must see one
// consistent epoch, and its results must equal the cold rebuild of exactly
// that epoch's facts. Run under TSan in CI.
TEST(LiveTest, ConcurrentPublishAndQueries) {
  Database workload;
  workloads::Fig7c(workload, 14);
  std::vector<Fact> facts = ExtractFacts(workload);
  const size_t kCycles = 4;
  size_t genesis_count = facts.size() / 2;
  size_t per_cycle = (facts.size() - genesis_count + kCycles - 1) / kCycles;

  auto genesis = std::make_unique<Database>();
  for (const Fact& f : facts) genesis->GetOrCreate(f.pred, f.args.size());
  for (size_t i = 0; i < genesis_count; ++i) {
    genesis->AddFact(facts[i].pred, facts[i].args);
  }
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();

  std::vector<QueryRequest> requests = SgRequests({"a1", "a2", "a5"});
  // Expected answers per epoch, precomputed from cold rebuilds.
  std::vector<std::vector<std::vector<std::string>>> expected;
  {
    std::vector<Fact> published(facts.begin(),
                                facts.begin() + genesis_count);
    expected.push_back(
        ColdAnswers(published, facts, workloads::SgProgramText(), requests));
    size_t next = genesis_count;
    for (size_t c = 1; c <= kCycles; ++c) {
      size_t end = std::min(facts.size(), next + per_cycle);
      for (; next < end; ++next) published.push_back(facts[next]);
      expected.push_back(ColdAnswers(published, facts,
                                     workloads::SgProgramText(), requests));
    }
  }

  SnapshotManager manager(std::move(genesis));
  QueryService::Options opts;
  opts.num_threads = 2;
  QueryService service(&manager, program, opts);
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  std::atomic<bool> done{false};
  std::thread publisher([&] {
    size_t next = genesis_count;
    for (size_t c = 1; c <= kCycles; ++c) {
      size_t end = std::min(facts.size(), next + per_cycle);
      for (; next < end; ++next) {
        manager.AddFact(facts[next].pred, facts[next].args);
      }
      manager.Publish();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true);
  });

  size_t batches = 0;
  while (true) {
    bool was_done = done.load();
    BatchStats stats;
    auto responses = service.EvalBatch(requests, &stats);
    auto tip = manager.Acquire();  // any tip >= response epoch renders names
    ASSERT_LT(stats.epoch, expected.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok())
          << responses[i].status.message();
      ASSERT_EQ(responses[i].epoch, stats.epoch);  // batch-consistent epoch
      EXPECT_EQ(Render(responses[i].tuples, tip->symbols()),
                expected[stats.epoch][i])
          << "query " << i << " at epoch " << stats.epoch;
    }
    ++batches;
    if (was_done && stats.epoch == kCycles) break;
  }
  publisher.join();
  EXPECT_GE(batches, 1u);
}

// Copy-on-write at relation granularity: a publish that touches one
// relation shares every other relation object with the previous epoch and
// layers only the touched one.
TEST(LiveTest, PublishSharesUntouchedRelations) {
  auto genesis = std::make_unique<Database>();
  workloads::Fig7c(*genesis, 8);
  SnapshotManager manager(std::move(genesis));
  manager.Seal();
  auto e0 = manager.Acquire();

  manager.AddFact("up", {"a8", "a9"});
  PublishStats ps = manager.Publish();
  EXPECT_EQ(ps.epoch, 1u);
  EXPECT_EQ(ps.facts_added, 1u);
  EXPECT_EQ(ps.relations_touched, 1u);
  auto e1 = manager.Acquire();

  EXPECT_EQ(e1->Find("flat"), e0->Find("flat"));  // shared object
  EXPECT_EQ(e1->Find("down"), e0->Find("down"));
  EXPECT_NE(e1->Find("up"), e0->Find("up"));      // delta layer
  EXPECT_EQ(e1->Find("up")->base().get(), e0->Find("up"));
  EXPECT_EQ(e1->Find("up")->size(), e0->Find("up")->size() + 1);
  EXPECT_EQ(e1->Find("up")->local_size(), 1u);

  // Duplicate-only delta: no new rows anywhere, no chain growth.
  manager.AddFact("up", {"a8", "a9"});
  PublishStats dup = manager.Publish();
  EXPECT_EQ(dup.facts_added, 0u);
  EXPECT_EQ(dup.facts_duplicate, 1u);
  EXPECT_EQ(dup.relations_touched, 0u);
  auto e2 = manager.Acquire();
  EXPECT_EQ(e2->Find("up"), e1->Find("up"));  // re-shared, not re-layered

  // Old epochs still answer their own contents.
  EXPECT_EQ(e0->Find("up")->size() + 1, e2->Find("up")->size());
}

// Staged facts are unvalidated client input: an arity mismatch with the
// existing schema must be rejected by Publish(), never abort the server.
TEST(LiveTest, PublishRejectsArityMismatch) {
  auto genesis = std::make_unique<Database>();
  genesis->GetOrCreate("e", 2);
  genesis->AddFact("e", {"a", "b"});
  SnapshotManager manager(std::move(genesis));
  manager.Seal();

  manager.AddFact("e", {"a"});            // wrong arity: rejected
  manager.AddFact("e", {"b", "c"});       // fine
  manager.AddFact("e", {"a", "b", "c"});  // wrong arity: rejected
  PublishStats ps = manager.Publish();
  EXPECT_EQ(ps.facts_rejected, 2u);
  EXPECT_EQ(ps.facts_added, 1u);
  auto tip = manager.Acquire();
  EXPECT_EQ(tip->Find("e")->size(), 2u);
}

/// The standalone bottom layer of `rel`'s chain.
const Relation* RootOf(const Relation* rel) {
  while (rel->base() != nullptr) rel = rel->base().get();
  return rel;
}

// Chain depth stays bounded without rewriting the root: tiny publishes
// merge top delta layers into size-tiered ones (and under the depth cap),
// every row survives, and the standalone bottom is rewritten only once the
// doubling rule fires.
TEST(LiveTest, ChainCompactionBoundsDepth) {
  auto genesis = std::make_unique<Database>();
  genesis->GetOrCreate("e", 2);
  for (int i = 0; i < 4; ++i) {
    genesis->AddFact("e", {"n" + std::to_string(i),
                           "n" + std::to_string(i + 1)});
  }
  SnapshotManager manager(std::move(genesis));
  manager.Seal();
  const Relation* root = manager.Acquire()->Find("e");

  const size_t publishes = 2 * (Relation::kMaxChainDepth + 1);
  size_t max_depth_seen = 0;
  bool merged = false;
  for (size_t i = 0; i < publishes; ++i) {
    manager.AddFact("e", {"x" + std::to_string(i),
                          "x" + std::to_string(i + 1)});
    PublishStats ps = manager.Publish();
    EXPECT_EQ(ps.relations_flattened, 0u) << i;
    if (ps.relations_merged > 0) {
      merged = true;
      EXPECT_GT(ps.rows_compacted, 0u) << i;
    }
    const Relation* rel = manager.Acquire()->Find("e");
    max_depth_seen = std::max(max_depth_seen, rel->chain_depth());
    EXPECT_LE(rel->chain_depth(), Relation::kMaxChainDepth);
    EXPECT_EQ(RootOf(rel), root) << "root rewritten before the doubling rule";
  }
  EXPECT_TRUE(merged);
  EXPECT_GT(max_depth_seen, 1u);
  EXPECT_EQ(manager.Acquire()->Find("e")->size(), 4 + publishes);

  // One large delta takes the chain's delta rows past
  // max(root rows, kFlattenMinRows); the next layer rewrites the root.
  for (size_t i = 0; i < Relation::kFlattenMinRows; ++i) {
    manager.AddFact("e", {"y" + std::to_string(i), "y"});
  }
  EXPECT_EQ(manager.Publish().relations_flattened, 0u);
  manager.AddFact("e", {"z0", "z1"});
  PublishStats ps = manager.Publish();
  EXPECT_EQ(ps.relations_flattened, 1u);
  const Relation* rel = manager.Acquire()->Find("e");
  EXPECT_EQ(rel->chain_depth(), 0u);
  EXPECT_EQ(rel->size(), 4 + publishes + Relation::kFlattenMinRows + 1);
  // The flatten copied every earlier row (plus whatever the symbol chain
  // compacted for the two new spellings).
  EXPECT_GE(ps.rows_compacted, rel->size() - 1);
}

// A publish that interns no new spelling gives the symbol table no layer,
// so it can never compact it either: at the depth cap, an empty publish and
// a duplicate-only publish both keep serving the very same table.
TEST(LiveTest, EmptyAndDuplicatePublishesKeepTheSymbolTable) {
  auto genesis = std::make_unique<Database>();
  genesis->AddFact("e", {"s0", "s1"});
  SnapshotManager manager(std::move(genesis));
  manager.Seal();
  for (size_t i = 1; i <= SymbolTable::kMaxChainDepth; ++i) {
    manager.AddFact("e", {"s" + std::to_string(i),
                          "s" + std::to_string(i + 1)});
    ASSERT_EQ(manager.Publish().new_symbols, 1u);
  }
  auto tip = manager.Acquire();
  const SymbolTable* symbols = &tip->symbols();

  PublishStats empty = manager.Publish();
  EXPECT_EQ(empty.rows_compacted, 0u);
  EXPECT_EQ(&manager.Acquire()->symbols(), symbols);

  manager.AddFact("e", {"s0", "s1"});
  PublishStats dup = manager.Publish();
  EXPECT_EQ(dup.facts_duplicate, 1u);
  EXPECT_EQ(dup.rows_compacted, 0u);
  EXPECT_EQ(&manager.Acquire()->symbols(), symbols);
  EXPECT_EQ(manager.Acquire()->Find("e"), tip->Find("e"));

  // The next new spelling does compact: the chain stays within its cap and
  // every id keeps its meaning.
  manager.AddFact("e", {"s0", "fresh"});
  PublishStats fresh = manager.Publish();
  EXPECT_EQ(fresh.new_symbols, 1u);
  const SymbolTable& now = manager.Acquire()->symbols();
  EXPECT_LE(now.chain_depth(), SymbolTable::kMaxChainDepth);
  for (SymbolId id = 0; id < symbols->size(); ++id) {
    EXPECT_EQ(now.Name(id), symbols->Name(id)) << id;
  }
}

// Symbol ids are stable across the whole epoch chain: an id minted in any
// epoch names the same constant in every later epoch, and new spellings
// extend rather than re-intern.
TEST(LiveTest, SymbolIdsStableAcrossEpochs) {
  auto genesis = std::make_unique<Database>();
  genesis->GetOrCreate("e", 2);
  genesis->AddFact("e", {"alpha", "beta"});
  SnapshotManager manager(std::move(genesis));
  manager.Seal();
  auto e0 = manager.Acquire();
  SymbolId alpha = *e0->symbols().Find("alpha");

  manager.AddFact("e", {"beta", "gamma"});
  PublishStats ps = manager.Publish();
  EXPECT_EQ(ps.new_symbols, 1u);  // only "gamma" is new
  auto e1 = manager.Acquire();
  EXPECT_EQ(*e1->symbols().Find("alpha"), alpha);
  EXPECT_EQ(e1->symbols().Name(alpha), "alpha");
  SymbolId gamma = *e1->symbols().Find("gamma");
  EXPECT_GE(gamma, e0->symbols().size());  // extension, not re-intern
  EXPECT_FALSE(e0->symbols().Find("gamma").has_value());  // old epoch clean
}

// Retraction equivalence: publishing tombstones must be observationally
// identical to cold-rebuilding the database *without* the deleted facts —
// including delete-then-reinsert inside one batch (staging order applies)
// and resurrection across epochs.
TEST(LiveTest, TombstonePublishMatchesColdRebuildWithoutDeletedFacts) {
  Database workload;
  workloads::Fig7c(workload, 12);
  std::vector<Fact> facts = ExtractFacts(workload);
  ASSERT_GE(facts.size(), 8u);

  auto genesis = std::make_unique<Database>();
  for (const Fact& f : facts) genesis->GetOrCreate(f.pred, f.args.size());
  for (const Fact& f : facts) genesis->AddFact(f.pred, f.args);
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
  SnapshotManager manager(std::move(genesis));
  QueryService::Options opts;
  opts.num_threads = 2;
  QueryService service(&manager, program, opts);
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  auto requests = SgRequests({"a1", "a2", "a5"});
  std::vector<Fact> published = facts;
  auto same_fact = [](const Fact& a, const Fact& b) {
    return a.pred == b.pred && a.args == b.args;
  };
  auto unpublish = [&](const Fact& f) {
    published.erase(std::remove_if(published.begin(), published.end(),
                                   [&](const Fact& g) {
                                     return same_fact(f, g);
                                   }),
                    published.end());
  };
  auto check_epoch = [&](uint64_t epoch) {
    auto expected = ColdAnswers(published, facts,
                                workloads::SgProgramText(), requests);
    auto responses = service.EvalBatch(requests);
    auto tip = manager.Acquire();
    ASSERT_EQ(responses.size(), requests.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.message();
      EXPECT_EQ(responses[i].epoch, epoch) << i;
      EXPECT_EQ(Render(responses[i].tuples, tip->symbols()), expected[i])
          << "query " << i << " at epoch " << epoch;
    }
  };

  // Epoch 1: retract a spread of workload facts, one unknown fact, and add
  // a fresh one.
  const Fact dead0 = facts[0];
  const Fact dead1 = facts[facts.size() / 2];
  const Fact dead2 = facts.back();
  for (const Fact* f : {&dead0, &dead1, &dead2}) {
    manager.DeleteFact(f->pred, f->args);
    unpublish(*f);
  }
  manager.DeleteFact("up", {"nobody", "nowhere"});
  manager.AddFact("up", {"zz1", "zz2"});
  published.push_back(Fact{"up", {"zz1", "zz2"}});
  PublishStats p1 = manager.Publish();
  EXPECT_EQ(p1.facts_deleted, 3u);
  EXPECT_EQ(p1.facts_delete_missing, 1u);
  EXPECT_EQ(p1.facts_added, 1u);
  check_epoch(1);

  // Epoch 2: delete-then-reinsert within one batch lands live (staging
  // order), and retracting the same fact twice is one tombstone + one miss.
  manager.DeleteFact(dead1.pred, dead1.args);  // already gone: miss
  manager.DeleteFact(facts[1].pred, facts[1].args);
  manager.AddFact(facts[1].pred, facts[1].args);  // resurrected in-batch
  PublishStats p2 = manager.Publish();
  EXPECT_EQ(p2.facts_deleted, 1u);
  EXPECT_EQ(p2.facts_delete_missing, 1u);
  EXPECT_EQ(p2.facts_added, 1u);
  check_epoch(2);

  // Epoch 3: resurrect a fact retracted two epochs ago.
  manager.AddFact(dead0.pred, dead0.args);
  published.push_back(dead0);
  PublishStats p3 = manager.Publish();
  EXPECT_EQ(p3.facts_added, 1u);
  EXPECT_EQ(p3.facts_duplicate, 0u);
  check_epoch(3);
}

// A tombstone-only delta changes relation contents without adding rows: it
// must survive empty-delta pruning, shrink the relation's adjacency memo
// via a standalone rebuild (chained extension can only grow), and keep
// every untouched relation's memo shared by pointer.
TEST(LiveTest, TombstoneOnlyPublishShrinksMemosAndIsNotPruned) {
  auto genesis = std::make_unique<Database>();
  workloads::Fig7c(*genesis, 10);
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
  SnapshotManager manager(std::move(genesis));
  QueryService::Options opts;
  opts.num_threads = 2;
  QueryService service(&manager, program, opts);
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  auto artifacts_of = [&]() {
    auto a = std::dynamic_pointer_cast<const EvalArtifacts>(
        manager.Acquire()->artifact());
    EXPECT_NE(a, nullptr);
    return a;
  };
  auto name_pair = [](const Database& db, TupleRef t) {
    return std::vector<std::string>{db.symbols().Name(t[0]),
                                    db.symbols().Name(t[1])};
  };

  auto e0 = manager.Acquire();
  auto a0 = artifacts_of();
  SymbolId up = *e0->symbols().Find("up");
  SymbolId flat = *e0->symbols().Find("flat");
  SymbolId down = *e0->symbols().Find("down");

  // Epoch 1: retract exactly one "up" fact, nothing else. The RowRange
  // must outlive its iterators (they point back into it).
  const Relation* up0 = e0->Find("up");
  RowRange up0_rows = up0->tuples();
  auto it = up0_rows.begin();
  std::vector<std::string> victim = name_pair(*e0, *it);
  ++it;
  std::vector<std::string> second = name_pair(*e0, *it);
  manager.DeleteFact("up", victim);
  PublishStats p1 = manager.Publish();
  EXPECT_EQ(p1.facts_deleted, 1u);
  EXPECT_EQ(p1.relations_touched, 1u);
  EXPECT_EQ(p1.facts_added, 0u);

  auto e1 = manager.Acquire();
  auto a1 = artifacts_of();
  // Not pruned: the tombstone-bearing layer IS the semantic change.
  ASSERT_NE(e1->Find("up"), e0->Find("up"));
  EXPECT_EQ(e1->Find("up")->base().get(), e0->Find("up"));
  EXPECT_EQ(e1->Find("up")->local_size(), 0u);
  EXPECT_EQ(e1->Find("up")->live_size(), e0->Find("up")->live_size() - 1);
  EXPECT_EQ(e1->Find("flat"), e0->Find("flat"));
  EXPECT_EQ(e1->Find("down"), e0->Find("down"));
  // Untouched memos re-shared by pointer; the shrunk relation's memo is a
  // standalone rebuild (a chained layer could never un-index the dead row).
  EXPECT_EQ(a1->Adjacency(flat), a0->Adjacency(flat));
  EXPECT_EQ(a1->Adjacency(down), a0->Adjacency(down));
  ASSERT_NE(a1->Adjacency(up), a0->Adjacency(up));
  EXPECT_EQ(a1->Adjacency(up)->chain_depth(), 0u);
  EXPECT_EQ(a1->refresh_stats().adjacency_shrunk, 1u);
  EXPECT_EQ(a1->refresh_stats().adjacency_reused, 2u);
  EXPECT_EQ(a1->refresh_stats().adjacency_extended, 0u);

  // Epoch 2: resurrect the victim and retract another fact. The dead-set
  // *cardinality* is back to the previous layer's, but the membership
  // moved — the dead_mutations guard must keep this delta too.
  manager.AddFact("up", victim);
  manager.DeleteFact("up", second);
  PublishStats p2 = manager.Publish();
  EXPECT_EQ(p2.facts_added, 1u);
  EXPECT_EQ(p2.facts_deleted, 1u);

  auto e2 = manager.Acquire();
  auto a2 = artifacts_of();
  ASSERT_NE(e2->Find("up"), e1->Find("up"));
  EXPECT_EQ(e2->Find("up")->dead_count(), e1->Find("up")->dead_count());
  EXPECT_NE(e2->Find("up")->dead_mutations(),
            e1->Find("up")->dead_mutations());
  EXPECT_EQ(a2->refresh_stats().adjacency_shrunk, 1u);
  EXPECT_EQ(e2->Find("up")->live_size(), e1->Find("up")->live_size());

  // The tip answers from the shrunk memos exactly like a cold database
  // holding the surviving facts.
  std::vector<Fact> survivors = ExtractFacts(*e2);
  auto requests = SgRequests({"a1", "a3"});
  auto expected = ColdAnswers(survivors, survivors,
                              workloads::SgProgramText(), requests);
  auto responses = service.EvalBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.message();
    EXPECT_EQ(Render(responses[i].tuples, e2->symbols()), expected[i]) << i;
  }
}

// ------------------------------------------------------------------------
// Differential chain test. Random publish sequences — empty to 300-op
// deltas of new facts, duplicates, retractions (present and absent),
// resurrections and new spellings — run against a reference model that
// numbers rows and symbols the way one fresh relation and one fresh symbol
// table would. Every epoch handle stays held; after each publish, every
// held epoch must equal a cold rebuild of its model state on every read
// path, so a compaction can neither change an epoch's answers nor write
// through a layer an older epoch still reads.

/// One relation of the reference model: physical rows in global row order,
/// tombstoned ones included.
struct ModelRelation {
  size_t arity = 0;
  std::vector<Tuple> rows;
  std::vector<bool> dead;
  std::map<Tuple, size_t> row_of;

  void Append(const Tuple& t) {
    row_of.emplace(t, rows.size());
    rows.push_back(t);
    dead.push_back(false);
  }
  /// The doubling rule's root rewrite: dead rows go for good.
  void Compact() {
    std::vector<Tuple> live;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!dead[i]) live.push_back(rows[i]);
    }
    rows.clear();
    dead.clear();
    row_of.clear();
    for (const Tuple& t : live) Append(t);
  }
};

struct StagedOp {
  std::string pred;
  std::vector<std::string> args;
  bool is_delete = false;
};

struct ChainModel {
  std::vector<std::string> spellings;  // id order
  std::map<std::string, SymbolId> ids;
  std::map<std::string, ModelRelation> rels;
  PublishStats expected;  // counters of the ops applied since the last reset

  /// Applies one staged op with Publish()'s semantics.
  void Apply(const StagedOp& op) {
    ModelRelation& rel = rels.at(op.pred);
    Tuple t;
    bool known = true;
    for (const std::string& a : op.args) {
      auto it = ids.find(a);
      if (it == ids.end()) {
        known = false;
        break;
      }
      t.push_back(it->second);
    }
    auto row = known ? rel.row_of.find(t) : rel.row_of.end();
    if (op.is_delete) {
      if (row != rel.row_of.end() && !rel.dead[row->second]) {
        rel.dead[row->second] = true;
        ++expected.facts_deleted;
      } else {
        ++expected.facts_delete_missing;
      }
      return;
    }
    if (row != rel.row_of.end()) {
      if (rel.dead[row->second]) {  // resurrected in place
        rel.dead[row->second] = false;
        ++expected.facts_added;
      } else {
        ++expected.facts_duplicate;
      }
      return;
    }
    t.clear();
    for (const std::string& a : op.args) {
      auto [it, fresh] =
          ids.emplace(a, static_cast<SymbolId>(spellings.size()));
      if (fresh) {
        spellings.push_back(a);
        ++expected.new_symbols;
      }
      t.push_back(it->second);
    }
    rel.Append(t);
    ++expected.facts_added;
  }

  /// A fresh database holding exactly the model: same ids, same physical
  /// rows in the same order, same tombstones.
  std::unique_ptr<Database> ColdRebuild() const {
    auto db = std::make_unique<Database>();
    for (const std::string& s : spellings) db->symbols().Intern(s);
    for (const auto& [name, mrel] : rels) {
      Relation& rel = db->GetOrCreate(name, mrel.arity);
      for (const Tuple& t : mrel.rows) rel.Insert(t);
      for (size_t i = 0; i < mrel.rows.size(); ++i) {
        if (mrel.dead[i]) rel.Delete(mrel.rows[i]);
      }
    }
    db->Freeze();
    return db;
  }
};

std::vector<Tuple> RowsOf(const Relation& rel) {
  std::vector<Tuple> out;
  for (TupleRef t : rel.tuples()) out.emplace_back(t);
  return out;
}

std::vector<Tuple> MatchesOf(const Relation& rel, uint32_t mask,
                             const Tuple& key) {
  std::vector<Tuple> out;
  rel.ForEachMatch(mask, key, [&](TupleRef t) { out.emplace_back(t); });
  return out;
}

/// Wide fallback scans one probe of `rel` takes (one per unindexed layer).
uint64_t WideScans(const Relation& rel, uint32_t mask) {
  uint64_t before = Relation::ThreadWideScanCount();
  rel.ForEachMatch(mask, Tuple(rel.arity(), 0), [](TupleRef) {});
  return Relation::ThreadWideScanCount() - before;
}

constexpr SymbolId kAbsentId = 0x7fffffffu;

/// Every read path of `live` against `cold`. Probe keys are a spread of
/// `model`'s rows (dead ones and ones later epochs added included) plus an
/// absent key.
void ExpectSameEpoch(const Database& live, const Database& cold,
                     const ChainModel& model) {
  const SymbolTable& ls = live.symbols();
  const SymbolTable& cs = cold.symbols();
  ASSERT_EQ(ls.size(), cs.size());
  EXPECT_LE(ls.chain_depth(), SymbolTable::kMaxChainDepth);
  for (SymbolId id = 0; id < cs.size(); ++id) {
    ASSERT_EQ(ls.Name(id), cs.Name(id)) << id;
  }
  for (const std::string& s : model.spellings) {
    ASSERT_EQ(ls.Find(s), cs.Find(s)) << s;
  }
  EXPECT_FALSE(ls.Find("never interned").has_value());

  auto artifacts =
      std::dynamic_pointer_cast<const EvalArtifacts>(live.artifact());
  ASSERT_NE(artifacts, nullptr);
  for (const auto& [name, mrel] : model.rels) {
    SCOPED_TRACE(name);
    const Relation* lr = live.Find(name);
    const Relation* cr = cold.Find(name);
    ASSERT_NE(lr, nullptr);
    ASSERT_NE(cr, nullptr);
    EXPECT_LE(lr->chain_depth(), Relation::kMaxChainDepth);
    ASSERT_EQ(RowsOf(*lr), RowsOf(*cr));
    EXPECT_EQ(lr->live_size(), cr->live_size());

    std::vector<Tuple> keys;
    const size_t stride = std::max<size_t>(1, mrel.rows.size() / 24);
    for (size_t i = 0; i < mrel.rows.size(); i += stride) {
      keys.push_back(mrel.rows[i]);
    }
    if (!mrel.rows.empty()) keys.push_back(mrel.rows.back());
    keys.push_back(Tuple(mrel.arity, kAbsentId));
    for (const Tuple& key : keys) {
      ASSERT_EQ(lr->Contains(key), cr->Contains(key));
      for (uint32_t mask = 1; mask < (1u << mrel.arity); ++mask) {
        ASSERT_EQ(MatchesOf(*lr, mask, key), MatchesOf(*cr, mask, key))
            << "mask " << mask;
      }
    }
    ASSERT_EQ(MatchesOf(*lr, 0, keys[0]), MatchesOf(*cr, 0, keys[0]));

    if (mrel.arity != 2) continue;
    const SharedAdjacency* adj = artifacts->Adjacency(*ls.Find(name));
    ASSERT_NE(adj, nullptr);
    EXPECT_LE(adj->chain_depth(), lr->chain_depth());
    adj->EnsureBuilt();
    for (const Tuple& key : keys) {
      std::vector<SymbolId> succ, pred, want_succ, want_pred;
      adj->ForEachSucc(key[0], [&](SymbolId v) { succ.push_back(v); });
      adj->ForEachPred(key[1], [&](SymbolId u) { pred.push_back(u); });
      for (const Tuple& t : MatchesOf(*cr, 0b01, key)) want_succ.push_back(t[1]);
      for (const Tuple& t : MatchesOf(*cr, 0b10, key)) want_pred.push_back(t[0]);
      ASSERT_EQ(succ, want_succ) << "successors of " << key[0];
      ASSERT_EQ(pred, want_pred) << "predecessors of " << key[1];
    }
  }
}

TEST(LiveTest, RandomPublishChainsMatchColdRebuilds) {
  std::mt19937 rng(20261017);
  auto uniform = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::vector<std::pair<std::string, size_t>> schema = {
      {"up", 2}, {"flat", 2}, {"down", 2}, {"wide", 5}};
  // Genesis: a few dozen rows per relation over a pool of constants.
  std::vector<std::string> pool;
  for (int i = 0; i < 48; ++i) pool.push_back("c" + std::to_string(i));
  auto random_fact = [&](size_t arity) {
    std::vector<std::string> args;
    for (size_t i = 0; i < arity; ++i) {
      if (uniform(12) == 0) pool.push_back("n" + std::to_string(pool.size()));
      args.push_back(pool[uniform(pool.size())]);
    }
    return args;
  };
  auto genesis = std::make_unique<Database>();
  for (const auto& [name, arity] : schema) {
    genesis->GetOrCreate(name, arity);
    for (int i = 0; i < 40; ++i) genesis->AddFact(name, random_fact(arity));
  }
  // The wide relation's root indexes one mask before the freeze; merged
  // and flattened layers must carry that index forward.
  constexpr uint32_t kWideMask = 0b00011;
  genesis->Find("wide")->ForEachMatch(kWideMask, Tuple(5, 0), [](TupleRef) {});
  Program program =
      ParseProgram(workloads::SgProgramText(), genesis->symbols()).take();
  SnapshotManager manager(std::move(genesis));
  QueryService::Options opts;
  opts.num_threads = 1;
  QueryService service(&manager, program, opts);
  ASSERT_TRUE(service.status().ok()) << service.status().message();

  // The model starts from the sealed genesis, read back in id/row order.
  std::vector<std::shared_ptr<const Database>> epochs = {manager.Acquire()};
  ChainModel model;
  for (SymbolId id = 0; id < epochs[0]->symbols().size(); ++id) {
    model.spellings.push_back(epochs[0]->symbols().Name(id));
    model.ids.emplace(model.spellings.back(), id);
  }
  size_t written = 0;  // rows, tombstones and spellings written so far
  for (const auto& [name, arity] : schema) {
    ModelRelation& mrel = model.rels[name];
    mrel.arity = arity;
    for (TupleRef t : epochs[0]->Find(name)->tuples()) mrel.Append(t);
    written += mrel.rows.size();
  }
  written += model.spellings.size();
  std::vector<std::unique_ptr<Database>> colds;
  colds.push_back(model.ColdRebuild());
  ExpectSameEpoch(*epochs[0], *colds[0], model);

  std::set<const Relation*> tops = {epochs[0]->Find("wide")};
  const Relation* wide_root = epochs[0]->Find("wide");
  uint64_t compacted = 0, merges = 0, flattens = 0, wide_compacted = 0;
  const size_t kPublishes = 40;
  for (size_t p = 1; p <= kPublishes; ++p) {
    SCOPED_TRACE("publish " + std::to_string(p));
    // Mostly small deltas, some empty, a few up to 300 ops.
    const size_t roll = uniform(10);
    const size_t ops = roll == 0 ? 0 : roll < 7 ? uniform(24) : uniform(301);
    std::vector<StagedOp> staged;
    for (size_t i = 0; i < ops; ++i) {
      const size_t r = uniform(10);
      const auto& [name, arity] = schema[r < 4 ? 0 : r < 5 ? 1 : r < 7 ? 2 : 3];
      const ModelRelation& mrel = model.rels.at(name);
      StagedOp op{name, {}, false};
      size_t kind = uniform(20);
      // "flat" never retracts, so its memo chain only ever extends.
      if (name == "flat" && kind >= 4) kind = 11;
      auto names_of = [&](const Tuple& t) {
        std::vector<std::string> args;
        for (SymbolId c : t) args.push_back(model.spellings[c]);
        return args;
      };
      if (kind < 4 && !mrel.rows.empty()) {  // duplicate or resurrection
        op.args = names_of(mrel.rows[uniform(mrel.rows.size())]);
      } else if (kind < 9 && !mrel.rows.empty()) {  // retract a known row
        op.args = names_of(mrel.rows[uniform(mrel.rows.size())]);
        op.is_delete = true;
      } else if (kind < 11) {  // retract a random, likely absent, fact
        op.args = random_fact(arity);
        op.is_delete = true;
      } else {
        op.args = random_fact(arity);
      }
      if (op.is_delete) {
        manager.DeleteFact(op.pred, op.args);
      } else {
        manager.AddFact(op.pred, op.args);
      }
      staged.push_back(std::move(op));
    }
    auto prev = epochs.back();
    PublishStats ps = manager.Publish();
    ASSERT_TRUE(ps.status.ok());
    auto tip = manager.Acquire();
    epochs.push_back(tip);

    // A flattened relation dropped its dead rows before this batch landed.
    for (auto& [name, mrel] : model.rels) {
      const Relation* now = tip->Find(name);
      if (now != prev->Find(name) && now->base() == nullptr) mrel.Compact();
    }
    model.expected = PublishStats();
    for (const StagedOp& op : staged) model.Apply(op);
    EXPECT_EQ(ps.facts_added, model.expected.facts_added);
    EXPECT_EQ(ps.facts_duplicate, model.expected.facts_duplicate);
    EXPECT_EQ(ps.facts_deleted, model.expected.facts_deleted);
    EXPECT_EQ(ps.facts_delete_missing, model.expected.facts_delete_missing);
    EXPECT_EQ(ps.new_symbols, model.expected.new_symbols);
    written += ps.facts_added + ps.facts_deleted + ps.new_symbols;
    compacted += ps.rows_compacted;
    merges += ps.relations_merged;
    flattens += ps.relations_flattened;

    // Layers no epoch ever had as its top are merge products; roots other
    // than the genesis one are flatten products. Both must serve the
    // root's indexed wide mask from their own index.
    const Relation* wide = tip->Find("wide");
    tops.insert(wide);
    for (const Relation* layer = wide; layer != nullptr;
         layer = layer->base().get()) {
      const bool merged = tops.count(layer) == 0;
      const bool flattened = layer->base() == nullptr && layer != wide_root;
      if (!merged && !flattened) continue;
      ++wide_compacted;
      const uint64_t below =
          layer->base() == nullptr ? 0 : WideScans(*layer->base(), kWideMask);
      EXPECT_EQ(WideScans(*layer, kWideMask), below);
    }

    colds.push_back(model.ColdRebuild());
    for (size_t e = 0; e < epochs.size(); ++e) {
      SCOPED_TRACE("epoch " + std::to_string(e));
      ExpectSameEpoch(*epochs[e], *colds[e], model);
      if (HasFatalFailure()) return;
    }
  }
  // Both compaction paths ran, the wide relation through them too.
  EXPECT_GT(merges, 0u);
  EXPECT_GT(flattens, 0u);
  EXPECT_GT(wide_compacted, 0u);
  // Write amplification stays logarithmic: every entry written is copied
  // O(log) times by merges, O(1) amortized times by root rewrites.
  const double log_written = std::log2(static_cast<double>(written));
  EXPECT_LE(static_cast<double>(compacted), log_written * written)
      << compacted << " copies for " << written << " entries written";
}

}  // namespace
}  // namespace binchain
