#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "datalog/parser.h"
#include "eval/answer_curve.h"
#include "eval/hsu.h"
#include "eval/query.h"
#include "eval/rex_image.h"
#include "storage/database.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

std::set<std::string> Names(const Database& db,
                            const std::vector<Tuple>& tuples, size_t col) {
  std::set<std::string> out;
  for (const Tuple& t : tuples) out.insert(db.symbols().Name(t[col]));
  return out;
}

class EngineTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(EngineTest, TransitiveClosureBoundFirst) {
  db_.AddFact("e", {"a", "b"});
  db_.AddFact("e", {"b", "c"});
  db_.AddFact("e", {"c", "d"});
  db_.AddFact("e", {"x", "y"});
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::PathProgramText()).ok());
  auto r = qe.Query("path(a, Y)");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(Names(db_, r.value().tuples, 1),
            (std::set<std::string>{"b", "c", "d"}));
  // Regular case: a single iteration of the main loop (Theorem 3).
  EXPECT_EQ(r.value().stats.iterations, 1u);
}

TEST_F(EngineTest, TransitiveClosureBoundSecond) {
  db_.AddFact("e", {"a", "b"});
  db_.AddFact("e", {"b", "c"});
  db_.AddFact("e", {"x", "c"});
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::PathProgramText()).ok());
  auto r = qe.Query("path(X, c)");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(Names(db_, r.value().tuples, 0),
            (std::set<std::string>{"a", "b", "x"}));
}

TEST_F(EngineTest, BothBoundMembership) {
  db_.AddFact("e", {"a", "b"});
  db_.AddFact("e", {"b", "c"});
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::PathProgramText()).ok());
  auto yes = qe.Query("path(a, c)");
  ASSERT_TRUE(yes.ok());
  EXPECT_EQ(yes.value().tuples.size(), 1u);
  auto no = qe.Query("path(c, a)");
  ASSERT_TRUE(no.ok());
  EXPECT_TRUE(no.value().tuples.empty());
}

TEST_F(EngineTest, AllFreeEnumeratesAllPairs) {
  db_.AddFact("e", {"a", "b"});
  db_.AddFact("e", {"b", "a"});
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::PathProgramText()).ok());
  auto r = qe.Query("path(X, Y)");
  ASSERT_TRUE(r.ok());
  // Cycle: every ordered pair over {a, b} is in the closure.
  EXPECT_EQ(r.value().tuples.size(), 4u);
  auto diag = qe.Query("path(X, X)");
  ASSERT_TRUE(diag.ok());
  EXPECT_EQ(diag.value().tuples.size(), 2u);
}

TEST_F(EngineTest, SameGenerationBasic) {
  // Two siblings under one parent.
  db_.AddFact("up", {"x", "p"});
  db_.AddFact("up", {"y", "p"});
  db_.AddFact("down", {"p", "x"});
  db_.AddFact("down", {"p", "y"});
  db_.AddFact("flat", {"p", "p"});
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  auto r = qe.Query("sg(x, Y)");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(Names(db_, r.value().tuples, 1), (std::set<std::string>{"x", "y"}));
}

TEST_F(EngineTest, SgQueryOnDerivedPredicateWithConstantAnswer) {
  std::string a = workloads::Fig7c(db_, 5);
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  auto r = qe.Query("sg(" + a + ", Y)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Names(db_, r.value().tuples, 1), (std::set<std::string>{"b1"}));
}

TEST_F(EngineTest, CyclicDataTerminatesWithBound) {
  std::string a = workloads::Fig8(db_, 3, 4);  // gcd(3,4) = 1
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  EvalOptions opt;
  opt.use_cyclic_bound = true;
  auto r = qe.Query("sg(" + a + ", Y)", opt);
  ASSERT_TRUE(r.ok()) << r.status().message();
  // All n nodes of the down cycle are same-generation answers eventually.
  EXPECT_EQ(r.value().tuples.size(), 4u);
  // The bound is |D1| * |D2| = 3 * 4 = 12.
  EXPECT_LE(r.value().stats.iterations, 12u);
}

TEST_F(EngineTest, CyclicDataNeedsMNIterationsForFullAnswer) {
  std::string a = workloads::Fig8(db_, 3, 5);
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  // With a cap below m*n the answer is incomplete.
  EvalOptions capped;
  capped.max_iterations = 10;  // < 15
  auto partial = qe.Query("sg(" + a + ", Y)", capped);
  ASSERT_TRUE(partial.ok());
  EvalOptions full;
  full.use_cyclic_bound = true;
  auto complete = qe.Query("sg(" + a + ", Y)", full);
  ASSERT_TRUE(complete.ok());
  EXPECT_LT(partial.value().tuples.size(), complete.value().tuples.size());
  EXPECT_EQ(complete.value().tuples.size(), 5u);
}

TEST_F(EngineTest, UncappedCyclicRunHitsNoTermination) {
  // Guard: without the cyclic bound the engine would loop; we set a small
  // explicit cap and check it reports hitting it.
  std::string a = workloads::Fig8(db_, 2, 3);
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  EvalOptions opt;
  opt.max_iterations = 4;
  auto r = qe.Query("sg(" + a + ", Y)", opt);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().stats.hit_iteration_cap);
}

TEST_F(EngineTest, NodesNotArcsOnLadder) {
  // Figure 7(c): Theta(n) nodes over n iterations; each b_i one node.
  std::string a = workloads::Fig7c(db_, 50);
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  auto r = qe.Query("sg(" + a + ", Y)");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.value().stats.iterations, 49u);
  // Linear, not quadratic: generous constant factor but << n^2 = 2500.
  EXPECT_LT(r.value().stats.nodes, 50u * 12u);
}

TEST_F(EngineTest, QuadraticNodesOnFig7b) {
  std::string a = workloads::Fig7b(db_, 40);
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  auto r = qe.Query("sg(" + a + ", Y)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().tuples.size(), 40u);
  // Theta(n^2) nodes: must exceed any linear bound.
  EXPECT_GT(r.value().stats.nodes, 40u * 15u);
}

TEST_F(EngineTest, EngineReuseAcrossRepeatedAndDistinctQueries) {
  // One engine, many queries: EvalFrom resets stats and scratch per call,
  // so a repeated query reproduces answers, stats, and fetch counts
  // exactly, and interleaved different queries don't leak state into it.
  std::string a = workloads::Fig7b(db_, 12);
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  auto first = qe.Query("sg(" + a + ", Y)");
  ASSERT_TRUE(first.ok()) << first.status().message();
  ASSERT_FALSE(first.value().tuples.empty());
  for (int i = 0; i < 3; ++i) {
    auto other = qe.Query("sg(a3, Y)");  // different source in between
    ASSERT_TRUE(other.ok());
    auto again = qe.Query("sg(" + a + ", Y)");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().tuples, first.value().tuples);
    EXPECT_EQ(again.value().stats.nodes, first.value().stats.nodes);
    EXPECT_EQ(again.value().stats.arcs, first.value().stats.arcs);
    EXPECT_EQ(again.value().stats.iterations, first.value().stats.iterations);
    EXPECT_EQ(again.value().stats.expansions, first.value().stats.expansions);
    EXPECT_EQ(again.value().stats.answers_per_iteration,
              first.value().stats.answers_per_iteration);
    EXPECT_EQ(again.value().fetches, first.value().fetches);
    EXPECT_EQ(again.value().stats.fetches, first.value().fetches);
  }
}

// The curve as the dense vector it reads as: entry i is the cumulative
// answer count after iteration i + 1.
std::vector<uint64_t> Dense(const AnswerCurve& curve) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < curve.size(); ++i) out.push_back(curve[i]);
  return out;
}

// Golden counters: the exact EvalStats of the paper's workloads, pinned so
// a rewrite of the EM(p, i) bookkeeping (how machine copies are addressed,
// how continuation points are gathered) cannot silently change the work the
// algorithm does. Every counter here is a property of G(p, a, i) and of the
// expansion hierarchy, not of how either is stored.
struct GoldenStats {
  uint64_t tuples;
  uint64_t nodes;
  uint64_t arcs;
  uint64_t iterations;
  uint64_t expansions;
  uint64_t continuations;
  uint64_t em_states;
  uint64_t fetches;
  std::vector<uint64_t> answers_per_iteration;
  bool hit_iteration_cap = false;
};

void ExpectGolden(const QueryAnswer& a, const GoldenStats& g) {
  EXPECT_EQ(a.tuples.size(), g.tuples);
  EXPECT_EQ(a.stats.nodes, g.nodes);
  EXPECT_EQ(a.stats.arcs, g.arcs);
  EXPECT_EQ(a.stats.iterations, g.iterations);
  EXPECT_EQ(a.stats.expansions, g.expansions);
  EXPECT_EQ(a.stats.continuations, g.continuations);
  EXPECT_EQ(a.stats.em_states, g.em_states);
  EXPECT_EQ(a.stats.fetches, g.fetches);
  EXPECT_EQ(a.fetches, g.fetches);
  EXPECT_EQ(Dense(a.stats.answers_per_iteration), g.answers_per_iteration);
  EXPECT_EQ(a.stats.hit_iteration_cap, g.hit_iteration_cap);
  EXPECT_FALSE(a.stats.cancelled);
}

// Runs `query` twice on one QueryEngine and pins both runs to `g`. The
// first run meets a fresh engine; the second reuses its node-set arena and
// view cache. The node set must not care which.
void ExpectGoldenColdAndWarm(Database& db, const std::string& query,
                             const GoldenStats& g,
                             const EvalOptions& options = {}) {
  QueryEngine qe(&db);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  for (const char* run : {"cold", "warm"}) {
    SCOPED_TRACE(run);
    auto r = qe.Query(query, options);
    ASSERT_TRUE(r.ok()) << r.status().message();
    ExpectGolden(r.value(), g);
  }
}

std::vector<uint64_t> Ramp(uint64_t n) {  // 1, 2, ..., n
  std::vector<uint64_t> v(n);
  for (uint64_t i = 0; i < n; ++i) v[i] = i + 1;
  return v;
}

TEST_F(EngineTest, GoldenCountersFig7a) {
  std::string a = workloads::Fig7a(db_, 256);
  ExpectGoldenColdAndWarm(db_, "sg(" + a + ", Y)",
                          {256, 2828, 2825, 3, 2, 257, 30, 1025, {0, 0, 256}});
}

TEST_F(EngineTest, GoldenCountersFig7b) {
  // Theta(n^2) nodes; answer b_j appears after iteration j.
  std::string a = workloads::Fig7b(db_, 256);
  ExpectGoldenColdAndWarm(
      db_, "sg(" + a + ", Y)",
      {256, 132350, 132094, 256, 255, 255, 2560, 33151, Ramp(256)});
}

TEST_F(EngineTest, GoldenCountersFig7c) {
  // The ladder: one expansion and one continuation per rung.
  std::string a = workloads::Fig7c(db_, 256);
  ExpectGoldenColdAndWarm(db_, "sg(" + a + ", Y)",
                          {1, 2555, 2554, 256, 255, 255, 2560, 766,
                           std::vector<uint64_t>(256, 1)});
}

TEST_F(EngineTest, GoldenCountersFig8CyclicBound) {
  // m = 3, n = 5: the |D1| * |D2| = 15 bound stops the run (reported as
  // hitting the iteration cap); the last iteration gathers a continuation
  // point it never expands.
  std::string a = workloads::Fig8(db_, 3, 5);
  EvalOptions opt;
  opt.use_cyclic_bound = true;
  ExpectGoldenColdAndWarm(db_, "sg(" + a + ", Y)",
                          {5, 245, 230, 15, 14, 15, 150, 69,
                           {0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5},
                           /*hit_iteration_cap=*/true},
                          opt);
}

TEST_F(EngineTest, GoldenCountersInvertedSystem) {
  // sg(X, b1) runs the inverted equation system from b1; a1 is its only
  // answer and surfaces in the last of the n iterations.
  workloads::Fig7b(db_, 256);
  std::vector<uint64_t> per_iteration(256, 0);
  per_iteration.back() = 1;
  ExpectGoldenColdAndWarm(db_, "sg(X, b1)",
                          {1, 132860, 132604, 256, 255, 255, 2560, 33151,
                           per_iteration});
}

// The curve is O(steps): the ladder's single answer, found in the first of
// n iterations, is one step however long the run; a Figure 7(b) curve grows
// every iteration and holds no more than the dense vector would.
TEST_F(EngineTest, AnswerCurveFollowsAnswersNotIterations) {
  std::string a = workloads::Fig7c(db_, 2048);
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  auto ladder = qe.Query("sg(" + a + ", Y)");
  ASSERT_TRUE(ladder.ok()) << ladder.status().message();
  const AnswerCurve& one = ladder.value().stats.answers_per_iteration;
  EXPECT_EQ(one.size(), 2048u);
  EXPECT_EQ(one.steps(), 1u);
  EXPECT_EQ(one.back(), 1u);

  Database db;
  std::string b = workloads::Fig7b(db, 256);
  QueryEngine qb(&db);
  ASSERT_TRUE(qb.LoadProgramText(workloads::SgProgramText()).ok());
  auto grid = qb.Query("sg(" + b + ", Y)");
  ASSERT_TRUE(grid.ok()) << grid.status().message();
  const AnswerCurve& ramp = grid.value().stats.answers_per_iteration;
  const std::vector<uint64_t> dense = Dense(ramp);  // grown by push_back
  EXPECT_EQ(ramp.steps(), 256u);
  EXPECT_LE(ramp.heap_bytes(), dense.capacity() * sizeof(uint64_t));
}

// A random Lemma 2 curve: non-decreasing, lengths 0-300, with plateaus,
// unit steps and jumps, starting at zero or above it.
std::vector<uint64_t> RandomCurve(Rng& rng) {
  std::vector<uint64_t> v(rng.Below(301));
  uint64_t count = rng.Chance(1, 2) ? 0 : rng.Between(1, 1000);
  for (uint64_t& x : v) {
    const uint64_t roll = rng.Below(20);
    if (roll >= 17) {
      count += rng.Between(2, 100000);
    } else if (roll >= 12) {
      count += 1;
    }
    x = count;
  }
  return v;
}

AnswerCurve Record(const std::vector<uint64_t>& dense) {
  AnswerCurve curve;
  for (uint64_t x : dense) curve.push_back(x);
  return curve;
}

size_t Distinct(const std::vector<uint64_t>& v) {
  return std::set<uint64_t>(v.begin(), v.end()).size();
}

TEST(AnswerCurveTest, RecordedCurveReadsBackAsDense) {
  Rng rng(15);
  for (int trial = 0; trial < 1000; ++trial) {
    SCOPED_TRACE(trial);
    const std::vector<uint64_t> v = RandomCurve(rng);
    const AnswerCurve curve = Record(v);
    ASSERT_EQ(curve.size(), v.size());
    EXPECT_EQ(curve.empty(), v.empty());
    EXPECT_EQ(Dense(curve), v);
    EXPECT_EQ(curve.back(), v.empty() ? 0 : v.back());
    EXPECT_LE(curve.steps(), std::min(v.size(), Distinct(v)));
  }
}

TEST(AnswerCurveTest, AddFollowsTheElementwiseBatchRule) {
  Rng rng(16);
  for (int trial = 0; trial < 1000; ++trial) {
    SCOPED_TRACE(trial);
    const std::vector<uint64_t> a = RandomCurve(rng);
    const std::vector<uint64_t> b = RandomCurve(rng);
    // The dense rule BatchStats used before curves were stored as steps: a
    // shorter curve continues flat at its last count, an empty one adds 0.
    std::vector<uint64_t> acc = a;
    if (!b.empty()) {
      if (b.size() > acc.size()) {
        const uint64_t tail = acc.empty() ? 0 : acc.back();
        acc.resize(b.size(), tail);
      }
      for (size_t i = 0; i < acc.size(); ++i) {
        acc[i] += i < b.size() ? b[i] : b.back();
      }
    }
    AnswerCurve sum = Record(a);
    sum.Add(Record(b));
    EXPECT_EQ(Dense(sum), acc);
    EXPECT_EQ(sum, Record(acc));  // one stored form per curve
    EXPECT_LE(sum.steps(), std::min(acc.size(), Distinct(acc)));
  }
}

void ExpectSameStats(const EvalStats& a, const EvalStats& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.arcs, b.arcs);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.expansions, b.expansions);
  EXPECT_EQ(a.continuations, b.continuations);
  EXPECT_EQ(a.em_states, b.em_states);
  EXPECT_EQ(a.fetches, b.fetches);
  EXPECT_EQ(a.wide_mask_scans, b.wide_mask_scans);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
  EXPECT_EQ(a.cancel_checks, b.cancel_checks);
  EXPECT_EQ(a.hit_iteration_cap, b.hit_iteration_cap);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.answers_per_iteration, b.answers_per_iteration);
}

struct EngineRun {
  std::set<std::string> answers;
  EvalStats stats;
};

// One query through Engine::EvalFrom on prebuilt views, with the registry
// at hand so a test can intern unrelated terms into it between queries.
class EngineRig {
 public:
  // `facts` fills the database and returns the query constant; the query
  // is pred(constant, Y) under `program`.
  EngineRig(const char* program, const std::string& pred,
            const std::function<std::string(Database&)>& facts)
      : source_(facts(db_)), views_(&db_.symbols()) {
    auto eqs = TransformToEquations(
        ParseProgram(program, db_.symbols()).take(), db_.symbols());
    EXPECT_TRUE(eqs.ok());
    if (eqs.ok()) eqs_ = std::move(eqs.value().final_system);
    views_.RegisterDatabase(db_);
    pred_ = *db_.symbols().Find(pred);
  }

  Engine NewEngine() { return Engine(&eqs_, &views_); }

  // Pads the registry with `count` unrelated terms: fresh constants, which
  // grow the symbol table and so W, or (with `tuples`) pair terms, which
  // grow the pool but not the symbol table.
  void Pad(size_t count, bool tuples) {
    for (size_t i = 0; i < count; ++i, ++padded_) {
      if (tuples) {
        SymbolId c = static_cast<SymbolId>(padded_);
        views_.pool().InternTuple(Tuple{c, c});
      } else {
        SymbolId c = db_.symbols().Intern("pad" + std::to_string(padded_));
        views_.pool().Unary(c);
      }
    }
  }

  EngineRun Run(Engine& engine) {
    EngineRun run;
    TermId source = views_.pool().Unary(*db_.symbols().Find(source_));
    auto r = engine.EvalFrom(pred_, source, {}, &run.stats);
    EXPECT_TRUE(r.ok()) << r.status().message();
    if (!r.ok()) return run;
    for (TermId y : r.value()) {
      run.answers.insert(db_.symbols().Name(views_.pool().AsUnary(y)));
    }
    return run;
  }

 private:
  Database db_;
  std::string source_;
  ViewRegistry views_;
  EquationSystem eqs_;
  SymbolId pred_ = 0;
  size_t padded_ = 0;
};

EngineRig SgOnFig7b(uint64_t n) {
  return EngineRig(workloads::SgProgramText(), "sg",
                   [n](Database& db) { return workloads::Fig7b(db, n); });
}

// Fig. 7(b) n = 64, run twice on one engine after `padding` unrelated
// terms were interned (see EngineRig::Pad).
std::vector<EngineRun> RunFig7bOnPaddedPool(size_t padding, bool tuples) {
  EngineRig rig = SgOnFig7b(64);
  rig.Pad(padding, tuples);
  Engine engine = rig.NewEngine();
  std::vector<EngineRun> runs;
  for (int i = 0; i < 2; ++i) runs.push_back(rig.Run(engine));
  return runs;
}

TEST_F(EngineTest, NodeSetRowBoundOnLargePool) {
  // With 2^17 padding constants a row spans 2^17 bits (16 KiB), more than
  // the row budget (16 B per node inserted so far) allows for most states
  // of this ~8.5k-node query, so most multi-term states stay in the
  // overflow set. Pair-term padding fills the pool with 2^17 tagged tuple
  // terms instead: W stays the symbol count, so the workload's unary terms
  // keep their slots and rows. No padding may change the answer or any
  // counter.
  std::vector<EngineRun> plain = RunFig7bOnPaddedPool(0, false);
  ASSERT_EQ(plain[1].answers.size(), 64u);
  for (bool tuples : {false, true}) {
    std::vector<EngineRun> padded =
        RunFig7bOnPaddedPool(size_t{1} << 17, tuples);
    for (size_t i = 0; i < plain.size(); ++i) {
      SCOPED_TRACE(std::string(tuples ? "pair terms, " : "constants, ") +
                   (i == 0 ? "cold" : "warm"));
      EXPECT_EQ(padded[i].answers, plain[i].answers);
      ExpectSameStats(padded[i].stats, plain[i].stats);
    }
  }
}

TEST_F(EngineTest, BinaryQueriesInternNoTerms) {
  // A unary term is its own constant: a cold registry answering every
  // source of a binary-chain program, forward and inverted, interns
  // nothing into its term pool.
  workloads::Fig7b(db_, 64);
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  for (int i = 1; i <= 64; ++i) {
    const std::string k = std::to_string(i);
    auto forward = qe.Query("sg(a" + k + ", Y)");
    ASSERT_TRUE(forward.ok()) << forward.status().message();
    EXPECT_FALSE(forward.value().tuples.empty());
    auto inverted = qe.Query("sg(X, b" + k + ")");
    ASSERT_TRUE(inverted.ok()) << inverted.status().message();
    EXPECT_FALSE(inverted.value().tuples.empty());
  }
  EXPECT_EQ(qe.views().pool().size(), 0u);
}

// Runs the rig's query on one reused engine and on a fresh engine per
// step, interning 64 fresh constants between steps, and wants them equal.
void ExpectReusedEngineAgreesAsWidthGrows(EngineRig& rig) {
  Engine reused = rig.NewEngine();
  for (int step = 0; step < 4; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    Engine fresh = rig.NewEngine();
    EngineRun expected = rig.Run(fresh);
    EngineRun got = rig.Run(reused);
    EXPECT_EQ(got.answers, expected.answers);
    ExpectSameStats(got.stats, expected.stats);
    rig.Pad(64, /*tuples=*/false);
  }
}

TEST_F(EngineTest, NodeSetRowsStayCleanWhenWidthGrows) {
  // The row arena outlives a query. 64 fresh constants grow W by 64 and
  // every row by one word, so the next query's rows start at new offsets
  // over words the last query left set. A reused engine must still agree
  // with a fresh one. Fig. 7(b) leaves few old bits where they matter;
  // the path query over a chain fills its rows with most of the chain, so
  // the row that straddles the old arena's end finds old bits on terms
  // its state still has to reach.
  EngineRig fig7b = SgOnFig7b(256);
  ExpectReusedEngineAgreesAsWidthGrows(fig7b);
  EngineRig chain(workloads::PathProgramText(), "path", [](Database& db) {
    return workloads::Chain(db, "e", "c", 100);
  });
  ExpectReusedEngineAgreesAsWidthGrows(chain);
}

TEST_F(EngineTest, BaseRelationQueriesAnswerDirectly) {
  db_.AddFact("e", {"a", "b"});
  db_.AddFact("e", {"a", "a"});
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::PathProgramText()).ok());
  auto r = qe.Query("e(a, Y)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().tuples.size(), 2u);
  auto diag = qe.Query("e(X, X)");
  ASSERT_TRUE(diag.ok());
  EXPECT_EQ(diag.value().tuples.size(), 1u);
}

TEST_F(EngineTest, UnknownPredicateIsAnError) {
  db_.AddFact("e", {"a", "b"});
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::PathProgramText()).ok());
  auto r = qe.Query("ghost(a, Y)");
  EXPECT_FALSE(r.ok());
}

TEST_F(EngineTest, HsuMatchesEngineOnRegularQueries) {
  Rng rng(7);
  workloads::RandomGraph(db_, "e", "v", 30, 60, rng);
  QueryEngine qe(&db_);
  ASSERT_TRUE(qe.LoadProgramText(workloads::PathProgramText()).ok());
  SymbolId path = *db_.symbols().Find("path");

  auto r = qe.Query("path(v0, Y)");
  ASSERT_TRUE(r.ok());

  HsuStats hstats;
  TermId source = qe.views().pool().Unary(db_.symbols().Intern("v0"));
  auto h = HsuEvaluate(qe.equations(), qe.views(), path, source, &hstats);
  ASSERT_TRUE(h.ok()) << h.status().message();
  std::set<std::string> hnames;
  for (TermId y : h.value()) {
    hnames.insert(db_.symbols().Name(qe.views().pool().AsUnary(y)));
  }
  EXPECT_EQ(Names(db_, r.value().tuples, 1), hnames);
  // HSU preconstructs every tuple occurrence; the demand-driven engine
  // touches at most the reachable part.
  EXPECT_GE(hstats.preconstructed_arcs, 60u);
}

TEST_F(EngineTest, RexImageAndClosure) {
  db_.AddFact("e", {"a", "b"});
  db_.AddFact("e", {"b", "c"});
  ViewRegistry views(&db_.symbols());
  views.RegisterDatabase(db_);
  SymbolId e = *db_.symbols().Find("e");
  TermId a = views.pool().Unary(db_.symbols().Intern("a"));

  auto img = ImageUnderRex(views, Rex::Pred(e), {a});
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img.value().size(), 1u);

  auto closure = ClosureUnderRex(views, Rex::Pred(e), {a});
  ASSERT_TRUE(closure.ok());
  EXPECT_EQ(closure.value().size(), 3u);  // a, b, c

  auto star = ImageUnderRex(views, Rex::Star(Rex::Pred(e)), {a});
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star.value().size(), 3u);
}

}  // namespace
}  // namespace binchain
