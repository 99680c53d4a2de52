// Additional cross-strategy coverage: unusual binding patterns (all-free
// magic with zero-arity magic seeds, second-argument-bound adornments),
// engine statistics invariants, and level-method behaviour on wide data.
#include <gtest/gtest.h>

#include <set>

#include "baselines/bottom_up.h"
#include "baselines/counting.h"
#include "baselines/magic.h"
#include "datalog/parser.h"
#include "equations/lemma1.h"
#include "eval/query.h"
#include "transform/adorn.h"
#include "workloads/workloads.h"

namespace binchain {
namespace {

Program MustParse(const std::string& text, SymbolTable& symbols) {
  auto r = ParseProgram(text, symbols);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.take();
}

Literal MustLiteral(const std::string& text, SymbolTable& symbols) {
  auto r = ParseLiteral(text, symbols);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return r.take();
}

TEST(MagicExtraTest, AllFreeQueryUsesZeroArityMagicSeed) {
  Database db;
  std::string a = workloads::Fig7c(db, 6);
  (void)a;
  Program p = MustParse(workloads::SgProgramText(), db.symbols());
  Literal q = MustLiteral("sg(X, Y)", db.symbols());
  auto magic = MagicQuery(p, db, q, nullptr);
  ASSERT_TRUE(magic.ok()) << magic.status().message();
  auto semi = SeminaiveQuery(p, db, q, nullptr);
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(magic.value(), semi.value());
  EXPECT_FALSE(magic.value().empty());
}

TEST(MagicExtraTest, SecondArgumentBoundAdornsFb) {
  Database db;
  workloads::Fig7a(db, 5);
  Program p = MustParse(workloads::SgProgramText(), db.symbols());
  auto adorned =
      AdornProgram(p, db.symbols(), MustLiteral("sg(X, e3)", db.symbols()));
  ASSERT_TRUE(adorned.ok());
  EXPECT_EQ(adorned.value().query.adornment.ToString(), "fb");
  // In the fb rule the *down* literal is the prefix and up the suffix.
  for (const AdornedRule& r : adorned.value().rules) {
    if (!r.has_derived) continue;
    ASSERT_EQ(r.prefix.size(), 1u);
    EXPECT_EQ(db.symbols().Name(r.prefix[0].predicate), "down");
    ASSERT_EQ(r.suffix.size(), 1u);
    EXPECT_EQ(db.symbols().Name(r.suffix[0].predicate), "up");
  }
  Literal q = MustLiteral("sg(X, e3)", db.symbols());
  auto magic = MagicQuery(p, db, q, nullptr);
  ASSERT_TRUE(magic.ok()) << magic.status().message();
  auto semi = SeminaiveQuery(p, db, q, nullptr);
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(magic.value(), semi.value());
}

TEST(MagicExtraTest, BothBoundQuery) {
  Database db;
  std::string a = workloads::Fig7c(db, 6);
  Program p = MustParse(workloads::SgProgramText(), db.symbols());
  Literal q = MustLiteral("sg(" + a + ", b1)", db.symbols());
  auto magic = MagicQuery(p, db, q, nullptr);
  ASSERT_TRUE(magic.ok()) << magic.status().message();
  EXPECT_EQ(magic.value().size(), 1u);
}

TEST(EngineStatsTest, ExpansionsTrackIterationsOnSg) {
  Database db;
  std::string a = workloads::Fig7c(db, 10);
  QueryEngine qe(&db);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  auto r = qe.Query("sg(" + a + ", Y)");
  ASSERT_TRUE(r.ok());
  // One sg machine copy is appended per non-final iteration.
  EXPECT_EQ(r.value().stats.expansions, r.value().stats.iterations - 1);
  // The answer trace is monotone and ends at the answer count.
  const auto& trace = r.value().stats.answers_per_iteration;
  ASSERT_EQ(trace.size(), r.value().stats.iterations);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i], trace[i - 1]);
  }
  EXPECT_EQ(trace.back(), r.value().tuples.size());
}

TEST(EngineStatsTest, RegularQueryNeedsNoExpansion) {
  Database db;
  workloads::Chain(db, "e", "v", 20);
  QueryEngine qe(&db);
  ASSERT_TRUE(qe.LoadProgramText(workloads::PathProgramText()).ok());
  auto r = qe.Query("path(v1, Y)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.expansions, 0u);
  EXPECT_EQ(r.value().stats.iterations, 1u);
}

TEST(LevelExtraTest, WideLadderKeepsCountingLinear) {
  // Fan-out at each flat level: counting work stays proportional to the
  // data size while Henschen-Naqvi pays the re-traversal factor.
  Database db;
  const size_t h = 40;
  for (size_t i = 1; i < h; ++i) {
    db.AddFact("up", {"a" + std::to_string(i), "a" + std::to_string(i + 1)});
    db.AddFact("down",
               {"b" + std::to_string(i + 1), "b" + std::to_string(i)});
  }
  for (size_t i = 1; i <= h; ++i) {
    db.AddFact("flat", {"a" + std::to_string(i), "b" + std::to_string(i)});
  }
  Program p = MustParse(workloads::SgProgramText(), db.symbols());
  auto eqs = TransformToEquations(p, db.symbols());
  ASSERT_TRUE(eqs.ok());
  LinearNormalForm nf;
  ASSERT_TRUE(MatchLinearNormalForm(eqs.value().final_system,
                                    *db.symbols().Find("sg"), &nf));
  ViewRegistry views(&db.symbols());
  views.RegisterDatabase(db);
  TermId src = views.pool().Unary(*db.symbols().Find("a1"));
  LevelStats cs, hs;
  auto c = CountingQuery(views, nf, src, 1000, &cs);
  auto hn = HenschenNaqviQuery(views, nf, src, 1000, &hs);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(hn.ok());
  EXPECT_EQ(c.value(), hn.value());
  EXPECT_LT(cs.up_work + cs.down_work, (hs.up_work + hs.down_work) / 4);
}

TEST(LevelExtraTest, SourceWithNoUpEdges) {
  Database db;
  db.AddFact("flat", {"lone", "mate"});
  db.AddFact("up", {"x", "y"});
  db.AddFact("down", {"y", "x"});
  Program p = MustParse(workloads::SgProgramText(), db.symbols());
  auto eqs = TransformToEquations(p, db.symbols());
  ASSERT_TRUE(eqs.ok());
  LinearNormalForm nf;
  ASSERT_TRUE(MatchLinearNormalForm(eqs.value().final_system,
                                    *db.symbols().Find("sg"), &nf));
  ViewRegistry views(&db.symbols());
  views.RegisterDatabase(db);
  TermId src = views.pool().Unary(*db.symbols().Find("lone"));
  auto c = CountingQuery(views, nf, src, 100, nullptr);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.value().size(), 1u);
  EXPECT_EQ(db.symbols().Name(views.pool().AsUnary(c.value()[0])), "mate");
}

TEST(QueryEngineExtraTest, StatsResetBetweenQueries) {
  Database db;
  workloads::Fig7c(db, 8);
  QueryEngine qe(&db);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  auto r1 = qe.Query("sg(a1, Y)");
  ASSERT_TRUE(r1.ok());
  auto r2 = qe.Query("sg(a5, Y)");
  ASSERT_TRUE(r2.ok());
  // a5 starts higher on the ladder: fewer iterations than from a1.
  EXPECT_LT(r2.value().stats.iterations, r1.value().stats.iterations);
  auto r1_again = qe.Query("sg(a1, Y)");
  ASSERT_TRUE(r1_again.ok());
  EXPECT_EQ(r1_again.value().stats.nodes, r1.value().stats.nodes);
  EXPECT_EQ(r1_again.value().tuples, r1.value().tuples);
}

TEST(QueryEngineExtraTest, SgInverseQueryViaInvertedSystem) {
  Database db;
  workloads::Fig7a(db, 4);
  QueryEngine qe(&db);
  ASSERT_TRUE(qe.LoadProgramText(workloads::SgProgramText()).ok());
  // sg(X, e2): who is in the same generation as leaf e2?
  auto r = qe.Query("sg(X, e2)");
  ASSERT_TRUE(r.ok()) << r.status().message();
  std::set<std::string> names;
  for (const Tuple& t : r.value().tuples) names.insert(db.symbols().Name(t[0]));
  EXPECT_EQ(names, (std::set<std::string>{"a"}));
}

}  // namespace
}  // namespace binchain
