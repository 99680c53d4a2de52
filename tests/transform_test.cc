#include <gtest/gtest.h>

#include <set>

#include "baselines/bottom_up.h"
#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "transform/adorn.h"
#include "transform/binarize.h"
#include "transform/simple_bin.h"
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

class AdornTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(AdornTest, SgBfStaysBf) {
  Program p = MustParse(workloads::SgProgramText(), db_.symbols());
  auto adorned =
      AdornProgram(p, db_.symbols(), MustLiteral("sg(a, Y)", db_.symbols()));
  ASSERT_TRUE(adorned.ok()) << adorned.status().message();
  EXPECT_EQ(adorned.value().query.adornment.ToString(), "bf");
  // Two rules, both adorned bf; the recursive one passes bf inward.
  ASSERT_EQ(adorned.value().rules.size(), 2u);
  for (const AdornedRule& r : adorned.value().rules) {
    EXPECT_EQ(r.head.adornment.ToString(), "bf");
    if (r.has_derived) {
      EXPECT_EQ(r.derived_adorned.adornment.ToString(), "bf");
      EXPECT_EQ(r.prefix.size(), 1u);  // up(X, X1)
      EXPECT_EQ(r.suffix.size(), 1u);  // down(Y1, Y)
    }
  }
  EXPECT_TRUE(IsChainProgram(adorned.value()));
}

TEST_F(AdornTest, FlightProgramAdornsBbff) {
  Program p = MustParse(workloads::FlightProgramText(), db_.symbols());
  auto adorned = AdornProgram(
      p, db_.symbols(), MustLiteral("cnx(p0, 3, D, AT)", db_.symbols()));
  ASSERT_TRUE(adorned.ok()) << adorned.status().message();
  EXPECT_EQ(adorned.value().query.adornment.ToString(), "bbff");
  for (const AdornedRule& r : adorned.value().rules) {
    EXPECT_EQ(r.head.adornment.ToString(), "bbff");
    if (r.has_derived) {
      EXPECT_EQ(r.derived_adorned.adornment.ToString(), "bbff");
      // flight, <, is-deptime all belong to the prefix.
      EXPECT_EQ(r.prefix.size(), 3u);
      EXPECT_TRUE(r.suffix.empty());
    }
  }
  EXPECT_TRUE(IsChainProgram(adorned.value()));
}

TEST_F(AdornTest, AlternatingProgramFlipsAdornment) {
  Program p = MustParse(workloads::AlternatingProgramText(), db_.symbols());
  auto adorned =
      AdornProgram(p, db_.symbols(), MustLiteral("p(a, Y)", db_.symbols()));
  ASSERT_TRUE(adorned.ok()) << adorned.status().message();
  std::set<std::string> seen;
  for (const AdornedRule& r : adorned.value().rules) {
    seen.insert(AdornedName(r.head, db_.symbols()));
  }
  EXPECT_EQ(seen, (std::set<std::string>{"p~bf", "p~fb"}));
  EXPECT_TRUE(IsChainProgram(adorned.value()));
}

TEST_F(AdornTest, NonChainProgramDetected) {
  Program p = MustParse(workloads::NonChainProgramText(), db_.symbols());
  auto adorned =
      AdornProgram(p, db_.symbols(), MustLiteral("p(a, Y)", db_.symbols()));
  ASSERT_TRUE(adorned.ok()) << adorned.status().message();
  EXPECT_FALSE(IsChainProgram(adorned.value()));
}

TEST_F(AdornTest, RejectsTwoDerivedLiterals) {
  Program p = MustParse(
      "t(X, Z) :- t(X, Y), t(Y, Z).\nt(X, Y) :- e(X, Y).\n", db_.symbols());
  auto adorned =
      AdornProgram(p, db_.symbols(), MustLiteral("t(a, Y)", db_.symbols()));
  EXPECT_FALSE(adorned.ok());
}

// Same-generation over arity-4 relations whose nodes are pairs (x, x):
// the Section-4 transformation feeds the engine pair terms.
constexpr char kSg2Program[] =
    "sg2(X1, X2, Y1, Y2) :- flat2(X1, X2, Y1, Y2).\n"
    "sg2(X1, X2, Y1, Y2) :- up2(X1, X2, Z1, Z2), sg2(Z1, Z2, W1, W2), "
    "down2(W1, W2, Y1, Y2).\n";

// Figure 8 over pair nodes: an up2-cycle of length m, a down2-cycle of
// length n, and flat2((a_m, a_m), (b_n, b_n)).
void PairFig8(Database& db, size_t m, size_t n) {
  auto name = [](const char* prefix, size_t i) {
    return prefix + std::to_string(i);
  };
  for (size_t i = 1; i <= m; ++i) {
    std::string from = name("a", i), to = name("a", i % m + 1);
    db.AddFact("up2", {from, from, to, to});
  }
  for (size_t i = 1; i <= n; ++i) {
    std::string from = name("b", i), to = name("b", i == 1 ? n : i - 1);
    db.AddFact("down2", {from, from, to, to});
  }
  std::string a = name("a", m), b = name("b", n);
  db.AddFact("flat2", {a, a, b, b});
}

class BinarizeTest : public ::testing::Test {
 protected:
  Database db_;

  std::vector<Tuple> Transformed(const std::string& program_text,
                                 const std::string& query_text,
                                 bool allow_non_chain = false) {
    Program p = MustParse(program_text, db_.symbols());
    Literal q = MustLiteral(query_text, db_.symbols());
    auto r = EvaluateViaBinarization(p, db_, q, {}, allow_non_chain);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return r.ok() ? r.value().tuples : std::vector<Tuple>{};
  }

  std::vector<Tuple> Reference(const std::string& program_text,
                               const std::string& query_text) {
    Program p = MustParse(program_text, db_.symbols());
    Literal q = MustLiteral(query_text, db_.symbols());
    auto r = SeminaiveQuery(p, db_, q, nullptr);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return r.ok() ? r.value() : std::vector<Tuple>{};
  }
};

TEST_F(BinarizeTest, SgMatchesSeminaive) {
  std::string a = workloads::Fig7a(db_, 5);
  std::string q = "sg(" + a + ", Y)";
  EXPECT_EQ(Transformed(workloads::SgProgramText(), q),
            Reference(workloads::SgProgramText(), q));
}

TEST_F(BinarizeTest, SgBothArgumentsBound) {
  // The transformation propagates bindings of *both* arguments (end of
  // Section 3: the plain algorithm cannot, the transformed program can).
  std::string a = workloads::Fig7c(db_, 6);
  std::string q = "sg(" + a + ", b1)";
  auto got = Transformed(workloads::SgProgramText(), q);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(db_.symbols().Name(got[0][1]), "b1");
}

TEST_F(BinarizeTest, DiagonalQueryMatchesSeminaive) {
  // sg(X, X) repeats its variable: the answer is the diagonal of sg(X, Y),
  // here (a, a), (d, d) and (e, e) but not (b, c) or (c, b).
  db_.AddFact("flat", {"a", "a"});
  db_.AddFact("flat", {"b", "c"});
  db_.AddFact("flat", {"c", "b"});
  db_.AddFact("up", {"d", "b"});
  db_.AddFact("down", {"c", "d"});
  db_.AddFact("up", {"e", "a"});
  db_.AddFact("down", {"a", "e"});
  auto got = Transformed(workloads::SgProgramText(), "sg(X, X)");
  EXPECT_EQ(got, Reference(workloads::SgProgramText(), "sg(X, X)"));
  EXPECT_EQ(got.size(), 3u);
}

TEST_F(BinarizeTest, FlightConnectionsMatchSeminaive) {
  workloads::FlightSpec spec;
  spec.airports = 6;
  spec.flights = 40;
  spec.horizon = 30;
  std::string p0 = workloads::BuildFlights(db_, spec);
  // Find some departure time of p0 to make the query satisfiable.
  const Relation* flight = db_.Find("flight");
  ASSERT_NE(flight, nullptr);
  std::string dt;
  SymbolId p0_sym = *db_.symbols().Find(p0);
  for (const Tuple& t : flight->tuples()) {
    if (t[0] == p0_sym) {
      dt = db_.symbols().Name(t[1]);
      break;
    }
  }
  ASSERT_FALSE(dt.empty());
  std::string q = "cnx(" + p0 + ", " + dt + ", D, AT)";
  EXPECT_EQ(Transformed(workloads::FlightProgramText(), q),
            Reference(workloads::FlightProgramText(), q));
}

TEST_F(BinarizeTest, AlternatingBindingsMatchSeminaive) {
  Rng rng(11);
  workloads::RandomGraph(db_, "b0", "n", 12, 20, rng);
  // The recursion walks b1; keep it acyclic so the traversal terminates
  // (the C = 0 condition, Theorem 4 (2)).
  workloads::RandomDag(db_, "b1", "n", 12, 20, rng);
  std::string q = "p(n1, Y)";
  EXPECT_EQ(Transformed(workloads::AlternatingProgramText(), q),
            Reference(workloads::AlternatingProgramText(), q));
}

TEST_F(BinarizeTest, CyclicPairTermsStopAtTheBound) {
  // The cyclic bound's image traversals and the engine's node set both
  // meet tuple terms here, whose tagged ids must never size an array.
  PairFig8(db_, 5, 7);
  const std::string q = "sg2(a1, a1, Y1, Y2)";
  EvalOptions options;
  options.use_cyclic_bound = true;
  auto r = EvaluateViaBinarization(MustParse(kSg2Program, db_.symbols()), db_,
                                   MustLiteral(q, db_.symbols()), options);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().tuples, Reference(kSg2Program, q));
  EXPECT_EQ(r.value().tuples.size(), 7u);
  EXPECT_EQ(r.value().stats.iterations, 35u);
  EXPECT_EQ(r.value().stats.nodes, 721u);
}

TEST_F(BinarizeTest, NonChainProgramRejectedByDefault) {
  db_.AddFact("b1", {"a", "b"});
  db_.AddFact("b0", {"b", "c"});
  Program p = MustParse(workloads::NonChainProgramText(), db_.symbols());
  Literal q = MustLiteral("p(a, Y)", db_.symbols());
  auto r = EvaluateViaBinarization(p, db_, q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST_F(BinarizeTest, NonChainOverapproximates) {
  // Lemma 5: the transformed program *contains* the original relation; on
  // the paper's counterexample it is a strict superset.
  db_.AddFact("b1", {"a", "b"});
  db_.AddFact("b0", {"b", "c"});
  auto got = Transformed(workloads::NonChainProgramText(), "p(a, Y)",
                         /*allow_non_chain=*/true);
  auto ref = Reference(workloads::NonChainProgramText(), "p(a, Y)");
  ASSERT_EQ(ref.size(), 1u);  // the correct answer is exactly {b}
  EXPECT_EQ(db_.symbols().Name(ref[0][1]), "b");
  std::set<Tuple> got_set(got.begin(), got.end());
  for (const Tuple& t : ref) EXPECT_TRUE(got_set.count(t));
  EXPECT_GT(got.size(), ref.size());
}

TEST_F(BinarizeTest, BinProgramIsBinaryChain) {
  Program p = MustParse(workloads::FlightProgramText(), db_.symbols());
  auto adorned = AdornProgram(
      p, db_.symbols(), MustLiteral("cnx(p0, 3, D, AT)", db_.symbols()));
  ASSERT_TRUE(adorned.ok());
  auto bin = Binarize(adorned.value(), db_.symbols());
  ASSERT_TRUE(bin.ok()) << bin.status().message();
  ProgramAnalysis analysis(bin.value().bin_program, db_.symbols());
  EXPECT_TRUE(analysis.IsBinaryChainProgram());
  EXPECT_TRUE(analysis.IsLinearProgram());
  // The recursive flight rule drops its trivial out-r (paper example).
  bool found_two_literal_rule = false;
  for (const Rule& r : bin.value().bin_program.rules) {
    if (r.body.size() == 2) found_two_literal_rule = true;
  }
  EXPECT_TRUE(found_two_literal_rule);
}

TEST_F(BinarizeTest, SimpleBinMatchesButTouchesEverything) {
  std::string a = workloads::Fig7c(db_, 8);
  Program p = MustParse(workloads::SgProgramText(), db_.symbols());
  Literal q = MustLiteral("sg(" + a + ", Y)", db_.symbols());
  SimpleBinStats stats;
  auto r = SimpleBinQuery(p, db_, q, &stats);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value(), Reference(workloads::SgProgramText(),
                                 "sg(" + a + ", Y)"));
  // The whole bin relation is materialized regardless of the binding.
  EXPECT_GT(stats.bin_edges, 8u);
}

}  // namespace
}  // namespace binchain
