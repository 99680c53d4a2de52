#include <gtest/gtest.h>

#include "automata/nfa.h"
#include "util/rng.h"

namespace binchain {
namespace {

class NfaTest : public ::testing::Test {
 protected:
  SymbolTable symbols_;
  SymbolId a_ = symbols_.Intern("a");
  SymbolId b_ = symbols_.Intern("b");
  SymbolId p_ = symbols_.Intern("p");

  static size_t CountKind(const Nfa& nfa, NfaLabel::Kind kind) {
    size_t n = 0;
    for (uint32_t s = 0; s < nfa.NumStates(); ++s) {
      for (const NfaTransition& t : nfa.Out(s)) {
        if (t.label.kind == kind) ++n;
      }
    }
    return n;
  }
};

TEST_F(NfaTest, PredLeafIsSingleTransition) {
  Nfa nfa = BuildNfa(Rex::Pred(a_), [](SymbolId) { return false; });
  EXPECT_EQ(nfa.NumStates(), 2u);
  EXPECT_EQ(CountKind(nfa, NfaLabel::Kind::kRel), 1u);
  EXPECT_EQ(nfa.Out(nfa.initial())[0].target, nfa.final());
}

TEST_F(NfaTest, DerivedClassifierControlsLabelKind) {
  Nfa nfa = BuildNfa(Rex::Concat2(Rex::Pred(a_), Rex::Pred(p_)),
                     [&](SymbolId s) { return s == p_; });
  EXPECT_EQ(CountKind(nfa, NfaLabel::Kind::kRel), 1u);
  EXPECT_EQ(CountKind(nfa, NfaLabel::Kind::kDerived), 1u);
}

TEST_F(NfaTest, EmptyExpressionDisconnects) {
  Nfa nfa = BuildNfa(Rex::Empty(), [](SymbolId) { return false; });
  EXPECT_EQ(CountKind(nfa, NfaLabel::Kind::kId), 0u);
  EXPECT_NE(nfa.initial(), nfa.final());
}

TEST_F(NfaTest, StarAllowsSkipAndRepeat) {
  Nfa nfa = BuildNfa(Rex::Star(Rex::Pred(a_)), [](SymbolId) { return false; });
  // Thompson star: 4 id transitions (skip, enter, exit, repeat).
  EXPECT_EQ(CountKind(nfa, NfaLabel::Kind::kId), 4u);
  EXPECT_EQ(CountKind(nfa, NfaLabel::Kind::kRel), 1u);
}

TEST_F(NfaTest, InvertedLeafKeepsFlag) {
  Nfa nfa =
      BuildNfa(Rex::Pred(a_, /*inverted=*/true), [](SymbolId) { return false; });
  EXPECT_TRUE(nfa.Out(nfa.initial())[0].label.inverted);
}

TEST_F(NfaTest, FigureOneAutomatonShape) {
  // e_p = (b3.b4* U b2.p).b1 (Figure 1): one derived transition, four
  // relation transitions.
  SymbolId b1 = symbols_.Intern("b1"), b2 = symbols_.Intern("b2"),
           b3 = symbols_.Intern("b3"), b4 = symbols_.Intern("b4");
  RexPtr e = Rex::Concat2(
      Rex::Union2(Rex::Concat2(Rex::Pred(b3), Rex::Star(Rex::Pred(b4))),
                  Rex::Concat2(Rex::Pred(b2), Rex::Pred(p_))),
      Rex::Pred(b1));
  Nfa nfa = BuildNfa(e, [&](SymbolId s) { return s == p_; });
  EXPECT_EQ(CountKind(nfa, NfaLabel::Kind::kRel), 4u);
  EXPECT_EQ(CountKind(nfa, NfaLabel::Kind::kDerived), 1u);
}

// Random expression trees, built node by node (bypassing the smart
// constructors' flattening, so nested unions, stars of stars and id/empty
// operands all reach BuildNfa).
RexPtr RandomRex(Rng& rng, int depth, const std::vector<SymbolId>& preds) {
  auto node = [](Rex::Kind kind, std::vector<RexPtr> kids) -> RexPtr {
    auto r = std::make_shared<Rex>();
    r->kind = kind;
    r->kids = std::move(kids);
    return r;
  };
  uint64_t pick = depth <= 0 ? rng.Below(3) : rng.Below(6);
  switch (pick) {
    case 0:
      return rng.Chance(1, 8) ? Rex::Empty() : Rex::Id();
    case 1:
    case 2:
      return Rex::Pred(preds[rng.Below(preds.size())], rng.Chance(1, 3));
    case 3:
      return node(Rex::Kind::kStar, {RandomRex(rng, depth - 1, preds)});
    default: {
      std::vector<RexPtr> kids(rng.Between(2, 4));
      for (RexPtr& k : kids) k = RandomRex(rng, depth - 1, preds);
      return node(pick == 4 ? Rex::Kind::kUnion : Rex::Kind::kConcat,
                  std::move(kids));
    }
  }
}

// The engine addresses EM(p, i) as (copy, local state) and keeps one child
// copy per state, which is sound only because every Thompson state has at
// most one non-id (relation or derived) arc.
TEST_F(NfaTest, EveryStateHasAtMostOneNonIdArc) {
  std::vector<SymbolId> preds = {a_, b_, p_};
  auto is_derived = [&](SymbolId s) { return s == p_; };
  Rng rng(42);
  size_t derived_arcs = 0;
  for (int trial = 0; trial < 500; ++trial) {
    RexPtr e = RandomRex(rng, static_cast<int>(rng.Between(1, 6)), preds);
    Nfa nfa = BuildNfa(e, is_derived);
    for (uint32_t s = 0; s < nfa.NumStates(); ++s) {
      size_t non_id = 0;
      for (const NfaTransition& t : nfa.Out(s)) {
        if (t.label.kind != NfaLabel::Kind::kId) ++non_id;
        if (t.label.kind == NfaLabel::Kind::kDerived) ++derived_arcs;
      }
      ASSERT_LE(non_id, 1u) << "trial " << trial << " state q" << s << "\n"
                            << nfa.ToString(symbols_);
    }
  }
  EXPECT_GT(derived_arcs, 0u);  // the trees did exercise derived leaves
}

}  // namespace
}  // namespace binchain
