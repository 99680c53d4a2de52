#include <gtest/gtest.h>

#include <set>

#include "storage/database.h"
#include "storage/relation.h"
#include "storage/symbol_table.h"
#include "storage/term_pool.h"

namespace binchain {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable t;
  SymbolId a = t.Intern("alpha");
  SymbolId b = t.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, t.Intern("alpha"));
  EXPECT_EQ(t.Name(a), "alpha");
  EXPECT_EQ(t.size(), 2u);
}

TEST(SymbolTableTest, FindReturnsExistingOnly) {
  SymbolTable t;
  EXPECT_FALSE(t.Find("x").has_value());
  SymbolId x = t.Intern("x");
  ASSERT_TRUE(t.Find("x").has_value());
  EXPECT_EQ(*t.Find("x"), x);
}

TEST(SymbolTableTest, IntegerSpellingsCarryValues) {
  SymbolTable t;
  EXPECT_EQ(t.IntValue(t.Intern("42")).value_or(-1), 42);
  EXPECT_EQ(t.IntValue(t.Intern("-7")).value_or(0), -7);
  EXPECT_FALSE(t.IntValue(t.Intern("x42")).has_value());
  EXPECT_FALSE(t.IntValue(t.Intern("-")).has_value());
  EXPECT_FALSE(t.IntValue(t.Intern("")).has_value());
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));
  EXPECT_TRUE(r.Insert({2, 1}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({3, 3}));
}

TEST(RelationTest, MaskedLookupFindsMatches) {
  Relation r(2);
  r.Insert({1, 10});
  r.Insert({1, 11});
  r.Insert({2, 10});
  std::vector<Tuple> got;
  r.ForEachMatch(0b01, {1, 0}, [&](const Tuple& t) { got.push_back(t); });
  EXPECT_EQ(got.size(), 2u);
  got.clear();
  r.ForEachMatch(0b10, {0, 10}, [&](const Tuple& t) { got.push_back(t); });
  EXPECT_EQ(got.size(), 2u);
  got.clear();
  r.ForEachMatch(0b11, {1, 11}, [&](const Tuple& t) { got.push_back(t); });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Tuple{1, 11}));
}

TEST(RelationTest, IndexAbsorbsLaterInsertions) {
  Relation r(2);
  r.Insert({1, 10});
  std::vector<Tuple> got;
  r.ForEachMatch(0b01, {1, 0}, [&](const Tuple& t) { got.push_back(t); });
  EXPECT_EQ(got.size(), 1u);
  r.Insert({1, 11});  // after the index was built
  got.clear();
  r.ForEachMatch(0b01, {1, 0}, [&](const Tuple& t) { got.push_back(t); });
  EXPECT_EQ(got.size(), 2u);
}

TEST(RelationTest, FullScanWithEmptyMask) {
  Relation r(3);
  r.Insert({1, 2, 3});
  r.Insert({4, 5, 6});
  size_t count = 0;
  r.ForEachMatch(0, {0, 0, 0}, [&](const Tuple&) { ++count; });
  EXPECT_EQ(count, 2u);
}

TEST(RelationTest, FetchCountTracksRetrievals) {
  Relation r(2);
  r.Insert({1, 2});
  r.Insert({1, 3});
  r.ResetFetchCount();
  r.ForEachMatch(0b01, {1, 0}, [](const Tuple&) {});
  EXPECT_EQ(r.fetch_count(), 2u);
}

TEST(DatabaseTest, AddFactCreatesRelationsAndInterns) {
  Database db;
  db.AddFact("up", {"a", "b"});
  db.AddFact("up", {"a", "b"});  // duplicate
  db.AddFact("up", {"b", "c"});
  const Relation* up = db.Find("up");
  ASSERT_NE(up, nullptr);
  EXPECT_EQ(up->size(), 2u);
  EXPECT_EQ(db.Find("down"), nullptr);
}

TEST(DatabaseTest, RelationNamesPreserveOrder) {
  Database db;
  db.AddFact("zeta", {"a"});
  db.AddFact("alpha", {"b"});
  ASSERT_EQ(db.relation_names().size(), 2u);
  EXPECT_EQ(db.relation_names()[0], "zeta");
  EXPECT_EQ(db.relation_names()[1], "alpha");
}

TEST(TermPoolTest, InternsUnaryAndTupleTerms) {
  TermPool pool;
  TermId a = pool.Unary(7);
  TermId b = pool.InternTuple({7});
  EXPECT_EQ(a, b);
  TermId pair = pool.InternTuple({7, 8});
  EXPECT_NE(a, pair);
  EXPECT_EQ(pool.Get(pair), (Tuple{7, 8}));
  EXPECT_EQ(pool.AsUnary(a), 7u);
  TermId empty = pool.InternTuple({});
  EXPECT_EQ(pool.Get(empty).size(), 0u);
}

TEST(TermPoolTest, UnaryTermsAreTheirConstants) {
  TermPool pool;
  for (SymbolId c : {0u, 7u, TermPool::kTupleTag - 1}) {
    EXPECT_EQ(pool.InternTuple({c}), c);
    EXPECT_TRUE(TermPool::IsUnary(c));
    EXPECT_EQ(pool.Get(c), (Tuple{c}));
  }
  EXPECT_EQ(pool.size(), 0u);  // constants take no pool space
}

TEST(TermPoolTest, TupleTermsGetDistinctTaggedIds) {
  TermPool pool;
  const Tuple shapes[] = {Tuple{}, Tuple{7, 8}, Tuple{1, 2, 3, 4, 5}};
  ASSERT_GT(shapes[2].size(), Tuple::kInlineCapacity);  // heap spill
  std::set<TermId> ids;
  for (const Tuple& t : shapes) {
    TermId id = pool.InternTuple(t);
    EXPECT_FALSE(TermPool::IsUnary(id));
    EXPECT_NE(id & TermPool::kTupleTag, 0u);
    EXPECT_EQ(pool.Get(id), t);
    EXPECT_EQ(pool.InternTuple(t), id);  // interned once
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 3u);
  pool.InternTuple({9});  // a constant: not counted
  EXPECT_EQ(pool.size(), 3u);
}

}  // namespace
}  // namespace binchain
