// Index semantics of the arena-backed Relation: lazy catch-up after
// post-index inserts, empty-mask full scans, all-columns point lookups,
// duplicate rejection, view/arena consistency, and repeated-variable
// literals flowing through EnumerateMatches.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "datalog/parser.h"
#include "eval/join.h"
#include "storage/chain_compaction.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace binchain {
namespace {

std::vector<Tuple> Matches(const Relation& r, uint32_t mask,
                           const Tuple& key) {
  std::vector<Tuple> got;
  r.ForEachMatch(mask, key, [&](TupleRef t) { got.push_back(Tuple(t)); });
  return got;
}

TEST(RelationIndexTest, LazyCatchUpAfterPostIndexInserts) {
  Relation r(2);
  r.Insert({1, 10});
  r.Insert({2, 20});
  // Build the column-0 index, then append behind its back — twice, with a
  // probe in between, so indexed_upto advances incrementally.
  EXPECT_EQ(Matches(r, 0b01, {1, 0}).size(), 1u);
  r.Insert({1, 11});
  EXPECT_EQ(Matches(r, 0b01, {1, 0}).size(), 2u);
  r.Insert({1, 12});
  r.Insert({3, 30});
  auto got = Matches(r, 0b01, {1, 0});
  ASSERT_EQ(got.size(), 3u);
  // Chains enumerate in insertion order.
  EXPECT_EQ(got[0], (Tuple{1, 10}));
  EXPECT_EQ(got[1], (Tuple{1, 11}));
  EXPECT_EQ(got[2], (Tuple{1, 12}));
}

TEST(RelationIndexTest, CatchUpAcrossManyInsertsForcesTableGrowth) {
  Relation r(2);
  r.Insert({0, 0});
  EXPECT_EQ(Matches(r, 0b01, {0, 0}).size(), 1u);  // index exists, 1 key
  // Push the index through several open-addressing growth cycles during one
  // catch-up batch.
  for (SymbolId i = 1; i < 500; ++i) r.Insert({i, i + 1000});
  for (SymbolId i = 0; i < 500; ++i) {
    ASSERT_EQ(Matches(r, 0b01, {i, 0}).size(), 1u) << i;
  }
}

TEST(RelationIndexTest, EmptyMaskIsFullScan) {
  Relation r(3);
  r.Insert({1, 2, 3});
  r.Insert({4, 5, 6});
  r.Insert({7, 8, 9});
  auto got = Matches(r, 0, {0, 0, 0});
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (Tuple{1, 2, 3}));  // dense row order
  EXPECT_EQ(got[2], (Tuple{7, 8, 9}));
}

TEST(RelationIndexTest, AllColumnsMaskIsPointLookup) {
  Relation r(2);
  r.Insert({1, 10});
  r.Insert({1, 11});
  r.Insert({2, 10});
  auto got = Matches(r, 0b11, {1, 11});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Tuple{1, 11}));
  EXPECT_TRUE(Matches(r, 0b11, {2, 11}).empty());
}

TEST(RelationIndexTest, DuplicateInsertRejectedAndNotDoubleIndexed) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({5, 6}));
  EXPECT_FALSE(r.Insert({5, 6}));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(Matches(r, 0b01, {5, 0}).size(), 1u);
  EXPECT_FALSE(r.Insert({5, 6}));  // also rejected after the index exists
  EXPECT_EQ(Matches(r, 0b01, {5, 0}).size(), 1u);
}

TEST(RelationIndexTest, FetchCountsMatchDeliveredTuples) {
  Relation r(2);
  r.Insert({1, 10});
  r.Insert({1, 11});
  r.Insert({2, 20});
  r.ResetFetchCount();
  Matches(r, 0b01, {1, 0});  // 2 tuples
  Matches(r, 0, {0, 0});     // 3 tuples (full scan)
  Matches(r, 0b01, {9, 0});  // miss: 0 tuples
  EXPECT_EQ(r.fetch_count(), 5u);
}

TEST(RelationIndexTest, FreezeCompletesLazyCatchUpAndStopsCounting) {
  Relation r(2);
  r.Insert({1, 10});
  EXPECT_EQ(Matches(r, 0b01, {1, 0}).size(), 1u);  // index exists, stale soon
  r.Insert({1, 11});
  r.Insert({2, 20});
  r.ResetFetchCount();
  uint64_t tls_before = Relation::ThreadFetchCount();
  r.Freeze();
  EXPECT_TRUE(r.frozen());
  // Catch-up happened eagerly at freeze time; probes see every row.
  auto got = Matches(r, 0b01, {1, 0});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (Tuple{1, 10}));
  EXPECT_EQ(got[1], (Tuple{1, 11}));
  // Binary relations get both single-column masks pre-built by Freeze, so
  // a mask never probed before the freeze is still served by an index.
  EXPECT_EQ(Matches(r, 0b10, {0, 20}).size(), 1u);
  EXPECT_EQ(Matches(r, 0b11, {2, 20}).size(), 1u);
  EXPECT_EQ(Matches(r, 0, {0, 0}).size(), 3u);
  EXPECT_TRUE(r.Contains(Tuple{2, 20}));
  // Frozen fetches land in the thread-local counter, not the relation.
  EXPECT_EQ(r.fetch_count(), 0u);
  EXPECT_EQ(Relation::ThreadFetchCount() - tls_before, 7u);
}

TEST(RelationIndexTest, FrozenWideRelationFallsBackToScanForNewMasks) {
  // Arity above kEagerFreezeArity: only masks indexed before the freeze
  // have indexes; fresh masks are answered by a read-only filtered scan.
  Relation r(Relation::kEagerFreezeArity + 1);
  r.Insert({1, 2, 3, 4, 5});
  r.Insert({1, 9, 9, 9, 6});
  r.Insert({7, 2, 3, 4, 5});
  EXPECT_EQ(Matches(r, 0b00001, {1, 0, 0, 0, 0}).size(), 2u);  // pre-freeze
  r.Freeze();
  EXPECT_EQ(Matches(r, 0b00001, {1, 0, 0, 0, 0}).size(), 2u);  // via index
  auto got = Matches(r, 0b00110, {0, 2, 3, 0, 0});  // fresh mask: scan
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (Tuple{1, 2, 3, 4, 5}));
  EXPECT_EQ(got[1], (Tuple{7, 2, 3, 4, 5}));
}

TEST(RelationIndexTest, FrozenRelationRejectsInserts) {
  Relation r(2);
  r.Insert({1, 2});
  r.Freeze();
  EXPECT_DEATH(r.Insert(Tuple{3, 4}), "frozen");
}

TEST(RelationIndexTest, DatabaseFreezePropagates) {
  Database db;
  db.AddFact("e", {"a", "b"});
  db.Freeze();
  EXPECT_TRUE(db.frozen());
  EXPECT_TRUE(db.symbols().frozen());
  EXPECT_TRUE(db.Find("e")->frozen());
  db.Freeze();  // idempotent
  // Existing spellings still intern (pure lookup); fresh ones abort.
  EXPECT_EQ(db.symbols().Intern("a"), *db.symbols().Find("a"));
  EXPECT_DEATH(db.symbols().Intern("brand_new_symbol"), "frozen");
  EXPECT_DEATH(db.GetOrCreate("fresh_rel", 2), "frozen");
}

TEST(RelationIndexTest, TupleViewsStayValidAcrossArenaGrowth) {
  Relation r(2);
  r.Insert({1, 2});
  Tuple copy(r.tuple(0));  // materialized before growth
  for (SymbolId i = 0; i < 1000; ++i) r.Insert({i + 10, i});
  EXPECT_EQ(Tuple(r.tuple(0)), copy);  // row 0 content is stable
  EXPECT_TRUE(r.Contains(copy));
}

TEST(RelationIndexTest, SelfInsertFromOwnArenaIsSafe) {
  // Inserting a TupleRef that views the relation's own arena must survive
  // the arena reallocation the insert may trigger.
  Relation r(2);
  for (SymbolId i = 0; i < 100; ++i) r.Insert({i, i + 1});
  size_t before = r.size();
  TupleRef row0 = r.tuple(0);
  EXPECT_FALSE(r.Insert(row0));  // duplicate of itself
  std::vector<Tuple> shifted;
  for (size_t i = 0; i < before; ++i) {
    TupleRef t = r.tuple(i);
    shifted.push_back(Tuple{t[1], t[0]});
  }
  for (const Tuple& t : shifted) r.Insert(t);
  EXPECT_GT(r.size(), before);
}

TEST(RelationIndexTest, ZeroArityRelationHoldsOneRow) {
  Relation r(0);
  EXPECT_TRUE(r.Insert(Tuple{}));
  EXPECT_FALSE(r.Insert(Tuple{}));
  EXPECT_EQ(r.size(), 1u);
  size_t count = 0;
  r.ForEachMatch(0, Tuple{}, [&](TupleRef) { ++count; });
  EXPECT_EQ(count, 1u);
}

class EnumerateTest : public ::testing::Test {
 protected:
  RelationResolver Resolver() {
    return [this](SymbolId pred) { return db_.FindById(pred); };
  }

  std::vector<Literal> Body(const std::string& rule_text) {
    auto p = ParseProgram(rule_text, db_.symbols());
    return p.value().rules[0].body;
  }

  Database db_;
};

TEST_F(EnumerateTest, RepeatedVariableWithinLiteralFiltersMatches) {
  db_.AddFact("e", {"a", "a"});
  db_.AddFact("e", {"a", "b"});
  db_.AddFact("e", {"b", "b"});
  std::vector<Literal> body = Body("h(X) :- e(X, X).");
  Binding binding;
  std::set<std::string> xs;
  Status s = EnumerateMatches(Resolver(), db_.symbols(), body, binding,
                              [&](const Binding& b) {
                                xs.insert(db_.symbols().Name(
                                    b.at(*db_.symbols().Find("X"))));
                              });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(xs, (std::set<std::string>{"a", "b"}));
}

TEST_F(EnumerateTest, RepeatedVariableAcrossLiteralsJoins) {
  db_.AddFact("e", {"a", "b"});
  db_.AddFact("e", {"b", "c"});
  db_.AddFact("e", {"b", "d"});
  std::vector<Literal> body = Body("h(X, Z) :- e(X, Y), e(Y, Z).");
  Binding binding;
  size_t count = 0;
  Status s = EnumerateMatches(Resolver(), db_.symbols(), body, binding,
                              [&](const Binding&) { ++count; });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(count, 2u);  // a->b->c and a->b->d
}

TEST(RelationIndexTest, WideMaskScanCounterOnFrozenFallback) {
  // Arity above kEagerFreezeArity: Freeze() only catches up indexes that
  // already exist, so a mask first probed after the freeze takes the
  // read-only scan path — and must say so in the thread-local counter.
  Relation r(5);
  for (SymbolId i = 0; i < 20; ++i) {
    r.Insert(Tuple{i, i + 1, i + 2, i % 3, i % 2});
  }
  // Probe column 0 before the freeze: its index exists and survives.
  EXPECT_EQ(Matches(r, 0b00001, Tuple{3, 0, 0, 0, 0}).size(), 1u);
  r.Freeze();

  uint64_t before = Relation::ThreadWideScanCount();
  // Indexed mask: served by the frozen index, no fallback scan.
  EXPECT_EQ(Matches(r, 0b00001, Tuple{4, 0, 0, 0, 0}).size(), 1u);
  EXPECT_EQ(Relation::ThreadWideScanCount(), before);
  // Never-indexed mask: correct answers via the scan path, counted once.
  auto got = Matches(r, 0b01000, Tuple{0, 0, 0, 1, 0});
  EXPECT_EQ(got.size(), 7u);  // i % 3 == 1 for 20 rows
  EXPECT_EQ(Relation::ThreadWideScanCount(), before + 1);
  // Full scans (mask 0) are not "wide scans".
  EXPECT_EQ(Matches(r, 0, Tuple{0, 0, 0, 0, 0}).size(), 20u);
  EXPECT_EQ(Relation::ThreadWideScanCount(), before + 1);
}

TEST(RelationIndexTest, FlattenedWideRelationKeepsChainMasks) {
  // Flatten() must carry the chain's mask knowledge forward: a wide
  // relation (arity > kEagerFreezeArity) whose mask was indexed anywhere in
  // the chain must not degrade to wide fallback scans after it is
  // flattened and re-frozen. (The chained path is covered above; this
  // pins the flatten path, which used to drop all indexes.)
  auto base = std::make_shared<Relation>(5);
  for (SymbolId i = 0; i < 12; ++i) {
    base->Insert(Tuple{i, i + 1, i + 2, i % 3, i % 2});
  }
  // Index column 0 on the base before it freezes.
  EXPECT_EQ(Matches(*base, 0b00001, Tuple{3, 0, 0, 0, 0}).size(), 1u);
  base->Freeze();
  auto delta = Relation::Extend(base);
  delta->Insert(Tuple{100, 1, 2, 0, 0});
  // Index column 1 on the delta layer only.
  EXPECT_EQ(Matches(*delta, 0b00010, Tuple{0, 1, 0, 0, 0}).size(), 2u);

  auto flat = delta->Flatten();
  flat->Freeze();
  ASSERT_EQ(flat->size(), 13u);
  uint64_t before = Relation::ThreadWideScanCount();
  // Masks indexed by any chain layer are served by rebuilt indexes.
  EXPECT_EQ(Matches(*flat, 0b00001, Tuple{3, 0, 0, 0, 0}).size(), 1u);
  EXPECT_EQ(Matches(*flat, 0b00001, Tuple{100, 0, 0, 0, 0}).size(), 1u);
  EXPECT_EQ(Matches(*flat, 0b00010, Tuple{0, 1, 0, 0, 0}).size(), 2u);
  EXPECT_EQ(Relation::ThreadWideScanCount(), before);
  // A mask no layer ever indexed still takes (and counts) the scan path.
  EXPECT_EQ(Matches(*flat, 0b01000, Tuple{0, 0, 0, 1, 0}).size(), 4u);
  EXPECT_EQ(Relation::ThreadWideScanCount(), before + 1);
}

TEST(RelationIndexTest, SmallArityNeverWideScans) {
  Relation r(2);
  r.Insert({1, 10});
  r.Insert({2, 20});
  r.Freeze();  // arity <= kEagerFreezeArity: every mask pre-built
  uint64_t before = Relation::ThreadWideScanCount();
  for (uint32_t mask = 1; mask < 4; ++mask) {
    Matches(r, mask, Tuple{2, 20});
  }
  EXPECT_EQ(Relation::ThreadWideScanCount(), before);
}

TEST(RelationIndexTest, FreezeCatchesUpIndexesBuiltBeforeIt) {
  Relation r(2);
  for (SymbolId i = 0; i < 8; ++i) r.Insert(Tuple{i, i * 10});
  // The probe builds the column-0 index over the first 8 rows.
  EXPECT_EQ(Matches(r, 0b01, Tuple{5, 0}).size(), 1u);

  EXPECT_TRUE(r.Insert(Tuple{100, 1000}));
  EXPECT_FALSE(r.Insert(Tuple{5, 50}));  // still deduplicated
  r.Freeze();

  // The existing index absorbed the appended row; point lookups see it.
  EXPECT_EQ(Matches(r, 0b01, Tuple{100, 0}).size(), 1u);
  EXPECT_EQ(Matches(r, 0b10, Tuple{0, 1000}).size(), 1u);
  EXPECT_EQ(Matches(r, 0b11, Tuple{100, 1000}).size(), 1u);
  EXPECT_EQ(r.size(), 9u);
}

TEST(RelationIndexTest, ExtendLayersAnswerLikeOneRelation) {
  auto base = std::make_shared<Relation>(2);
  for (SymbolId i = 0; i < 6; ++i) base->Insert(Tuple{i, i + 100});
  base->Freeze();

  auto delta = Relation::Extend(base);
  EXPECT_EQ(delta->base(), base);
  EXPECT_EQ(delta->size(), 6u);
  EXPECT_FALSE(delta->Insert(Tuple{2, 102}));  // dedup sees through layers
  EXPECT_TRUE(delta->Insert(Tuple{50, 150}));
  EXPECT_TRUE(delta->Contains(Tuple{2, 102}));
  EXPECT_TRUE(delta->Contains(Tuple{50, 150}));
  delta->Freeze();

  EXPECT_EQ(delta->size(), 7u);
  EXPECT_EQ(delta->local_size(), 1u);
  // Probes merge base matches (first) with local matches.
  EXPECT_EQ(Matches(*delta, 0b01, Tuple{2, 0}).size(), 1u);
  EXPECT_EQ(Matches(*delta, 0b01, Tuple{50, 0}).size(), 1u);
  // Global row ids cover the chain in insertion order.
  EXPECT_EQ(delta->tuple(0), TupleRef(Tuple{0, 100}));
  EXPECT_EQ(delta->tuple(6), TupleRef(Tuple{50, 150}));
  // Segmented iteration covers every layer.
  size_t rows = 0;
  for (TupleRef t : delta->tuples()) {
    (void)t;
    ++rows;
  }
  EXPECT_EQ(rows, 7u);
  // The base is untouched.
  EXPECT_EQ(base->size(), 6u);
  EXPECT_FALSE(base->Contains(Tuple{50, 150}));

  // Flatten preserves contents and global row order.
  auto flat = delta->Flatten();
  EXPECT_EQ(flat->size(), 7u);
  EXPECT_EQ(flat->chain_depth(), 0u);
  for (size_t i = 0; i < flat->size(); ++i) {
    EXPECT_EQ(Tuple(flat->tuple(i)), Tuple(delta->tuple(i))) << i;
  }
}

TEST(RelationIndexTest, DeleteThenReinsertRoundTrips) {
  Relation r(2);
  EXPECT_TRUE(r.Insert(Tuple{1, 10}));
  EXPECT_TRUE(r.Insert(Tuple{2, 20}));
  const uint64_t muts0 = r.dead_mutations();

  EXPECT_TRUE(r.Delete(Tuple{1, 10}));
  EXPECT_FALSE(r.Contains(Tuple{1, 10}));
  EXPECT_TRUE(r.Contains(Tuple{2, 20}));
  EXPECT_EQ(r.size(), 2u);  // physical: the tombstoned row is still stored
  EXPECT_EQ(r.live_size(), 1u);
  EXPECT_EQ(r.dead_count(), 1u);
  EXPECT_EQ(r.dead_mutations(), muts0 + 1);

  // Deleting an absent or already-dead fact is a detectable no-op.
  EXPECT_FALSE(r.Delete(Tuple{1, 10}));
  EXPECT_FALSE(r.Delete(Tuple{9, 90}));
  EXPECT_EQ(r.dead_mutations(), muts0 + 1);

  // Reinsert resurrects the stored row: no duplicate, same row id, and
  // every read path sees it again.
  EXPECT_TRUE(r.Insert(Tuple{1, 10}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.live_size(), 2u);
  EXPECT_EQ(r.dead_count(), 0u);
  EXPECT_TRUE(r.Contains(Tuple{1, 10}));
  EXPECT_EQ(Matches(r, 0b01, {1, 0}).size(), 1u);
  // The resurrection is a dead-set edit too: equal cardinality must never
  // masquerade as an unchanged set.
  EXPECT_EQ(r.dead_mutations(), muts0 + 2);
  // A second insert of the live fact is an ordinary duplicate.
  EXPECT_FALSE(r.Insert(Tuple{1, 10}));
}

TEST(RelationIndexTest, TombstonesFilterEveryReadPathAcrossChain) {
  // Mixed base + delta + tombstone chain: deletes land in the top layer's
  // cumulative dead set and must filter Contains, indexed probes, full
  // scans, and RowRange iteration — for base rows and local rows alike.
  auto base = std::make_shared<Relation>(2);
  for (SymbolId i = 0; i < 4; ++i) base->Insert(Tuple{i, i + 100});
  base->Freeze();

  auto delta = Relation::Extend(base);
  EXPECT_TRUE(delta->Insert(Tuple{50, 150}));
  EXPECT_TRUE(delta->Insert(Tuple{51, 151}));
  EXPECT_TRUE(delta->Delete(Tuple{1, 101}));   // base row
  EXPECT_TRUE(delta->Delete(Tuple{51, 151}));  // local row
  delta->Freeze();

  EXPECT_EQ(delta->size(), 6u);
  EXPECT_EQ(delta->live_size(), 4u);
  EXPECT_EQ(delta->dead_count(), 2u);
  EXPECT_FALSE(delta->Contains(Tuple{1, 101}));
  EXPECT_FALSE(delta->Contains(Tuple{51, 151}));
  EXPECT_TRUE(delta->Contains(Tuple{0, 100}));
  EXPECT_TRUE(delta->Contains(Tuple{50, 150}));

  // Indexed probe and full scan both skip dead rows.
  EXPECT_TRUE(Matches(*delta, 0b01, {1, 0}).empty());
  EXPECT_TRUE(Matches(*delta, 0b01, {51, 0}).empty());
  EXPECT_EQ(Matches(*delta, 0b01, {50, 0}).size(), 1u);
  std::set<Tuple> scanned;
  for (const Tuple& t : Matches(*delta, 0, {0, 0})) scanned.insert(t);
  std::set<Tuple> expected = {{0, 100}, {2, 102}, {3, 103}, {50, 150}};
  EXPECT_EQ(scanned, expected);

  // RowRange iteration filters at emission and sizes by live rows.
  EXPECT_EQ(delta->tuples().size(), 4u);
  std::set<Tuple> ranged;
  for (TupleRef t : delta->tuples()) ranged.insert(Tuple(t));
  EXPECT_EQ(ranged, expected);

  // RowDead exposes the raw row state the memo builders filter by.
  EXPECT_TRUE(delta->RowDead(1));
  EXPECT_TRUE(delta->RowDead(5));
  EXPECT_FALSE(delta->RowDead(0));
  EXPECT_FALSE(delta->RowDead(4));

  // The frozen base never sees the delta's tombstones.
  EXPECT_TRUE(base->Contains(Tuple{1, 101}));
  EXPECT_EQ(base->dead_count(), 0u);
}

TEST(RelationIndexTest, FlattenCompactionDropsDeadRows) {
  auto base = std::make_shared<Relation>(2);
  for (SymbolId i = 0; i < 5; ++i) base->Insert(Tuple{i, i + 100});
  base->Freeze();

  auto delta = Relation::Extend(base);
  EXPECT_TRUE(delta->Insert(Tuple{60, 160}));
  EXPECT_TRUE(delta->Delete(Tuple{0, 100}));
  EXPECT_TRUE(delta->Delete(Tuple{3, 103}));
  delta->Freeze();
  ASSERT_EQ(delta->live_size(), 4u);

  auto flat = delta->Flatten();
  // Dead rows are physically gone: the compacted relation is standalone,
  // its physical size IS the live size, and the dead set is empty.
  EXPECT_EQ(flat->chain_depth(), 0u);
  EXPECT_EQ(flat->size(), 4u);
  EXPECT_EQ(flat->live_size(), 4u);
  EXPECT_EQ(flat->dead_count(), 0u);
  std::set<Tuple> flat_rows;
  for (TupleRef t : flat->tuples()) flat_rows.insert(Tuple(t));
  std::set<Tuple> expected = {{1, 101}, {2, 102}, {4, 104}, {60, 160}};
  EXPECT_EQ(flat_rows, expected);
  EXPECT_FALSE(flat->Contains(Tuple{0, 100}));
  EXPECT_FALSE(flat->Contains(Tuple{3, 103}));
  // A dropped row's fact can be re-added as a brand-new row.
  flat->Freeze();
  auto next = Relation::Extend(flat);
  EXPECT_TRUE(next->Insert(Tuple{0, 100}));
  EXPECT_EQ(next->live_size(), 5u);
}

TEST(RelationIndexTest, DeadMutationsSeesThroughResurrectDeletePairs) {
  // A resurrect + delete pair keeps dead_count() constant while changing
  // the dead set's membership; dead_mutations() is the monotone counter
  // that tells the two apart (the guard behind memo chain-extension and
  // empty-delta pruning).
  auto base = std::make_shared<Relation>(2);
  base->Insert(Tuple{1, 10});
  base->Insert(Tuple{2, 20});
  base->Freeze();

  auto mid = Relation::Extend(base);
  EXPECT_TRUE(mid->Delete(Tuple{1, 10}));
  mid->Freeze();
  ASSERT_EQ(mid->dead_count(), 1u);

  auto top = Relation::Extend(mid);
  EXPECT_TRUE(top->Insert(Tuple{1, 10}));  // resurrect row 0
  EXPECT_TRUE(top->Delete(Tuple{2, 20}));  // kill row 1
  top->Freeze();

  EXPECT_EQ(top->dead_count(), mid->dead_count());  // cardinality agrees...
  EXPECT_NE(top->dead_mutations(), mid->dead_mutations());  // ...the set moved
  EXPECT_TRUE(mid->RowDead(0));
  EXPECT_FALSE(top->RowDead(0));
  EXPECT_TRUE(top->RowDead(1));
  // An untouched extension inherits the counter exactly.
  auto quiet = Relation::Extend(top);
  EXPECT_EQ(quiet->dead_mutations(), top->dead_mutations());
}

TEST(ChainCompactionTest, PlansTiersDepthCapAndDoubling) {
  const size_t kDepth = Relation::kMaxChainDepth;
  const size_t kMin = Relation::kFlattenMinRows;
  // A root-only chain or a single delta layer: nothing to merge (never
  // into the root).
  EXPECT_EQ(PlanChainCompaction({}, 1000, 0, kDepth, kMin).merge, 0u);
  EXPECT_EQ(PlanChainCompaction({8}, 1000, 0, kDepth, kMin).merge, 0u);
  // The upper layer holds at least half the lower one: merge, and keep
  // merging down while the group does.
  EXPECT_EQ(PlanChainCompaction({8, 4}, 1000, 0, kDepth, kMin).merge, 2u);
  EXPECT_EQ(PlanChainCompaction({32, 8, 8}, 1000, 0, kDepth, kMin).merge,
            3u);
  EXPECT_EQ(PlanChainCompaction({64, 8, 8}, 1000, 0, kDepth, kMin).merge,
            2u);
  // Geometrically shrinking layers stay put...
  EXPECT_EQ(PlanChainCompaction({64, 16, 4}, 1000, 0, kDepth, kMin).merge,
            0u);
  // ...until the new layer would sit past the depth cap.
  std::vector<size_t> deep = {4096, 1024, 256, 64, 16, 4, 1};
  EXPECT_EQ(PlanChainCompaction(deep, 1 << 20, 0, kDepth, kMin).merge, 0u);
  deep.push_back(0);
  ChainCompaction capped = PlanChainCompaction(deep, 1 << 20, 0, kDepth, kMin);
  EXPECT_FALSE(capped.flatten);
  EXPECT_EQ(deep.size() - capped.merge + 2, kDepth);
  // The doubling rule, tombstones included, is the only root rewrite.
  EXPECT_TRUE(PlanChainCompaction({600, 400}, 1000, 0, kDepth, kMin).flatten);
  EXPECT_TRUE(PlanChainCompaction({100}, 1000, 900, kDepth, kMin).flatten);
  EXPECT_TRUE(PlanChainCompaction({kMin}, 10, 0, kDepth, kMin).flatten);
  EXPECT_FALSE(PlanChainCompaction({kMin - 1}, 10, 0, kDepth, kMin).flatten);
}

TEST(RelationIndexTest, ExtendMergesTopLayersKeepingRowIdsAndTombstones) {
  auto base = std::make_shared<Relation>(5);
  for (SymbolId i = 0; i < 10; ++i) base->Insert(Tuple{i, 0, 0, 0, i % 2});
  // Index a wide mask on the root before it freezes.
  EXPECT_EQ(Matches(*base, 0b10000, Tuple{0, 0, 0, 0, 1}).size(), 5u);
  base->Freeze();
  auto mid = Relation::Extend(base);
  mid->Insert(Tuple{20, 1, 1, 1, 1});
  mid->Insert(Tuple{21, 1, 1, 1, 0});
  EXPECT_TRUE(mid->Delete(Tuple{3, 0, 0, 0, 1}));  // a root row
  mid->Freeze();
  auto top = Relation::Extend(mid);
  ASSERT_EQ(top->base(), mid);  // one delta layer: nothing to merge
  top->Insert(Tuple{22, 2, 2, 2, 1});
  EXPECT_TRUE(top->Delete(Tuple{20, 1, 1, 1, 1}));  // a mid row
  top->Freeze();

  // top holds half of mid's rows: the next layer goes on one merged layer
  // chained to the root, which the merge never rewrites.
  auto next = Relation::Extend(top);
  const std::shared_ptr<const Relation>& merged = next->base();
  ASSERT_NE(merged, top);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->base(), base);
  EXPECT_EQ(merged->local_size(), 3u);
  EXPECT_EQ(next->chain_depth(), 2u);
  // Global row ids, tombstones and their mutation count carry over.
  ASSERT_EQ(merged->size(), top->size());
  for (size_t i = 0; i < top->size(); ++i) {
    EXPECT_EQ(Tuple(merged->tuple(i)), Tuple(top->tuple(i))) << i;
    EXPECT_EQ(merged->RowDead(i), top->RowDead(i)) << i;
  }
  EXPECT_EQ(merged->dead_mutations(), top->dead_mutations());
  EXPECT_EQ(next->dead_mutations(), top->dead_mutations());
  EXPECT_FALSE(next->Contains(Tuple{20, 1, 1, 1, 1}));
  // Dedup and resurrection see through the merged layer.
  EXPECT_FALSE(next->Insert(Tuple{21, 1, 1, 1, 0}));
  EXPECT_TRUE(next->Insert(Tuple{20, 1, 1, 1, 1}));
  EXPECT_EQ(next->size(), top->size());
  // The merged layer serves the root's wide mask from its own index.
  uint64_t before = Relation::ThreadWideScanCount();
  EXPECT_EQ(Matches(*merged, 0b10000, Tuple{0, 0, 0, 0, 1}).size(), 5u);
  EXPECT_EQ(Relation::ThreadWideScanCount(), before);
  // The merged-away layers still serve their own epochs.
  EXPECT_TRUE(top->Contains(Tuple{21, 1, 1, 1, 0}));
  EXPECT_EQ(top->base(), mid);
}

TEST_F(EnumerateTest, RepeatedVariableAgainstPartialBinding) {
  // With X pre-bound, e(X, X) must only match the diagonal tuple for that
  // binding (exercises the masked probe with a repeated variable).
  db_.AddFact("e", {"a", "a"});
  db_.AddFact("e", {"a", "b"});
  std::vector<Literal> body = Body("h(X) :- e(X, X).");
  Binding binding;
  binding.emplace(*db_.symbols().Find("X"), *db_.symbols().Find("a"));
  size_t count = 0;
  Status s = EnumerateMatches(Resolver(), db_.symbols(), body, binding,
                              [&](const Binding&) { ++count; });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace binchain
