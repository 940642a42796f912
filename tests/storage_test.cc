#include <gtest/gtest.h>

#include <vector>

#include "storage/database.h"
#include "storage/relation.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

RelationType UU() { return TypeFromString("00"); }

TEST(Relation, InsertDeduplicates) {
  SymbolTable s;
  Relation r(UU());
  EXPECT_TRUE(r.Insert(T(&s, {"a", "b"})));
  EXPECT_FALSE(r.Insert(T(&s, {"a", "b"})));
  EXPECT_TRUE(r.Insert(T(&s, {"a", "c"})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T(&s, {"a", "b"})));
  EXPECT_FALSE(r.Contains(T(&s, {"b", "a"})));
}

TEST(Relation, InsertRejectsWrongArity) {
  SymbolTable s;
  Relation r(UU());
  EXPECT_FALSE(r.Insert(T(&s, {"a"})));
  EXPECT_EQ(r.size(), 0u);
}

TEST(Relation, InsertCheckedValidatesSorts) {
  SymbolTable s;
  Relation r(TypeFromString("01"));
  EXPECT_TRUE(r.InsertChecked(T(&s, {"a", "1"})).ok());
  Status st = r.InsertChecked(T(&s, {"a", "b"}));
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
  st = r.InsertChecked(T(&s, {"a"}));
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST(Relation, InsertionOrderPreserved) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"z", "z"}));
  r.Insert(T(&s, {"a", "a"}));
  EXPECT_EQ(TupleToString(r.tuples()[0], s), "(z, z)");
  EXPECT_EQ(TupleToString(r.tuples()[1], s), "(a, a)");
  // SortedTuples canonicalizes by value order — interning order for
  // sort-u, so "z" (interned first) precedes "a" here.
  auto sorted = r.SortedTuples();
  EXPECT_EQ(TupleToString(sorted[0], s), "(z, z)");
  EXPECT_EQ(TupleToString(sorted[1], s), "(a, a)");
}

TEST(Relation, SetEqualsIgnoresOrder) {
  SymbolTable s;
  Relation a(UU());
  Relation b(UU());
  a.Insert(T(&s, {"x", "y"}));
  a.Insert(T(&s, {"u", "v"}));
  b.Insert(T(&s, {"u", "v"}));
  b.Insert(T(&s, {"x", "y"}));
  EXPECT_TRUE(a.SetEquals(b));
  b.Insert(T(&s, {"q", "q"}));
  EXPECT_FALSE(a.SetEquals(b));
}

TEST(Relation, VersionAdvancesOnChange) {
  SymbolTable s;
  Relation r(UU());
  uint64_t v0 = r.version();
  r.Insert(T(&s, {"a", "b"}));
  EXPECT_GT(r.version(), v0);
  uint64_t v1 = r.version();
  r.Insert(T(&s, {"a", "b"}));  // duplicate: no change
  EXPECT_EQ(r.version(), v1);
  r.Clear();
  EXPECT_GT(r.version(), v1);
  EXPECT_EQ(r.size(), 0u);
}

// --------------------------------------------------------------------
// Indexes owned by relations.

TEST(RelationIndex, LookupByColumnSubset) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  r.Insert(T(&s, {"a", "y"}));
  r.Insert(T(&s, {"b", "x"}));
  const ColumnIndex& index = r.IndexOn({0});
  const auto* rows = index.Lookup(T(&s, {"a"}));
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(*rows, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(index.Lookup(T(&s, {"zzz"})), nullptr);
}

TEST(RelationIndex, ReusesOneIndexPerColumnSet) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  bool built = false;
  const ColumnIndex& i1 = r.IndexOn({0}, &built);
  EXPECT_TRUE(built);
  const ColumnIndex& i2 = r.IndexOn({0}, &built);
  EXPECT_FALSE(built);  // current: nothing to do
  EXPECT_EQ(&i1, &i2);
  const ColumnIndex& on_both = r.IndexOn({0, 1});
  ASSERT_NE(on_both.Lookup(T(&s, {"a", "x"})), nullptr);
  EXPECT_EQ(r.indexes().size(), 2u);
}

TEST(RelationIndex, ExtendsWithAppendedRows) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  const ColumnIndex& before = r.IndexOn({0});
  r.Insert(T(&s, {"a", "y"}));
  r.Insert(T(&s, {"b", "y"}));
  bool built = false;
  const ColumnIndex& after = r.IndexOn({0}, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(&before, &after);  // extended in place, not rebuilt
  EXPECT_EQ(after.num_entries(), 3u);
  EXPECT_EQ(*after.Lookup(T(&s, {"a"})), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(*after.Lookup(T(&s, {"b"})), (std::vector<size_t>{2}));
}

// A delta's index covers only the rows from its first row on, and its
// postings are row ids of the whole relation.
TEST(RelationIndex, IndexFromFirstRowPostsRelationRowIds) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  r.Insert(T(&s, {"b", "x"}));
  r.Insert(T(&s, {"a", "y"}));
  ColumnIndex tail({0}, 1);
  tail.Extend(r.tuples());
  EXPECT_EQ(tail.num_entries(), 2u);
  EXPECT_EQ(*tail.Lookup(T(&s, {"a"})), (std::vector<size_t>{2}));
  EXPECT_EQ(*tail.Lookup(T(&s, {"b"})), (std::vector<size_t>{1}));
  r.Insert(T(&s, {"a", "z"}));
  tail.Extend(r.tuples());
  EXPECT_EQ(tail.num_entries(), 3u);
  EXPECT_EQ(*tail.Lookup(T(&s, {"a"})), (std::vector<size_t>{2, 3}));
}

// Regression: Clear() followed by re-inserts that grow the relation
// back to (at least) its old row count once let an index keep its
// pre-Clear buckets, so joins read rows that no longer exist. Clear()
// drops every index, so the next lookup indexes only the new rows.
TEST(RelationIndex, ClearThenRegrowthToTheSameSizeSeesOnlyNewRows) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  r.Insert(T(&s, {"b", "y"}));
  ASSERT_NE(r.IndexOn({0}).Lookup(T(&s, {"a"})), nullptr);

  r.Clear();
  EXPECT_TRUE(r.indexes().empty());
  r.Insert(T(&s, {"c", "x"}));
  r.Insert(T(&s, {"d", "y"}));  // same row count as before the Clear
  bool built = false;
  const ColumnIndex& index = r.IndexOn({0}, &built);
  EXPECT_TRUE(built);

  EXPECT_EQ(index.Lookup(T(&s, {"a"})), nullptr);
  const auto* rows = index.Lookup(T(&s, {"c"}));
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(*rows, (std::vector<size_t>{0}));  // positions restart
}

TEST(RelationIndex, ClearThenRegrowthBeyondTheOldSizeSeesOnlyNewRows) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  r.IndexOn({0});
  r.Clear();
  r.Insert(T(&s, {"b", "x"}));
  r.Insert(T(&s, {"a", "y"}));  // "a" reappears, at a different row
  const auto* rows = r.IndexOn({0}).Lookup(T(&s, {"a"}));
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(*rows, (std::vector<size_t>{1}));
}

// Erase moves the last row into the freed slot, so positions change:
// the relation drops its indexes and the next lookup finds the moved
// row at its new position.
TEST(RelationIndex, EraseFindsTheMovedRowAtItsNewPosition) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  r.Insert(T(&s, {"b", "y"}));
  r.Insert(T(&s, {"c", "z"}));
  ASSERT_EQ(*r.IndexOn({0}).Lookup(T(&s, {"c"})), (std::vector<size_t>{2}));

  ASSERT_TRUE(r.Erase(T(&s, {"a", "x"})));
  EXPECT_EQ(r.tuples()[0], T(&s, {"c", "z"}));  // last row moved to 0
  EXPECT_TRUE(r.indexes().empty());
  bool built = false;
  const ColumnIndex& index = r.IndexOn({0}, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(index.Lookup(T(&s, {"a"})), nullptr);
  EXPECT_EQ(*index.Lookup(T(&s, {"c"})), (std::vector<size_t>{0}));
  EXPECT_EQ(*index.Lookup(T(&s, {"b"})), (std::vector<size_t>{1}));

  // Erasing the last row moves nothing; the lookup still drops it.
  ASSERT_TRUE(r.Erase(T(&s, {"b", "y"})));
  EXPECT_EQ(r.IndexOn({0}).Lookup(T(&s, {"b"})), nullptr);
  EXPECT_EQ(*r.IndexOn({0}).Lookup(T(&s, {"c"})), (std::vector<size_t>{0}));
}

// Assigning a whole relation replaces its rows; the target's indexes
// are dropped, so lookups see the new rows only. A copy starts without
// indexes and leaves the source's alone.
TEST(RelationIndex, AssignmentDropsTheTargetsIndexes) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  r.IndexOn({0});
  Relation other(UU());
  other.Insert(T(&s, {"b", "y"}));
  other.Insert(T(&s, {"a", "z"}));
  other.IndexOn({1});

  r = other;
  EXPECT_TRUE(r.indexes().empty());
  EXPECT_EQ(other.indexes().size(), 1u);
  EXPECT_EQ(r.size(), 2u);
  bool built = false;
  const ColumnIndex& index = r.IndexOn({0}, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(*index.Lookup(T(&s, {"a"})), (std::vector<size_t>{1}));
  EXPECT_EQ(*index.Lookup(T(&s, {"b"})), (std::vector<size_t>{0}));

  Relation copy(r);
  EXPECT_TRUE(copy.indexes().empty());
  EXPECT_EQ(r.indexes().size(), 1u);
  EXPECT_TRUE(copy.SetEquals(r));
}

// A move carries the indexes along with the rows, which keep their
// positions: the moved-to relation's index is current without a
// rebuild, for move construction and move assignment alike.
TEST(RelationIndex, MoveKeepsAValidIndexWithoutARebuild) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  r.Insert(T(&s, {"a", "y"}));
  r.Insert(T(&s, {"b", "x"}));
  r.IndexOn({0});

  Relation moved(std::move(r));
  bool built = true;
  const ColumnIndex& index = moved.IndexOn({0}, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(*index.Lookup(T(&s, {"a"})), (std::vector<size_t>{0, 1}));

  Relation target(UU());
  target.Insert(T(&s, {"q", "q"}));
  target.IndexOn({1});
  target = std::move(moved);
  ASSERT_EQ(target.indexes().size(), 1u);  // the source's, not its own
  built = true;
  EXPECT_EQ(*target.IndexOn({0}, &built).Lookup(T(&s, {"b"})),
            (std::vector<size_t>{2}));
  EXPECT_FALSE(built);
}

TEST(Database, AddTupleInfersType) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddTuple("r", T(&s, {"a", "3"})).ok());
  auto rel = db.Get("r");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(TypeToString((*rel)->type()), "01");
}

TEST(Database, AddRowParsesNumbers) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("r", {"emp1", "42"}).ok());
  const Relation* rel = *db.Get("r");
  EXPECT_TRUE(rel->tuples()[0][0].is_symbol());
  EXPECT_TRUE(rel->tuples()[0][1].is_number());
  EXPECT_EQ(rel->tuples()[0][1].number(), 42);
}

TEST(Database, TypeMismatchRejected) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("r", {"a", "1"}).ok());
  Status st = db.AddRow("r", {"a", "b"});
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST(Database, UDomainTracksSymbols) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("r", {"a", "7"}).ok());
  ASSERT_TRUE(db.AddRow("q", {"b"}).ok());
  EXPECT_EQ(db.u_domain().size(), 2u);  // a and b; 7 is sort i
  db.AddDomainConstant(s.Intern("lonely"));
  EXPECT_EQ(db.u_domain().size(), 3u);
}

TEST(Database, GetMissingIsNotFound) {
  SymbolTable s;
  Database db(&s);
  EXPECT_EQ(db.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST(Database, CreateRelationConflict) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.CreateRelation("r", TypeFromString("00")).ok());
  EXPECT_TRUE(db.CreateRelation("r", TypeFromString("00")).ok());
  EXPECT_EQ(db.CreateRelation("r", TypeFromString("01")).code(),
            StatusCode::kTypeError);
}

}  // namespace
}  // namespace idlog
