#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
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

// TakeRows hands the rows over in insertion order and leaves the
// relation empty, as Clear does: no membership, no index, a new clear
// generation, and it takes rows again afterwards.
TEST(Relation, TakeRowsEmptiesLikeClear) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"z", "z"}));
  r.Insert(T(&s, {"a", "b"}));
  r.IndexOn({0});
  const uint64_t generation = r.clear_generation();
  const uint64_t version = r.version();
  std::vector<Tuple> rows = r.TakeRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(TupleToString(rows[0], s), "(z, z)");
  EXPECT_EQ(TupleToString(rows[1], s), "(a, b)");
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.Contains(T(&s, {"a", "b"})));
  EXPECT_TRUE(r.indexes().empty());
  EXPECT_EQ(r.clear_generation(), generation + 1);
  EXPECT_GT(r.version(), version);
  EXPECT_TRUE(r.Insert(T(&s, {"a", "b"})));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.TakeRows().size(), 1u);
  EXPECT_TRUE(r.TakeRows().empty());
}

// --------------------------------------------------------------------
// The membership table against an oracle: std::set for membership and
// size, and a vector with linear-search swap-and-pop for row order.

/// A relation and the oracle it must agree with.
struct Checked {
  static RelationType Type() { return TypeFromString("01"); }

  Relation rel{Type()};
  std::set<Tuple> members;
  std::vector<Tuple> order;

  testing::AssertionResult Insert(const Tuple& t) {
    const bool added = members.insert(t).second;
    if (rel.Insert(t) != added) {
      return testing::AssertionFailure() << "Insert disagrees";
    }
    if (added) order.push_back(t);
    return After(t);
  }

  testing::AssertionResult Erase(const Tuple& t) {
    const bool had = members.erase(t) > 0;
    if (rel.Erase(t) != had) {
      return testing::AssertionFailure() << "Erase disagrees";
    }
    if (had) {
      auto it = std::find(order.begin(), order.end(), t);
      const size_t at = static_cast<size_t>(it - order.begin());
      if (at + 1 != order.size()) *it = std::move(order.back());
      order.pop_back();
      if (at < order.size() && rel.tuples()[at] != order[at]) {
        return testing::AssertionFailure() << "Erase moved the wrong row";
      }
    }
    return After(t);
  }

  void Clear() {
    rel.Clear();
    members.clear();
    order.clear();
  }

  /// Membership of `t`, the size and the last row, after any operation.
  testing::AssertionResult After(const Tuple& t) const {
    if (rel.Contains(t) != (members.count(t) > 0)) {
      return testing::AssertionFailure() << "Contains disagrees";
    }
    if (rel.size() != members.size() || rel.tuples().size() != order.size()) {
      return testing::AssertionFailure()
             << "size " << rel.size() << ", oracle " << members.size();
    }
    if (!order.empty() && rel.tuples().back() != order.back()) {
      return testing::AssertionFailure() << "last row differs";
    }
    return testing::AssertionSuccess();
  }

  /// Every row in order, and membership over the whole key domain.
  testing::AssertionResult Full(const std::vector<Tuple>& domain) const {
    if (rel.tuples() != order) {
      return testing::AssertionFailure() << "row order differs";
    }
    for (const Tuple& t : domain) {
      testing::AssertionResult r = After(t);
      if (!r) return r;
    }
    return testing::AssertionSuccess();
  }
};

/// Keys over a u column and an i column, so both sorts hash.
std::vector<Tuple> KeyDomain(int n) {
  std::vector<Tuple> keys;
  for (int k = 0; k < n; ++k) {
    keys.push_back({Value::Symbol(static_cast<SymbolId>(k % 53)),
                    Value::Number(k / 53)});
  }
  return keys;
}

class MembershipOracle : public testing::TestWithParam<uint64_t> {};

// A 120K-operation random sequence per seed: inserts, erases and
// lookups over an 8,000-key domain, with rare clears, copies, copy
// assignments and moves. Inserts outweigh erases until about 70% of the
// domain is live, so erases mostly hit and the table (8 slots when
// first used, at most half full) grows through at least 10 doublings.
TEST_P(MembershipOracle, RandomSequenceMatchesTheOracle) {
  const std::vector<Tuple> domain = KeyDomain(8000);
  std::mt19937_64 rng(GetParam());
  Checked c;
  size_t peak = 0;
  for (int op = 0; op < 120000; ++op) {
    const Tuple& t = domain[rng() % domain.size()];
    const uint64_t r = rng() % 100000;
    if (r < 55000) {
      ASSERT_TRUE(c.Insert(t)) << "op " << op;
    } else if (r < 80000) {
      ASSERT_TRUE(c.Erase(t)) << "op " << op;
    } else if (r < 99900) {
      ASSERT_TRUE(c.After(t)) << "op " << op;
    } else if (r < 99904) {
      c.Clear();
      ASSERT_TRUE(c.Full(domain)) << "after Clear, op " << op;
    } else if (r < 99936) {
      // Copy-construct, then carry on with the copy's table.
      Relation copy(c.rel);
      c.rel = std::move(copy);
      ASSERT_TRUE(c.Full(domain)) << "after a copy, op " << op;
    } else if (r < 99968) {
      // Copy-assign over a relation that holds other rows.
      Relation target(Checked::Type());
      for (int k = 0; k < 40; ++k) target.Insert(domain[rng() % 100]);
      target = c.rel;
      c.rel = std::move(target);
      ASSERT_TRUE(c.Full(domain)) << "after copy assignment, op " << op;
    } else {
      // Move out, then reuse the moved-from relation by assigning to it.
      Relation moved(std::move(c.rel));
      EXPECT_EQ(c.rel.size(), 0u);
      EXPECT_FALSE(c.rel.Contains(t));
      c.rel = std::move(moved);
      ASSERT_TRUE(c.Full(domain)) << "after a move, op " << op;
    }
    peak = std::max(peak, c.rel.size());
    if (op % 4000 == 0) {
      ASSERT_TRUE(c.Full(domain)) << "op " << op;
    }
  }
  ASSERT_TRUE(c.Full(domain));
  // 8 slots doubled 10 times hold 4,096 rows at most.
  EXPECT_GT(peak, 4096u) << "the table grew through fewer than 10 doublings";
}

// Erase every row in random order down to empty (each step checked),
// then reinsert: the backward shifts leave no stale slot behind.
TEST_P(MembershipOracle, DrainToEmptyThenReinsert) {
  const std::vector<Tuple> domain = KeyDomain(6000);
  std::mt19937_64 rng(GetParam());
  Checked c;
  for (int round = 0; round < 3; ++round) {
    for (const Tuple& t : domain) {
      if (rng() % 4 != 0) {
        ASSERT_TRUE(c.Insert(t));
      }
    }
    ASSERT_TRUE(c.Full(domain)) << "round " << round;
    std::vector<Tuple> drain = c.order;
    std::shuffle(drain.begin(), drain.end(), rng);
    for (const Tuple& t : drain) ASSERT_TRUE(c.Erase(t));
    ASSERT_TRUE(c.rel.empty());
    ASSERT_TRUE(c.Full(domain)) << "drained, round " << round;
  }
}

// A copy owns its table: it and its source diverge under independent
// operation streams, each still matching its own oracle.
TEST_P(MembershipOracle, CopyDivergesFromItsSource) {
  const std::vector<Tuple> domain = KeyDomain(3000);
  std::mt19937_64 rng(GetParam());
  Checked source;
  for (int op = 0; op < 4000; ++op) {
    ASSERT_TRUE(source.Insert(domain[rng() % domain.size()]));
  }
  Checked copy = source;
  ASSERT_TRUE(copy.Full(domain));
  for (int op = 0; op < 20000; ++op) {
    Checked& c = op % 2 == 0 ? source : copy;
    const Tuple& t = domain[rng() % domain.size()];
    if (rng() % 2 == 0) {
      ASSERT_TRUE(c.Insert(t)) << "op " << op;
    } else {
      ASSERT_TRUE(c.Erase(t)) << "op " << op;
    }
  }
  ASSERT_TRUE(source.Full(domain));
  ASSERT_TRUE(copy.Full(domain));
  EXPECT_NE(source.order, copy.order);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipOracle,
                         testing::Values(1u, 2u, 3u));

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
