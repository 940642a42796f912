#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"
#include "common/value.h"

namespace idlog {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(Status, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kParseError, StatusCode::kTypeError,
        StatusCode::kUnsafeProgram, StatusCode::kNotStratified,
        StatusCode::kUnsupported, StatusCode::kNotFound,
        StatusCode::kResourceExhausted, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MacroPropagation) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    IDLOG_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInternal);
}

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable t;
  SymbolId a = t.Intern("alpha");
  SymbolId b = t.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Intern("alpha"), a);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.NameOf(a), "alpha");
  EXPECT_EQ(t.NameOf(b), "beta");
}

TEST(SymbolTable, LookupMissing) {
  SymbolTable t;
  EXPECT_EQ(t.Lookup("ghost"), SymbolTable::kNoSymbol);
  t.Intern("ghost");
  EXPECT_NE(t.Lookup("ghost"), SymbolTable::kNoSymbol);
}

// The symbol table against a std::unordered_map oracle: after every
// call, the id Intern returns, Lookup of that spelling, NameOf of the
// id and size all agree with what the oracle holds.
struct CheckedSymbols {
  SymbolTable table;
  std::unordered_map<std::string, SymbolId> ids;
  std::vector<std::string> names;

  testing::AssertionResult Intern(const std::string& name) {
    const SymbolId id = table.Intern(name);
    auto [it, fresh] =
        ids.emplace(name, static_cast<SymbolId>(names.size()));
    if (fresh) names.push_back(name);
    if (id != it->second) {
      return testing::AssertionFailure()
             << "Intern gave " << id << ", oracle " << it->second;
    }
    return Check(name);
  }

  /// Lookup and NameOf of `name` (interned or not) and the size.
  testing::AssertionResult Check(const std::string& name) const {
    auto it = ids.find(name);
    const SymbolId want = it == ids.end() ? SymbolTable::kNoSymbol
                                          : it->second;
    if (table.Lookup(name) != want) {
      return testing::AssertionFailure()
             << "Lookup gave " << table.Lookup(name) << ", oracle " << want;
    }
    if (want != SymbolTable::kNoSymbol && table.NameOf(want) != name) {
      return testing::AssertionFailure() << "NameOf differs at " << want;
    }
    if (table.size() != names.size()) {
      return testing::AssertionFailure()
             << "size " << table.size() << ", oracle " << names.size();
    }
    return testing::AssertionSuccess();
  }

  /// Every interned spelling, by id.
  testing::AssertionResult Full() const {
    for (size_t id = 0; id < names.size(); ++id) {
      testing::AssertionResult r = Check(names[id]);
      if (!r) return r;
    }
    return testing::AssertionSuccess();
  }
};

/// A random spelling: short ones over a small alphabet repeat often,
/// SSO-length (5-15 bytes) and longer ones (16-64) mostly do not. The
/// alphabet holds CSV's special characters; length 0 is the empty
/// string.
std::string RandomSpelling(std::mt19937_64& rng) {
  static constexpr char kAlphabet[] = "abcxyz019,\"\r _-";
  const uint64_t kind = rng() % 10;
  const size_t len = kind < 4   ? rng() % 4
                     : kind < 8 ? 5 + rng() % 11
                                : 16 + rng() % 49;
  std::string name;
  for (size_t i = 0; i < len; ++i) {
    name += kAlphabet[rng() % (sizeof(kAlphabet) - 1)];
  }
  return name;
}

class InternOracle : public testing::TestWithParam<uint64_t> {};

// 120K random interns with lookups of random (often absent) spellings
// between them. About 70K are distinct, so the table (8 slots when
// first used, at most half full) grows through more than 10 doublings.
TEST_P(InternOracle, RandomInternsMatchTheOracle) {
  std::mt19937_64 rng(GetParam());
  CheckedSymbols c;
  ASSERT_TRUE(c.Check(""));
  for (int op = 0; op < 120000; ++op) {
    ASSERT_TRUE(c.Intern(RandomSpelling(rng))) << "op " << op;
    if (op % 3 == 0) {
      ASSERT_TRUE(c.Check(RandomSpelling(rng))) << "lookup, op " << op;
    }
    if (op % 20000 == 0) {
      ASSERT_TRUE(c.Full()) << "op " << op;
    }
  }
  ASSERT_TRUE(c.Intern(""));
  ASSERT_TRUE(c.Full());
  EXPECT_GT(c.names.size(), 8u << 10) << "fewer than 10 doublings";
}

// A copy owns its table: it and its source diverge under independent
// interns, each still matching its own oracle, and so does a table
// copy-assigned over one that held other symbols.
TEST_P(InternOracle, CopiesDiverge) {
  std::mt19937_64 rng(GetParam());
  CheckedSymbols source;
  for (int op = 0; op < 3000; ++op) {
    ASSERT_TRUE(source.Intern(RandomSpelling(rng)));
  }
  CheckedSymbols copy = source;
  ASSERT_TRUE(copy.Full());
  for (int op = 0; op < 20000; ++op) {
    CheckedSymbols& c = op % 2 == 0 ? source : copy;
    ASSERT_TRUE(c.Intern(RandomSpelling(rng))) << "op " << op;
  }
  ASSERT_TRUE(source.Full());
  ASSERT_TRUE(copy.Full());
  EXPECT_NE(source.names, copy.names);

  CheckedSymbols assigned;
  ASSERT_TRUE(assigned.Intern("stale"));
  assigned = copy;
  for (int op = 0; op < 2000; ++op) {
    ASSERT_TRUE(assigned.Intern(RandomSpelling(rng))) << "op " << op;
  }
  ASSERT_TRUE(assigned.Full());
  ASSERT_TRUE(copy.Full());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternOracle,
                         testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}));

TEST(SymbolSet, IteratesAscendingAndGrowsToAnyId) {
  std::mt19937_64 rng(11);
  SymbolSet set;
  std::set<SymbolId> oracle;
  for (SymbolId id : {SymbolId{0}, SymbolId{63}, SymbolId{64},
                      SymbolId{127}, SymbolId{128}}) {
    EXPECT_TRUE(set.Insert(id));
    oracle.insert(id);
  }
  for (int i = 0; i < 5000; ++i) {
    // Mostly dense ids, sometimes one far past the bitset's end.
    const SymbolId id = static_cast<SymbolId>(
        i % 50 == 0 ? rng() % 200000 : rng() % 300);
    EXPECT_EQ(set.Insert(id), oracle.insert(id).second) << "id " << id;
  }
  EXPECT_EQ(std::vector<SymbolId>(set.begin(), set.end()),
            std::vector<SymbolId>(oracle.begin(), oracle.end()));
  EXPECT_EQ(set.size(), oracle.size());
  for (SymbolId id = 0; id < 210000; id += 7) {
    EXPECT_EQ(set.Contains(id), oracle.count(id) > 0) << "id " << id;
  }
  EXPECT_FALSE(set.Contains(SymbolTable::kNoSymbol - 1));
  const SymbolSet empty;
  EXPECT_TRUE(empty.begin() == empty.end());
}

TEST(Value, SortsAndPayloads) {
  SymbolTable t;
  Value sym = Value::Symbol(t.Intern("x"));
  Value num = Value::Number(12);
  EXPECT_TRUE(sym.is_symbol());
  EXPECT_FALSE(sym.is_number());
  EXPECT_TRUE(num.is_number());
  EXPECT_EQ(num.number(), 12);
  EXPECT_EQ(sym.ToString(t), "x");
  EXPECT_EQ(num.ToString(t), "12");
}

TEST(Value, EqualityDistinguishesSorts) {
  // The symbol with id 3 and the number 3 are different values.
  Value sym = Value::Symbol(3);
  Value num = Value::Number(3);
  EXPECT_NE(sym, num);
  EXPECT_NE(sym.Hash(), num.Hash());
}

TEST(Value, OrderingIsTotalWithinSort) {
  EXPECT_LT(Value::Number(1), Value::Number(2));
  EXPECT_LT(Value::Symbol(0), Value::Symbol(1));
  // u sorts before i by convention.
  EXPECT_LT(Value::Symbol(99), Value::Number(0));
}

TEST(Tuple, HashTreatsContentNotIdentity) {
  TupleHash h;
  Tuple a = {Value::Number(1), Value::Symbol(2)};
  Tuple b = {Value::Number(1), Value::Symbol(2)};
  Tuple c = {Value::Symbol(2), Value::Number(1)};
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // order matters
}

TEST(RelationType, RoundTripsThroughString) {
  RelationType t = TypeFromString("0110");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], Sort::kU);
  EXPECT_EQ(t[1], Sort::kI);
  EXPECT_EQ(TypeToString(t), "0110");
}

TEST(RelationType, TupleToStringFormat) {
  SymbolTable t;
  Tuple tup = {Value::Symbol(t.Intern("a")), Value::Number(5)};
  EXPECT_EQ(TupleToString(tup, t), "(a, 5)");
  EXPECT_EQ(TupleToString({}, t), "()");
}

}  // namespace
}  // namespace idlog
