#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "storage/csv.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

TEST(Csv, StrictParsePlainSingleAndEmptyFields) {
  EXPECT_EQ(*ParseCsvRecord("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(*ParseCsvRecord("one"), std::vector<std::string>{"one"});
  EXPECT_EQ(*ParseCsvRecord("a,,c"),
            (std::vector<std::string>{"a", "", "c"}));
}

TEST(Csv, LoadFromString) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "emp",
                                        "ann,sales\nbob,dev\n\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  const Relation* rel = *db.Get("emp");
  EXPECT_EQ(rel->size(), 2u);
  EXPECT_TRUE(rel->Contains(T(&s, {"ann", "sales"})));
}

TEST(Csv, LoadSkipsHeader) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "emp",
                                        "name,dept\nann,sales\n",
                                        /*skip_header=*/true);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ((*db.Get("emp"))->size(), 1u);
}

TEST(Csv, NumericFieldsBecomeSortI) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(
      LoadCsvRelationFromString(&db, "score", "ann,42\n").ok());
  const Relation* rel = *db.Get("score");
  EXPECT_EQ(TypeToString(rel->type()), "01");
  EXPECT_EQ(rel->tuples()[0][1].number(), 42);
}

TEST(Csv, TypeMismatchReportsLine) {
  SymbolTable s;
  Database db(&s);
  Status st =
      LoadCsvRelationFromString(&db, "score", "ann,42\nbob,oops\n");
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
  EXPECT_NE(st.message().find("line 2"), std::string::npos);
}

TEST(Csv, StrictParseAcceptsQuotedCommasAndCrlf) {
  auto fields = ParseCsvRecord("\"a,b\",c\r");
  ASSERT_TRUE(fields.ok()) << fields.status().ToString();
  EXPECT_EQ(*fields, (std::vector<std::string>{"a,b", "c"}));
  auto quoted = ParseCsvRecord("\"say \"\"hi\"\"\",x");
  ASSERT_TRUE(quoted.ok());
  EXPECT_EQ(*quoted, (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(Csv, UnterminatedQuoteIsParseError) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "r", "a,b\n\"oops,c\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 2"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("unterminated"), std::string::npos)
      << st.ToString();
}

TEST(Csv, TextAfterClosingQuoteIsParseError) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "r", "\"ab\"cd,x\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 1"), std::string::npos)
      << st.ToString();
}

TEST(Csv, QuoteOpeningMidFieldIsParseError) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "r", "ab\"cd\",x\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(Csv, ArityMismatchReportsLine) {
  SymbolTable s;
  Database db(&s);
  Status st =
      LoadCsvRelationFromString(&db, "r", "a,b\nc,d,e\nf,g\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 2"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("expected 2"), std::string::npos)
      << st.ToString();
}

TEST(Csv, ArityCheckedAgainstExistingRelation) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(LoadCsvRelationFromString(&db, "r", "a,b\n").ok());
  Status st = LoadCsvRelationFromString(&db, "r", "x,y,z\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 1"), std::string::npos)
      << st.ToString();
}

TEST(Csv, OversizedFieldIsParseError) {
  SymbolTable s;
  Database db(&s);
  std::string huge(kMaxCsvFieldBytes + 2, 'x');
  Status st = LoadCsvRelationFromString(&db, "r", huge + ",y\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("exceeds"), std::string::npos)
      << st.ToString();
}

TEST(Csv, IntegerOverflowIsParseError) {
  SymbolTable s;
  Database db(&s);
  // 20 digits: larger than any int64. Must be a clean error, not a
  // crash or a silently wrapped number.
  Status st =
      LoadCsvRelationFromString(&db, "r", "a,99999999999999999999\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 1"), std::string::npos)
      << st.ToString();
  // int64 max itself still loads.
  ASSERT_TRUE(
      LoadCsvRelationFromString(&db, "ok", "a,9223372036854775807\n")
          .ok());
  EXPECT_EQ((*db.Get("ok"))->tuples()[0][1].number(),
            9223372036854775807LL);
}

TEST(Csv, EmbeddedCarriageReturnInsideQuotesIsKept) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(
      LoadCsvRelationFromString(&db, "r", "\"a\rb\",x\r\n").ok());
  EXPECT_TRUE((*db.Get("r"))->Contains(T(&s, {"a\rb", "x"})));
}

TEST(Csv, MissingFileIsNotFound) {
  SymbolTable s;
  Database db(&s);
  EXPECT_EQ(LoadCsvRelation(&db, "r", "/nonexistent/x.csv").code(),
            StatusCode::kNotFound);
}

TEST(Csv, SaveAndReload) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(
      LoadCsvRelationFromString(&db, "emp",
                                "ann,sales,3\n\"x,y\",dev,5\n")
          .ok());
  std::string path = ::testing::TempDir() + "/idlog_csv_test.csv";
  ASSERT_TRUE(SaveRelationCsv(**db.Get("emp"), s, path).ok());

  SymbolTable s2;
  Database db2(&s2);
  ASSERT_TRUE(LoadCsvRelation(&db2, "emp", path).ok());
  EXPECT_EQ((*db2.Get("emp"))->size(), 2u);
  EXPECT_TRUE((*db2.Get("emp"))->Contains(T(&s2, {"x,y", "dev", "5"})));
  std::remove(path.c_str());
}

// The reader's views point into the line and its scratch buffer, which
// the next record reuses: every field must be interned (copied) before
// the following line overwrites them. 10,000 quoted spellings longer
// than a std::string's inline buffer, some holding doubled quotes and
// commas, each line overwriting the last.
TEST(Csv, FieldsSurviveTheLineBufferBeingOverwritten) {
  auto name = [](int i) {
    std::string n = "employee-number-" + std::to_string(i);
    if (i % 3 == 0) n += ", \"senior\"";
    return n;
  };
  std::string content;
  for (int i = 0; i < 10000; ++i) {
    std::string quoted = "\"";
    for (char c : name(i)) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    content += quoted + ",dept-" + std::to_string(i % 7) + "," +
               std::to_string(i) + "\r\n";
  }
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "emp", content);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const Relation* rel = *db.Get("emp");
  ASSERT_EQ(rel->size(), 10000u);
  for (int i = 0; i < 10000; ++i) {
    const Tuple& t = rel->tuples()[static_cast<size_t>(i)];
    ASSERT_EQ(s.NameOf(t[0].symbol()), name(i)) << "row " << i;
    ASSERT_EQ(s.NameOf(t[1].symbol()), "dept-" + std::to_string(i % 7));
    ASSERT_EQ(t[2].number(), i);
  }
  EXPECT_EQ(s.size(), 10000u + 7u);
}

// The u-domain holds the constants of stored tuples: a row refused for
// its sorts adds none of its symbols, though the rows before it stay.
TEST(Csv, RefusedRowAddsNothingToTheUDomain) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "r", "a,1\nb,c\n");
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
  EXPECT_NE(st.message().find("line 2"), std::string::npos)
      << st.ToString();
  EXPECT_EQ((*db.Get("r"))->size(), 1u);
  EXPECT_EQ(std::vector<SymbolId>(db.u_domain().begin(), db.u_domain().end()),
            std::vector<SymbolId>{s.Lookup("a")});
}

}  // namespace
}  // namespace idlog
