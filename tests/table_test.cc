#include <cmath>

#include <gtest/gtest.h>

#include "table/csv.h"
#include "table/profile.h"
#include "table/schema.h"
#include "table/table.h"

namespace falcon {
namespace {

Schema BookSchema() {
  return Schema({{"title", AttrType::kString},
                 {"isbn", AttrType::kString},
                 {"price", AttrType::kNumeric}});
}

TEST(SchemaTest, IndexOf) {
  Schema s = BookSchema();
  EXPECT_EQ(s.num_attrs(), 3u);
  EXPECT_EQ(s.IndexOf("title"), 0);
  EXPECT_EQ(s.IndexOf("price"), 2);
  EXPECT_EQ(s.IndexOf("missing"), -1);
}

TEST(SchemaTest, Equality) {
  EXPECT_TRUE(BookSchema() == BookSchema());
  Schema other({{"title", AttrType::kString}});
  EXPECT_FALSE(BookSchema() == other);
}

TEST(TableTest, AppendAndGet) {
  Table t(BookSchema());
  ASSERT_TRUE(t.AppendRow({"Dune", "978-0441", "9.99"}).ok());
  ASSERT_TRUE(t.AppendRow({"Hyperion", "", "12.50"}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Get(0, 0), "Dune");
  EXPECT_TRUE(t.IsMissing(1, 1));
  EXPECT_FALSE(t.IsMissing(0, 1));
  EXPECT_DOUBLE_EQ(t.GetNumeric(1, 2), 12.50);
}

TEST(TableTest, NumericCacheNaNForNonNumeric) {
  Table t(BookSchema());
  ASSERT_TRUE(t.AppendRow({"Dune", "978-0441", ""}).ok());
  EXPECT_TRUE(std::isnan(t.GetNumeric(0, 2)));
  EXPECT_TRUE(std::isnan(t.GetNumeric(0, 0)));  // "Dune" not numeric
}

TEST(TableTest, AppendRowWidthMismatchFails) {
  Table t(BookSchema());
  Status s = t.AppendRow({"only-one"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, ProjectSelectsRows) {
  Table t(BookSchema());
  ASSERT_TRUE(t.AppendRow({"A", "1", "1"}).ok());
  ASSERT_TRUE(t.AppendRow({"B", "2", "2"}).ok());
  ASSERT_TRUE(t.AppendRow({"C", "3", "3"}).ok());
  Table p = t.Project({2, 0});
  ASSERT_EQ(p.num_rows(), 2u);
  EXPECT_EQ(p.Get(0, 0), "C");
  EXPECT_EQ(p.Get(1, 0), "A");
  EXPECT_TRUE(p.schema() == t.schema());
}

TEST(TableTest, MemoryUsagePositiveAndGrows) {
  Table t(BookSchema());
  size_t empty = t.MemoryUsage();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t.AppendRow({"a fairly long book title here", "isbn", "1.0"}).ok());
  }
  EXPECT_GT(t.MemoryUsage(), empty);
}

// --- CSV ---------------------------------------------------------------------

TEST(CsvTest, ParseSimpleWithHeader) {
  auto r = ReadCsvString("a,b\n1,x\n2,y\n", CsvOptions{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& t = r.value();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.schema().attr(0).name, "a");
  EXPECT_EQ(t.schema().attr(0).type, AttrType::kNumeric);
  EXPECT_EQ(t.schema().attr(1).type, AttrType::kString);
  EXPECT_EQ(t.Get(1, 1), "y");
}

TEST(CsvTest, QuotedFieldsWithCommasAndNewlines) {
  auto r = ReadCsvString(
      "name,notes\n\"Doe, John\",\"line1\nline2\"\nplain,\"he said \"\"hi\"\"\"\n",
      CsvOptions{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& t = r.value();
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Get(0, 0), "Doe, John");
  EXPECT_EQ(t.Get(0, 1), "line1\nline2");
  EXPECT_EQ(t.Get(1, 1), "he said \"hi\"");
}

TEST(CsvTest, CrLfTolerated) {
  auto r = ReadCsvString("a,b\r\n1,2\r\n", CsvOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().Get(0, 1), "2");
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  auto r = ReadCsvString("a\n\"oops\n", CsvOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, WidthMismatchIsError) {
  auto r = ReadCsvString("a,b\n1\n", CsvOptions{});
  ASSERT_FALSE(r.ok());
}

TEST(CsvTest, RoundTrip) {
  Table t(BookSchema());
  ASSERT_TRUE(t.AppendRow({"Dune, Part 1", "978\"x\"", "9.99"}).ok());
  ASSERT_TRUE(t.AppendRow({"", "y", ""}).ok());
  std::string csv = WriteCsvString(t);
  Schema schema = t.schema();
  auto r = ReadCsvString(csv, CsvOptions{}, &schema);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& back = r.value();
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.Get(0, 0), "Dune, Part 1");
  EXPECT_EQ(back.Get(0, 1), "978\"x\"");
  EXPECT_TRUE(back.IsMissing(1, 0));

  // One column: a missing value is the whole record, so it must not be
  // written as a blank line the reader skips.
  Table one(Schema({{"title", AttrType::kString}}));
  for (const char* v : {"a", "", "b", ""}) ASSERT_TRUE(one.AppendRow({v}).ok());
  Schema one_schema = one.schema();
  auto one_back =
      ReadCsvString(WriteCsvString(one), CsvOptions{}, &one_schema);
  ASSERT_TRUE(one_back.ok()) << one_back.status().ToString();
  ASSERT_EQ(one_back.value().num_rows(), 4u);
  EXPECT_EQ(one_back.value().Get(2, 0), "b");
  EXPECT_TRUE(one_back.value().IsMissing(1, 0));
  EXPECT_TRUE(one_back.value().IsMissing(3, 0));
}

TEST(CsvTest, MissingValuesDoNotBreakNumericInference) {
  auto r = ReadCsvString("p\n\n1.5\n\n2.5\n", CsvOptions{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().schema().attr(0).type, AttrType::kNumeric);
}

// --- Profile -------------------------------------------------------------------

TEST(ProfileTest, Characteristics) {
  Schema s({{"word", AttrType::kString},
            {"short_s", AttrType::kString},
            {"medium", AttrType::kString},
            {"long_s", AttrType::kString},
            {"num", AttrType::kNumeric},
            {"digits", AttrType::kString},
            {"num_text", AttrType::kNumeric}});
  Table t(s);
  std::string medium = "one two three four five six seven";
  std::string long_str;
  for (int i = 0; i < 15; ++i) long_str += "word" + std::to_string(i) + " ";
  for (int i = 0; i < 50; ++i) {
    // "digits" is declared a string although every value parses as a
    // number; "num_text" is declared numeric although most values do not.
    ASSERT_TRUE(t.AppendRow({"token", "a few words here", medium, long_str,
                             "3.5", std::to_string(1000 + i),
                             i % 5 == 0 ? "7" : "n/a"})
                    .ok());
  }
  auto profiles = ProfileTable(t);
  ASSERT_EQ(profiles.size(), 7u);
  EXPECT_EQ(profiles[0].characteristic, AttrCharacteristic::kSingleWordString);
  EXPECT_EQ(profiles[1].characteristic, AttrCharacteristic::kShortString);
  EXPECT_EQ(profiles[2].characteristic, AttrCharacteristic::kMediumString);
  EXPECT_EQ(profiles[3].characteristic, AttrCharacteristic::kLongString);
  EXPECT_EQ(profiles[4].characteristic, AttrCharacteristic::kNumeric);
  // The declared type decides: parseable strings stay strings, and a
  // numeric column with unparseable values stays numeric.
  EXPECT_EQ(profiles[5].characteristic, AttrCharacteristic::kSingleWordString);
  EXPECT_EQ(profiles[6].characteristic, AttrCharacteristic::kNumeric);
}

TEST(ProfileTest, MissingFraction) {
  Schema s({{"x", AttrType::kString}});
  Table t(s);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({i < 3 ? "" : "val"}).ok());
  }
  auto profiles = ProfileTable(t);
  EXPECT_NEAR(profiles[0].missing_fraction, 0.3, 1e-9);
}

TEST(ProfileTest, AllCharacteristicsHaveNames) {
  for (auto c : {AttrCharacteristic::kSingleWordString,
                 AttrCharacteristic::kShortString,
                 AttrCharacteristic::kMediumString,
                 AttrCharacteristic::kLongString, AttrCharacteristic::kNumeric}) {
    EXPECT_STRNE(AttrCharacteristicName(c), "unknown");
  }
}

}  // namespace
}  // namespace falcon
