#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/btree_index.h"
#include "index/hash_index.h"
#include "index/inverted_index.h"
#include "index/token_ordering.h"
#include "table/table.h"

namespace falcon {
namespace {

// --- TokenOrdering -------------------------------------------------------------

/// Builds an ordering over `dict` from (token text, frequency) pairs; tokens
/// absent from `freq` stay interned but unranked.
TokenOrdering OrderingOf(
    TokenDictionary* dict,
    const std::vector<std::pair<std::string, uint64_t>>& freq) {
  std::vector<uint64_t> by_id;
  for (const auto& [text, count] : freq) {
    TokenId id = dict->Intern(text);
    if (by_id.size() <= id) by_id.resize(id + 1, 0);
    by_id[id] = count;
  }
  by_id.resize(dict->size(), 0);
  return TokenOrdering::FromIdFrequencies(dict, by_id);
}

uint32_t RankOf(const TokenOrdering& ord, const TokenDictionary& dict,
                const std::string& text) {
  TokenId id = 0;
  uint32_t rank = UINT32_MAX;
  EXPECT_TRUE(dict.Find(text, &id)) << text;
  EXPECT_TRUE(ord.RankId(id, &rank)) << text;
  return rank;
}

TEST(TokenOrderingTest, RareFirst) {
  TokenDictionary dict;
  auto ord = OrderingOf(&dict, {{"common", 100}, {"mid", 10}, {"rare", 1}});
  EXPECT_EQ(ord.size(), 3u);
  EXPECT_EQ(RankOf(ord, dict, "rare"), 0u);
  EXPECT_EQ(RankOf(ord, dict, "mid"), 1u);
  EXPECT_EQ(RankOf(ord, dict, "common"), 2u);
}

TEST(TokenOrderingTest, TiesBrokenLexicographically) {
  TokenDictionary dict;
  auto ord = OrderingOf(&dict, {{"b", 5}, {"a", 5}});
  EXPECT_EQ(RankOf(ord, dict, "a"), 0u);
  EXPECT_EQ(RankOf(ord, dict, "b"), 1u);
}

// Exact ranks: ascending frequency, frequency ties broken by token text,
// independent of the order the dictionary assigned ids in.
TEST(TokenOrderingTest, FromIdFrequenciesGoldenRanks) {
  TokenDictionary dict;
  // Interning order scrambled relative to both frequency and text order.
  auto ord = OrderingOf(&dict, {{"common", 100},
                                {"b_tie", 5},
                                {"rare", 1},
                                {"a_tie", 5},
                                {"c_tie", 5}});
  EXPECT_EQ(ord.size(), 5u);
  EXPECT_EQ(RankOf(ord, dict, "rare"), 0u);
  EXPECT_EQ(RankOf(ord, dict, "a_tie"), 1u);
  EXPECT_EQ(RankOf(ord, dict, "b_tie"), 2u);
  EXPECT_EQ(RankOf(ord, dict, "c_tie"), 3u);
  EXPECT_EQ(RankOf(ord, dict, "common"), 4u);
  // Zero-frequency ids (interned but absent from the indexed column) and
  // out-of-range ids are unranked.
  TokenId ghost = dict.Intern("ghost");
  std::vector<uint64_t> freq(dict.size(), 0);
  for (const char* t : {"common", "b_tie", "rare", "a_tie", "c_tie"}) {
    TokenId id = 0;
    ASSERT_TRUE(dict.Find(t, &id));
    freq[id] = 1;
  }
  auto ord2 = TokenOrdering::FromIdFrequencies(&dict, freq);
  EXPECT_EQ(ord2.size(), 5u);
  uint32_t dummy;
  EXPECT_FALSE(ord2.RankId(ghost, &dummy));
  EXPECT_FALSE(ord2.RankId(999, &dummy));
}

TEST(TokenOrderingTest, SortPutsUnknownFirst) {
  TokenDictionary dict;
  auto ord = OrderingOf(&dict, {{"x", 1}, {"y", 2}});
  TokenId x = 0, y = 0;
  ASSERT_TRUE(dict.Find("x", &x));
  ASSERT_TRUE(dict.Find("y", &y));
  TokenId unseen = dict.Intern("zz_unseen");
  std::vector<TokenId> ids = {y, unseen, x};
  ord.SortIds(&ids);
  EXPECT_EQ(ids, (std::vector<TokenId>{unseen, x, y}));
}

// Unranked ids sort first, among themselves by token text (not by id), then
// ranked ids by rank.
TEST(TokenOrderingTest, SortIdsGoldenOrder) {
  TokenDictionary dict;
  auto ord = OrderingOf(&dict, {{"m", 3}, {"k", 1}, {"l", 3}});
  // Unranked, interned in reverse text order.
  TokenId zz = dict.Intern("zz");
  TokenId aa = dict.Intern("aa");
  TokenId k = 0, l = 0, m = 0;
  ASSERT_TRUE(dict.Find("k", &k));
  ASSERT_TRUE(dict.Find("l", &l));
  ASSERT_TRUE(dict.Find("m", &m));
  std::vector<TokenId> ids = {m, zz, l, k, aa};
  ord.SortIds(&ids);
  EXPECT_EQ(ids, (std::vector<TokenId>{aa, zz, k, l, m}));
}

// --- HashIndex ------------------------------------------------------------------

Table YearTable() {
  Table t(Schema({{"year", AttrType::kString}}));
  for (const char* y : {"1999", "2000", "1999", "", "2001"}) {
    EXPECT_TRUE(t.AppendRow({y}).ok());
  }
  return t;
}

TEST(HashIndexTest, ProbeFindsEqualRows) {
  Table t = YearTable();
  auto idx = HashIndex::Build(t, 0);
  auto rows = idx.Probe("1999");
  EXPECT_EQ(rows, (std::vector<RowId>{0, 2}));
  EXPECT_TRUE(idx.Probe("1777").empty());
  EXPECT_EQ(idx.missing_rows(), (std::vector<RowId>{3}));
  EXPECT_EQ(idx.num_keys(), 3u);
}

TEST(HashIndexTest, NormalizesCaseAndWhitespace) {
  Table t(Schema({{"v", AttrType::kString}}));
  ASSERT_TRUE(t.AppendRow({"  Foo "}).ok());
  auto idx = HashIndex::Build(t, 0);
  EXPECT_EQ(idx.Probe("foo").size(), 1u);
  EXPECT_EQ(idx.Probe("FOO  ").size(), 1u);
}

// --- BTreeIndex -----------------------------------------------------------------

TEST(BTreeIndexTest, RangeProbeSmall) {
  Table t(Schema({{"price", AttrType::kNumeric}}));
  for (const char* p : {"10", "20", "30", "", "25"}) {
    ASSERT_TRUE(t.AppendRow({p}).ok());
  }
  auto idx = BTreeIndex::Build(t, 0);
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx.missing_rows(), (std::vector<RowId>{3}));
  std::vector<RowId> out;
  idx.ProbeRange(15, 27, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<RowId>{1, 4}));
  out.clear();
  idx.ProbeRange(30, 30, &out);
  EXPECT_EQ(out, (std::vector<RowId>{2}));
  out.clear();
  idx.ProbeRange(99, 99, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BTreeIndexTest, EmptyRange) {
  BTreeIndex idx;
  idx.Finalize();
  std::vector<RowId> out;
  idx.ProbeRange(0, 100, &out);
  EXPECT_TRUE(out.empty());
  idx.Insert(5.0, 1);
  idx.Finalize();
  idx.ProbeRange(10, 0, &out);  // inverted range
  EXPECT_TRUE(out.empty());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  idx.ProbeRange(0, nan, &out);
  idx.ProbeRange(nan, 10, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BTreeIndexTest, ManyInsertsMatchReferenceAndKeepInvariants) {
  Rng rng(42);
  BTreeIndex idx;
  std::multimap<double, RowId> ref;
  for (RowId i = 0; i < 5000; ++i) {
    double key = static_cast<double>(rng.NextBelow(1000));
    idx.Insert(key, i);
    ref.emplace(key, i);  // equal keys stay in insertion order
  }
  idx.Finalize();
  EXPECT_EQ(idx.size(), 5000u);
  for (int trial = 0; trial < 50; ++trial) {
    double lo = static_cast<double>(rng.NextBelow(1000));
    double hi = lo + static_cast<double>(rng.NextBelow(100));
    std::vector<RowId> got;
    idx.ProbeRange(lo, hi, &got);
    std::vector<RowId> expected;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
         ++it) {
      expected.push_back(it->second);
    }
    EXPECT_EQ(got, expected) << "range [" << lo << ", " << hi << "]";
  }
}

TEST(BTreeIndexTest, DuplicateKeysAllReturned) {
  BTreeIndex idx;
  for (RowId i = 0; i < 200; ++i) idx.Insert(7.0, i);
  idx.Finalize();
  std::vector<RowId> rows;
  idx.ProbeRange(7.0, 7.0, &rows);
  EXPECT_EQ(rows.size(), 200u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));  // insertion order
}

TEST(BTreeIndexTest, AscendingAndDescendingInsertions) {
  for (bool ascending : {true, false}) {
    BTreeIndex idx;
    for (int i = 0; i < 2000; ++i) {
      double key = ascending ? i : 2000 - i;
      idx.Insert(key, static_cast<RowId>(i));
    }
    idx.Finalize();
    std::vector<RowId> out;
    idx.ProbeRange(-1e9, 1e9, &out);
    EXPECT_EQ(out.size(), 2000u);
  }
}

TEST(BTreeIndexTest, MemoryUsageGrows) {
  BTreeIndex idx;
  size_t before = idx.MemoryUsage();
  for (RowId i = 0; i < 1000; ++i) idx.Insert(i, i);
  EXPECT_GT(idx.MemoryUsage(), before);
}

// --- InvertedIndex ------------------------------------------------------------------

TEST(InvertedIndexTest, PostingsCarryPositionAndSize) {
  InvertedIndex idx;
  const TokenId rare = 4, mid = 2, absent = 7;
  const std::vector<TokenId> prefix = {rare, mid};
  idx.AddPrefix(7, prefix, 10);
  idx.AddMissing(9);
  idx.Finalize();
  const auto p = idx.Probe(mid);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].row, 7u);
  EXPECT_EQ(p[0].position, 1u);
  EXPECT_EQ(idx.set_size(7), 10u);
  EXPECT_EQ(idx.set_size(9), 0u);     // missing row: never AddPrefix'd
  EXPECT_EQ(idx.set_size(1000), 0u);  // past the staged range
  EXPECT_TRUE(idx.Probe(absent).empty());
  // Probing past the posting table's end is an empty list too.
  EXPECT_TRUE(idx.Probe(1000).empty());
  EXPECT_EQ(idx.missing_rows(), (std::vector<RowId>{9}));
  EXPECT_EQ(idx.num_tokens(), 2u);
  EXPECT_EQ(idx.num_postings(), 2u);
}

}  // namespace
}  // namespace falcon
