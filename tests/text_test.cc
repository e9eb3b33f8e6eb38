#include <algorithm>
#include <span>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "text/similarity.h"
#include "text/token_dictionary.h"
#include "text/tokenize.h"

namespace falcon {
namespace {

std::vector<std::string> Set(std::initializer_list<std::string> toks) {
  return ToTokenSet(std::vector<std::string>(toks));
}

// --- Tokenization ------------------------------------------------------------

TEST(TokenizeTest, WordTokensLowercasesAndSplitsOnPunct) {
  auto t = WordTokens("iPhone-6S, 16GB  (Gold)");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "iphone");
  EXPECT_EQ(t[1], "6s");
  EXPECT_EQ(t[2], "16gb");
  EXPECT_EQ(t[3], "gold");
}

TEST(TokenizeTest, WordTokensEmpty) {
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens("  ,.!  ").empty());
}

TEST(TokenizeTest, QGramPadding) {
  auto t = QGramTokens("ab", 3);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "##a");
  EXPECT_EQ(t[1], "#ab");
  EXPECT_EQ(t[2], "ab#");
  EXPECT_EQ(t[3], "b##");
}

TEST(TokenizeTest, QGramCountFormula) {
  // With q-1 padding both sides: len + q - 1 grams.
  for (int len = 1; len <= 8; ++len) {
    std::string s(len, 'x');
    EXPECT_EQ(QGramTokens(s, 3).size(), static_cast<size_t>(len + 2));
  }
  EXPECT_TRUE(QGramTokens("", 3).empty());
}

TEST(TokenizeTest, ToTokenSetSortsAndDedups) {
  auto s = ToTokenSet({"b", "a", "b", "c", "a"});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], "a");
  EXPECT_EQ(s[1], "b");
  EXPECT_EQ(s[2], "c");
}

TEST(TokenizeTest, SortedIntersectionSize) {
  EXPECT_EQ(SortedIntersectionSize(Set({"a", "b", "c"}), Set({"b", "c", "d"})),
            2u);
  EXPECT_EQ(SortedIntersectionSize(Set({}), Set({"a"})), 0u);
  EXPECT_EQ(SortedIntersectionSize(Set({"a"}), Set({"a"})), 1u);
}

// --- Set similarities ----------------------------------------------------------

TEST(SimilarityTest, JaccardBasics) {
  EXPECT_DOUBLE_EQ(JaccardSim(Set({"a", "b"}), Set({"a", "b"})), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSim(Set({"a", "b"}), Set({"c"})), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSim(Set({"a", "b", "c"}), Set({"b", "c", "d"})),
                   2.0 / 4.0);
  EXPECT_DOUBLE_EQ(JaccardSim(Set({}), Set({})), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSim(Set({}), Set({"a"})), 0.0);
}

TEST(SimilarityTest, DiceBasics) {
  EXPECT_DOUBLE_EQ(DiceSim(Set({"a", "b", "c"}), Set({"b", "c", "d"})),
                   2.0 * 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(DiceSim(Set({}), Set({})), 1.0);
}

TEST(SimilarityTest, OverlapBasics) {
  EXPECT_DOUBLE_EQ(OverlapSim(Set({"a", "b"}), Set({"a", "b", "c", "d"})),
                   1.0);
  EXPECT_DOUBLE_EQ(OverlapSim(Set({"a", "x"}), Set({"a", "b", "c", "d"})),
                   0.5);
  EXPECT_DOUBLE_EQ(OverlapSim(Set({}), Set({"a"})), 0.0);
}

TEST(SimilarityTest, CosineBasics) {
  EXPECT_DOUBLE_EQ(CosineSim(Set({"a", "b"}), Set({"a", "b"})), 1.0);
  EXPECT_NEAR(CosineSim(Set({"a", "b", "c"}), Set({"b", "c", "d"})),
              2.0 / 3.0, 1e-12);
}

// Property sweep: all set similarities are symmetric, bounded in [0,1], and
// equal 1 on identical non-empty sets.
using SetSimFn = double (*)(const std::vector<std::string>&,
                            const std::vector<std::string>&);

// Each case prints as its name, so the test names are the same in every run;
// a bare function pointer would print as its (address-randomized) value.
struct SetSimCase {
  const char* name;
  SetSimFn fn;
};
void PrintTo(const SetSimCase& c, std::ostream* os) { *os << c.name; }

class SetSimProperty : public ::testing::TestWithParam<SetSimCase> {};

TEST_P(SetSimProperty, SymmetricBoundedReflexive) {
  SetSimFn f = GetParam().fn;
  std::vector<std::vector<std::string>> sets = {
      Set({"a"}), Set({"a", "b"}), Set({"x", "y", "z"}),
      Set({"a", "b", "c", "d", "e"}), Set({"q"})};
  for (const auto& x : sets) {
    EXPECT_DOUBLE_EQ(f(x, x), 1.0);
    for (const auto& y : sets) {
      double s = f(x, y);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      EXPECT_DOUBLE_EQ(s, f(y, x));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSetSims, SetSimProperty,
    ::testing::Values(SetSimCase{"Jaccard", &JaccardSim},
                      SetSimCase{"Dice", &DiceSim},
                      SetSimCase{"Overlap", &OverlapSim},
                      SetSimCase{"Cosine", &CosineSim}));

// --- TokenId-span overloads ------------------------------------------------------
//
// The id-path similarity must be bit-identical to the string path: a set
// similarity depends only on (|x ∩ y|, |x|, |y|), and interning is a
// bijection, so ANY consistent order on ids preserves all three. Randomized
// sweep over set sizes 0..12 from a small vocabulary (forces overlaps),
// EXPECT_EQ on exact doubles.
TEST(SimilarityTest, IdSpanOverloadsMatchStringPathRandomized) {
  const std::vector<std::string> vocab = {
      "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
      "theta", "iota", "kappa", "lambda", "mu", "nu", "xi", "omicron"};
  TokenDictionary dict;
  // Intern in a scrambled order so TokenId order != lexicographic order —
  // the equality below must hold regardless.
  for (size_t i = 0; i < vocab.size(); ++i) {
    dict.Intern(vocab[(i * 7 + 3) % vocab.size()]);
  }

  Rng rng(42);
  auto random_set = [&](size_t max_size) {
    std::vector<std::string> s;
    size_t n = rng.NextBelow(max_size + 1);
    for (size_t i = 0; i < n; ++i) {
      s.push_back(vocab[rng.NextBelow(vocab.size())]);
    }
    return ToTokenSet(std::move(s));
  };
  auto to_ids = [&](const std::vector<std::string>& s) {
    std::vector<TokenId> ids;
    for (const auto& t : s) {
      TokenId id;
      EXPECT_TRUE(dict.Find(t, &id));
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };

  for (int trial = 0; trial < 500; ++trial) {
    auto xs = random_set(12);
    auto ys = random_set(12);
    std::vector<TokenId> xi = to_ids(xs);
    std::vector<TokenId> yi = to_ids(ys);
    std::span<const TokenId> x(xi);
    std::span<const TokenId> y(yi);
    EXPECT_EQ(SortedIntersectionSize(x, y), SortedIntersectionSize(xs, ys));
    EXPECT_EQ(JaccardSim(x, y), JaccardSim(xs, ys));
    EXPECT_EQ(DiceSim(x, y), DiceSim(xs, ys));
    EXPECT_EQ(OverlapSim(x, y), OverlapSim(xs, ys));
    EXPECT_EQ(CosineSim(x, y), CosineSim(xs, ys));
  }
}

TEST(SimilarityTest, IdSpanEmptySetEdges) {
  std::vector<TokenId> none;
  std::vector<TokenId> one = {3};
  std::span<const TokenId> e(none);
  std::span<const TokenId> s(one);
  // Both empty: similarity 1 across the family (matches the string path).
  EXPECT_DOUBLE_EQ(JaccardSim(e, e), 1.0);
  EXPECT_DOUBLE_EQ(DiceSim(e, e), 1.0);
  EXPECT_DOUBLE_EQ(OverlapSim(e, e), 1.0);
  EXPECT_DOUBLE_EQ(CosineSim(e, e), 1.0);
  // Exactly one empty: 0.
  EXPECT_DOUBLE_EQ(JaccardSim(e, s), 0.0);
  EXPECT_DOUBLE_EQ(DiceSim(s, e), 0.0);
  EXPECT_DOUBLE_EQ(OverlapSim(e, s), 0.0);
  EXPECT_DOUBLE_EQ(CosineSim(s, e), 0.0);
}

// --- Edit-distance family -------------------------------------------------------

TEST(SimilarityTest, LevenshteinDistanceKnownValues) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
}

TEST(SimilarityTest, LevenshteinSimNormalized) {
  EXPECT_DOUBLE_EQ(LevenshteinSim("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSim("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSim("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSim("kitten", "sitting"), 1.0 - 3.0 / 7.0, 1e-12);
}

TEST(SimilarityTest, JaroKnownValues) {
  EXPECT_DOUBLE_EQ(JaroSim("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSim("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSim("abc", ""), 0.0);
  EXPECT_NEAR(JaroSim("martha", "marhta"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSim("dixon", "dicksonx"), 0.766667, 1e-5);
}

TEST(SimilarityTest, JaroWinklerBoostsSharedPrefix) {
  EXPECT_NEAR(JaroWinklerSim("martha", "marhta"), 0.961111, 1e-5);
  EXPECT_GE(JaroWinklerSim("prefix_aaa", "prefix_bbb"),
            JaroSim("prefix_aaa", "prefix_bbb"));
  EXPECT_DOUBLE_EQ(JaroWinklerSim("same", "same"), 1.0);
}

TEST(SimilarityTest, MongeElkan) {
  EXPECT_DOUBLE_EQ(MongeElkanSim({"peter", "christen"}, {"peter", "christen"}),
                   1.0);
  double s = MongeElkanSim({"peter", "christen"}, {"petar", "kristen"});
  EXPECT_GT(s, 0.7);
  EXPECT_LT(s, 1.0);
  EXPECT_DOUBLE_EQ(MongeElkanSim({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(MongeElkanSim({"a"}, {}), 0.0);
}

TEST(SimilarityTest, NeedlemanWunschBounds) {
  EXPECT_DOUBLE_EQ(NeedlemanWunschSim("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(NeedlemanWunschSim("", ""), 1.0);
  double s = NeedlemanWunschSim("abcd", "wxyz");
  EXPECT_GE(s, 0.0);
  EXPECT_LT(s, 0.5);
}

TEST(SimilarityTest, SmithWatermanLocalAlignment) {
  EXPECT_DOUBLE_EQ(SmithWatermanSim("abc", "abc"), 1.0);
  // A shared local region scores highly even with junk around it.
  EXPECT_DOUBLE_EQ(SmithWatermanSim("abc", "xxabcxx"), 1.0);
  EXPECT_DOUBLE_EQ(SmithWatermanSim("", ""), 1.0);
  EXPECT_DOUBLE_EQ(SmithWatermanSim("abc", ""), 0.0);
}

TEST(SimilarityTest, SmithWatermanGotohAffineGapsAtLeastLinearGaps) {
  // With a gap inside the match, affine extension (0.5) penalizes less than
  // repeated opens (1.0 each).
  double gotoh = SmithWatermanGotohSim("abcdef", "abcxxxdef");
  double plain = SmithWatermanSim("abcdef", "abcxxxdef");
  EXPECT_GE(gotoh, plain);
  EXPECT_DOUBLE_EQ(SmithWatermanGotohSim("same", "same"), 1.0);
}

// --- Numeric ---------------------------------------------------------------------

TEST(SimilarityTest, ExactMatch) {
  EXPECT_DOUBLE_EQ(ExactMatchSim("Foo", " foo "), 1.0);
  EXPECT_DOUBLE_EQ(ExactMatchSim("foo", "bar"), 0.0);
  EXPECT_DOUBLE_EQ(ExactMatchSim("", ""), 1.0);
}

TEST(SimilarityTest, AbsRelDiff) {
  EXPECT_DOUBLE_EQ(AbsDiff(10, 3), 7.0);
  EXPECT_DOUBLE_EQ(RelDiff(10, 5), 0.5);
  EXPECT_DOUBLE_EQ(RelDiff(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(RelDiff(-4, 4), 2.0);
}

// --- TF/IDF ------------------------------------------------------------------------

TEST(SimilarityTest, TfIdfFavorsRareTokens) {
  IdfDict idf;
  // "the" appears in every doc; "zanzibar" in one.
  for (int i = 0; i < 99; ++i) idf.AddDocument({"the", "common"});
  idf.AddDocument({"the", "zanzibar"});
  idf.Finalize();
  EXPECT_GT(idf.Idf("zanzibar"), idf.Idf("the"));
  double rare = TfIdfSim({"the", "zanzibar"}, {"zanzibar"}, idf);
  double common = TfIdfSim({"the", "zanzibar"}, {"the"}, idf);
  EXPECT_GT(rare, common);
  EXPECT_DOUBLE_EQ(TfIdfSim({"a"}, {"a"}, idf), 1.0);
  EXPECT_DOUBLE_EQ(TfIdfSim({}, {}, idf), 1.0);
}

TEST(SimilarityTest, SoftTfIdfToleratesTypos) {
  IdfDict idf;
  for (int i = 0; i < 10; ++i) idf.AddDocument({"apple", "computer"});
  idf.Finalize();
  double strict = TfIdfSim({"aple", "computer"}, {"apple", "computer"}, idf);
  double soft = SoftTfIdfSim({"aple", "computer"}, {"apple", "computer"}, idf);
  EXPECT_GT(soft, strict);
  EXPECT_LE(soft, 1.0);
}

// --- Metadata ------------------------------------------------------------------------

TEST(SimilarityTest, BlockingUsability) {
  EXPECT_TRUE(UsableForBlocking(SimFunction::kJaccard));
  EXPECT_TRUE(UsableForBlocking(SimFunction::kExactMatch));
  EXPECT_TRUE(UsableForBlocking(SimFunction::kAbsDiff));
  EXPECT_FALSE(UsableForBlocking(SimFunction::kJaro));
  EXPECT_FALSE(UsableForBlocking(SimFunction::kTfIdf));
  EXPECT_FALSE(UsableForBlocking(SimFunction::kMongeElkan));
}

TEST(SimilarityTest, NamesUnique) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(SimFunction::kSoftTfIdf); ++i) {
    names.insert(SimFunctionName(static_cast<SimFunction>(i)));
  }
  EXPECT_EQ(names.size(),
            static_cast<size_t>(SimFunction::kSoftTfIdf) + 1);
}

}  // namespace
}  // namespace falcon
