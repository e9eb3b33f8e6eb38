// Randomized property sweeps across modules.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rules/rule.h"
#include "text/similarity.h"
#include "text/tokenize.h"
#include "workload/generator.h"

namespace falcon {
namespace {

std::string RandomString(Rng* rng, size_t max_len) {
  size_t n = rng->NextBelow(max_len + 1);
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>('a' + rng->NextBelow(6)));  // collisions!
  }
  return s;
}

// --- string similarity properties --------------------------------------------

using StringSimFn = double (*)(std::string_view, std::string_view);

// Each case prints as its name, so the test names are the same in every run;
// a bare function pointer would print as its (address-randomized) value.
struct StringSimCase {
  const char* name;
  StringSimFn fn;
};
void PrintTo(const StringSimCase& c, std::ostream* os) { *os << c.name; }

class StringSimProperty : public ::testing::TestWithParam<StringSimCase> {};

TEST_P(StringSimProperty, SymmetricBoundedAndReflexive) {
  StringSimFn f = GetParam().fn;
  Rng rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    std::string a = RandomString(&rng, 12);
    std::string b = RandomString(&rng, 12);
    double ab = f(a, b);
    double ba = f(b, a);
    EXPECT_NEAR(ab, ba, 1e-12) << "'" << a << "' vs '" << b << "'";
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_DOUBLE_EQ(f(a, a), 1.0) << "'" << a << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStringSims, StringSimProperty,
    ::testing::Values(StringSimCase{"Levenshtein", &LevenshteinSim},
                      StringSimCase{"Jaro", &JaroSim},
                      StringSimCase{"JaroWinkler", &JaroWinklerSim},
                      StringSimCase{"NeedlemanWunsch", &NeedlemanWunschSim},
                      StringSimCase{"SmithWaterman", &SmithWatermanSim},
                      StringSimCase{"SmithWatermanGotoh",
                                    &SmithWatermanGotohSim}));

TEST(LevenshteinProperty, TriangleInequality) {
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    std::string a = RandomString(&rng, 10);
    std::string b = RandomString(&rng, 10);
    std::string c = RandomString(&rng, 10);
    EXPECT_LE(LevenshteinDistance(a, c),
              LevenshteinDistance(a, b) + LevenshteinDistance(b, c));
  }
}

TEST(LevenshteinProperty, EditNeverFartherThanOne) {
  Rng rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    std::string a = RandomString(&rng, 12);
    if (a.empty()) continue;
    std::string b = ApplyTypo(a, &rng);
    EXPECT_LE(LevenshteinDistance(a, b), 2u)  // transpose costs <= 2
        << "'" << a << "' -> '" << b << "'";
  }
}

TEST(TokenizeProperty, WordTokensAreCleanAndOrdered) {
  Rng rng(23);
  Vocabulary vocab(200, 5);
  for (int trial = 0; trial < 200; ++trial) {
    std::string phrase;
    size_t n = 1 + rng.NextBelow(6);
    for (size_t i = 0; i < n; ++i) {
      if (i) phrase += rng.Bernoulli(0.3) ? ", " : " ";
      phrase += vocab.word(rng.NextBelow(vocab.size()));
    }
    auto tokens = WordTokens(phrase);
    EXPECT_EQ(tokens.size(), n);
    for (const auto& t : tokens) {
      EXPECT_FALSE(t.empty());
      for (char c : t) {
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
        EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c)));
      }
    }
  }
}

// --- rule algebra under NaN -----------------------------------------------------

FeatureVec RandomVec(Rng* rng, size_t n, double nan_prob) {
  FeatureVec fv(n);
  for (auto& v : fv) {
    v = rng->Bernoulli(nan_prob)
            ? std::numeric_limits<double>::quiet_NaN()
            : rng->NextDouble();
  }
  return fv;
}

Rule RandomRule(Rng* rng, int num_features) {
  Rule r;
  size_t preds = 1 + rng->NextBelow(3);
  for (size_t i = 0; i < preds; ++i) {
    int f = static_cast<int>(rng->NextBelow(num_features));
    r.predicates.push_back(Predicate{
        f, f, static_cast<PredOp>(rng->NextBelow(4)), rng->NextDouble()});
  }
  return r;
}

TEST(RuleAlgebraProperty, CnfEquivalentToSequenceUnderNaN) {
  Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    RuleSequence seq;
    size_t rules = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < rules; ++i) seq.rules.push_back(RandomRule(&rng, 4));
    CnfRule q = ToCnf(seq);
    for (int probe = 0; probe < 30; ++probe) {
      FeatureVec fv = RandomVec(&rng, 4, 0.15);
      EXPECT_EQ(q.Keeps(fv), !seq.Drops(fv));
    }
  }
}

TEST(RuleAlgebraProperty, SimplifyEquivalentUnderNaN) {
  Rng rng(37);
  for (int trial = 0; trial < 300; ++trial) {
    Rule r = RandomRule(&rng, 3);
    // Add redundant bounds on the same features.
    for (int extra = 0; extra < 3; ++extra) {
      int f = static_cast<int>(rng.NextBelow(3));
      r.predicates.push_back(Predicate{
          f, f, static_cast<PredOp>(rng.NextBelow(4)), rng.NextDouble()});
    }
    Rule s = SimplifyRule(r);
    EXPECT_LE(s.predicates.size(), r.predicates.size());
    for (int probe = 0; probe < 40; ++probe) {
      FeatureVec fv = RandomVec(&rng, 3, 0.15);
      EXPECT_EQ(r.Fires(fv), s.Fires(fv));
    }
  }
}

TEST(RuleAlgebraProperty, SequenceOrderIrrelevantToOutcome) {
  // Rule sequences drop iff ANY rule fires, so order never changes the
  // result set (only the run time — which is what select_opt_seq optimizes).
  Rng rng(41);
  for (int trial = 0; trial < 100; ++trial) {
    RuleSequence seq;
    for (int i = 0; i < 3; ++i) seq.rules.push_back(RandomRule(&rng, 4));
    RuleSequence reversed = seq;
    std::reverse(reversed.rules.begin(), reversed.rules.end());
    for (int probe = 0; probe < 30; ++probe) {
      FeatureVec fv = RandomVec(&rng, 4, 0.1);
      EXPECT_EQ(seq.Drops(fv), reversed.Drops(fv));
    }
  }
}

}  // namespace
}  // namespace falcon
