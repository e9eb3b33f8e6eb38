#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rules/serialize.h"
#include "workload/generator.h"

namespace falcon {
namespace {

struct SerializeFixture {
  GeneratedDataset data;
  FeatureSet fs;

  SerializeFixture() {
    WorkloadOptions opt;
    opt.size_a = 120;
    opt.size_b = 300;
    opt.seed = 5;
    data = GenerateProducts(opt);
    fs = FeatureSet::Generate(data.a, data.b);
  }

  RuleSequence MakeSequence() {
    int f0 = fs.blocking_ids()[0];
    int f1 = fs.blocking_ids()[1];
    RuleSequence seq;
    Rule r1;
    r1.predicates = {{0, f0, PredOp::kLe, 0.43210987}};
    r1.precision = 0.97;
    r1.coverage = 1234;
    r1.selectivity = 0.12;
    r1.time_per_pair = 3.5e-7;
    Rule r2;
    r2.predicates = {{0, f0, PredOp::kGt, 0.1},
                     {1, f1, PredOp::kLt, 2.5}};
    r2.precision = 0.99;
    seq.rules = {r1, r2};
    seq.selectivity = 0.08;
    return seq;
  }
};

TEST(SerializeRulesTest, RoundTripPreservesEverything) {
  SerializeFixture fx;
  RuleSequence seq = fx.MakeSequence();
  std::string text = SerializeRuleSequence(seq, fx.fs);
  auto back = ParseRuleSequence(text, fx.fs);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->rules.size(), seq.rules.size());
  EXPECT_DOUBLE_EQ(back->selectivity, seq.selectivity);
  for (size_t i = 0; i < seq.rules.size(); ++i) {
    EXPECT_EQ(CanonicalKey(back->rules[i]), CanonicalKey(seq.rules[i]));
    EXPECT_DOUBLE_EQ(back->rules[i].precision, seq.rules[i].precision);
    EXPECT_EQ(back->rules[i].coverage, seq.rules[i].coverage);
    EXPECT_DOUBLE_EQ(back->rules[i].time_per_pair,
                     seq.rules[i].time_per_pair);
    for (size_t p = 0; p < seq.rules[i].predicates.size(); ++p) {
      EXPECT_EQ(back->rules[i].predicates[p].feature_id,
                seq.rules[i].predicates[p].feature_id);
      EXPECT_EQ(back->rules[i].predicates[p].op,
                seq.rules[i].predicates[p].op);
      EXPECT_DOUBLE_EQ(back->rules[i].predicates[p].value,
                       seq.rules[i].predicates[p].value);
    }
  }
}

TEST(SerializeRulesTest, RejectsBadInput) {
  SerializeFixture fx;
  EXPECT_FALSE(ParseRuleSequence("", fx.fs).ok());
  EXPECT_FALSE(ParseRuleSequence("not-a-header\nend\n", fx.fs).ok());
  EXPECT_FALSE(
      ParseRuleSequence("falcon-rules v1\nseq selectivity 0.5\n", fx.fs)
          .ok());  // missing end
  EXPECT_FALSE(ParseRuleSequence(
                   "falcon-rules v1\npred bogus_feature 0 0.5\nend\n", fx.fs)
                   .ok());  // pred before rule
  auto r = ParseRuleSequence(
      "falcon-rules v1\n"
      "rule precision 0.9 coverage 10 selectivity 0.5 time 1e-6\n"
      "pred no_such_feature(x,y) 0 0.5\nend\n",
      fx.fs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);

  // Integer fields out of their range or not integers at all: each used to
  // go through a double and an unchecked cast.
  const std::string f0 = fx.fs.feature(fx.fs.blocking_ids()[0]).name;
  const std::vector<std::string> bodies = {
      "rule precision 0.9 coverage 1e30 selectivity 0.5 time 1e-6\n",
      "rule precision 0.9 coverage -5 selectivity 0.5 time 1e-6\n",
      "rule precision 0.9 coverage 2.5 selectivity 0.5 time 1e-6\n",
      "rule precision 0.9 coverage 10 selectivity 0.5 time 1e-6\n"
      "pred " + f0 + " 2.5 0.5\n",
  };
  for (const std::string& body : bodies) {
    SCOPED_TRACE(body);
    EXPECT_FALSE(
        ParseRuleSequence("falcon-rules v1\n" + body + "end\n", fx.fs).ok());
  }
}

TEST(SerializeForestTest, RoundTripPredictsIdentically) {
  SerializeFixture fx;
  // Train a real forest on blocking feature vectors.
  std::vector<FeatureVec> x;
  std::vector<char> y;
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    RowId a = static_cast<RowId>(rng.NextBelow(fx.data.a.num_rows()));
    RowId b = static_cast<RowId>(rng.NextBelow(fx.data.b.num_rows()));
    x.push_back(
        fx.fs.ComputeVector(fx.fs.blocking_ids(), fx.data.a, a, fx.data.b, b));
    y.push_back(fx.data.truth.IsMatch(a, b) ? 1 : 0);
  }
  auto forest = RandomForest::Train(x, y, ForestOptions{}, &rng);

  std::string text = SerializeForest(forest, fx.fs.blocking_ids(), fx.fs);
  std::vector<int> layout;
  auto back = ParseForest(text, fx.fs, &layout);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(layout, fx.fs.blocking_ids());
  EXPECT_EQ(back->num_trees(), forest.num_trees());
  for (const auto& fv : x) {
    EXPECT_EQ(back->Predict(fv), forest.Predict(fv));
    EXPECT_DOUBLE_EQ(back->PositiveFraction(fv),
                     forest.PositiveFraction(fv));
  }
}

TEST(SerializeForestTest, RoundTripPreservesExtractedRules) {
  SerializeFixture fx;
  std::vector<FeatureVec> x;
  std::vector<char> y;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    double v = rng.NextDouble();
    x.push_back({v, rng.NextDouble()});
    y.push_back(v > 0.5 ? 1 : 0);
  }
  auto forest = RandomForest::Train(x, y, ForestOptions{}, &rng);
  std::vector<int> ids = {fx.fs.blocking_ids()[0], fx.fs.blocking_ids()[1]};
  std::string text = SerializeForest(forest, ids, fx.fs);
  std::vector<int> layout;
  auto back = ParseForest(text, fx.fs, &layout);
  ASSERT_TRUE(back.ok());
  auto rules_orig = ExtractBlockingRules(forest, ids);
  auto rules_back = ExtractBlockingRules(*back, layout);
  ASSERT_EQ(rules_orig.size(), rules_back.size());
  for (size_t i = 0; i < rules_orig.size(); ++i) {
    EXPECT_EQ(CanonicalKey(rules_orig[i]), CanonicalKey(rules_back[i]));
  }
}

TEST(SerializeForestTest, RejectsCorruptForests) {
  SerializeFixture fx;
  std::vector<int> layout;
  EXPECT_FALSE(ParseForest("", fx.fs, &layout).ok());
  EXPECT_FALSE(ParseForest("falcon-forest v1\nfeatures 0\ntrees 1\n"
                           "tree 1\nleaf 1 1.0 5\n",
                           fx.fs, &layout)
                   .ok());  // missing end
  // Out-of-range child link.
  std::string bad =
      "falcon-forest v1\nfeatures 1\nf " + fx.fs.feature(0).name +
      "\ntrees 1\ntree 1\nsplit 0 0.5 1 3 4\nend\n";
  auto r = ParseForest(bad, fx.fs, &layout);
  ASSERT_FALSE(r.ok());

  // Hostile counts and fields. Counts must not size an allocation, integer
  // fields must be in range, and a split's children must come after it, so
  // no walk can cycle.
  const std::string header =
      "falcon-forest v1\nfeatures 1\nf " + fx.fs.feature(0).name + "\n";
  const std::string leaves = "leaf 1 1.0 5\nleaf 0 1.0 5\n";
  const std::vector<std::string> bodies = {
      "trees 1e17\n",
      "trees 100000000000000000\n",
      "trees 1\ntree 100000000000000000\n",
      "trees 1\ntree 2\nsplit 0 0.5 1 0 1\nleaf 1 1.0 5\n",  // self loop
      "trees 1\ntree 3\nsplit 0 0.5 1 1 2\nsplit 0 0.5 1 0 2\n"
      "leaf 1 1.0 5\n",  // back edge
      "trees 1\ntree 3\nsplit 0.5 0.5 1 1 2\n" + leaves,
      "trees 1\ntree 3\nsplit 0 0.5 7 1 2\n" + leaves,
      "trees 1\ntree 3\nsplit 0 0.5 1 1.5 2\n" + leaves,
      "trees 1\ntree 1\nleaf 2 1.0 5\n",
      "trees 1\ntree 1\nleaf 0.5 1.0 5\n",
      "trees 1\ntree 1\nleaf 1 1.0 4294967296\n",
      "trees 1\ntree 1\nleaf 1 1.0 -1\n",
  };
  for (const std::string& body : bodies) {
    SCOPED_TRACE(body);
    EXPECT_FALSE(ParseForest(header + body + "end\n", fx.fs, &layout).ok());
  }
}

// Missing-value splits are real in this codebase (set-similarity features
// are NaN when either side has no tokens), and a trained tree can place a
// non-finite threshold. "%.17g" of NaN is platform-dependent, so the format
// normalizes non-finite values to fixed tokens; round-trip must be exact.
TEST(SerializeForestTest, NonFiniteThresholdsRoundTrip) {
  SerializeFixture fx;
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();

  TreeNode split;  // NaN threshold: every comparison is false -> NaN path
  split.is_leaf = false;
  split.feature = 0;
  split.threshold = kNan;
  split.nan_goes_left = false;
  split.left = 1;
  split.right = 2;
  TreeNode yes, no;
  yes.prediction = true;
  yes.purity = 0.875;
  yes.support = 7;
  no.prediction = false;
  no.purity = 1.0;
  no.support = 3;
  TreeNode inf_split = split;
  inf_split.threshold = kInf;
  TreeNode ninf_split = split;
  ninf_split.threshold = -kInf;
  RandomForest forest({DecisionTree::FromNodes({split, yes, no}),
                       DecisionTree::FromNodes({inf_split, yes, no}),
                       DecisionTree::FromNodes({ninf_split, yes, no})});

  std::vector<int> ids = {fx.fs.blocking_ids()[0]};
  std::string text = SerializeForest(forest, ids, fx.fs);
  std::vector<int> layout;
  auto back = ParseForest(text, fx.fs, &layout);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_trees(), 3u);
  const auto& n0 = back->trees()[0].nodes()[0];
  EXPECT_TRUE(std::isnan(n0.threshold));
  EXPECT_FALSE(n0.nan_goes_left);
  EXPECT_EQ(back->trees()[1].nodes()[0].threshold, kInf);
  EXPECT_EQ(back->trees()[2].nodes()[0].threshold, -kInf);
  // Behavior is preserved on missing and present values alike.
  for (double v : {kNan, 0.0, 1.0, -5.0}) {
    FeatureVec fv = {v};
    EXPECT_EQ(back->Predict(fv), forest.Predict(fv)) << v;
  }
}

TEST(SerializeRulesTest, NonFinitePredicateValuesRoundTrip) {
  SerializeFixture fx;
  RuleSequence seq;
  Rule r;
  r.predicates = {{0, fx.fs.blocking_ids()[0], PredOp::kLe,
                   std::numeric_limits<double>::quiet_NaN()},
                  {1, fx.fs.blocking_ids()[1], PredOp::kGt,
                   -std::numeric_limits<double>::infinity()}};
  r.precision = 0.96;
  seq.rules = {r};
  std::string text = SerializeRuleSequence(seq, fx.fs);
  auto back = ParseRuleSequence(text, fx.fs);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->rules.size(), 1u);
  EXPECT_TRUE(std::isnan(back->rules[0].predicates[0].value));
  EXPECT_EQ(back->rules[0].predicates[1].value,
            -std::numeric_limits<double>::infinity());
}

TEST(SerializeForestTest, EmptyForestRoundTrips) {
  SerializeFixture fx;
  RandomForest empty;
  std::string text = SerializeForest(empty, {}, fx.fs);
  std::vector<int> layout;
  auto back = ParseForest(text, fx.fs, &layout);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_trees(), 0u);
  EXPECT_TRUE(layout.empty());
}

TEST(SerializeRulesTest, ZeroRuleSequenceRoundTrips) {
  SerializeFixture fx;
  RuleSequence seq;  // no rules (e.g. a matcher-only run)
  seq.selectivity = 1.0;
  std::string text = SerializeRuleSequence(seq, fx.fs);
  auto back = ParseRuleSequence(text, fx.fs);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->rules.empty());
  EXPECT_DOUBLE_EQ(back->selectivity, 1.0);
}

// The fused matching stage votes with the deserialized forest (a resumed
// run's matcher): its short-circuit vote must agree with the original
// forest's full vote after a round trip. The name is kept from the compiled
// forest copy this test used to check.
TEST(SerializeForestTest, FlatForestCompileAfterDeserializeIsEquivalent) {
  SerializeFixture fx;
  std::vector<FeatureVec> x;
  std::vector<char> y;
  Rng rng(13);
  for (int i = 0; i < 250; ++i) {
    RowId a = static_cast<RowId>(rng.NextBelow(fx.data.a.num_rows()));
    RowId b = static_cast<RowId>(rng.NextBelow(fx.data.b.num_rows()));
    x.push_back(fx.fs.ComputeVector(fx.fs.all_ids(), fx.data.a, a, fx.data.b,
                                    b));
    y.push_back(fx.data.truth.IsMatch(a, b) ? 1 : 0);
  }
  auto forest = RandomForest::Train(x, y, ForestOptions{}, &rng);
  std::string text = SerializeForest(forest, fx.fs.all_ids(), fx.fs);
  std::vector<int> layout;
  auto back = ParseForest(text, fx.fs, &layout);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  for (const auto& fv : x) {
    EXPECT_EQ(back->PredictWith([&fv](int pos) { return fv[pos]; }),
              forest.Predict(fv));
  }
}

}  // namespace
}  // namespace falcon
