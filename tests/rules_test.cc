#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rules/feature.h"
#include "rules/rule.h"
#include "table/table.h"
#include "workload/generator.h"

namespace falcon {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Predicate P(int pos, PredOp op, double v) {
  return Predicate{pos, pos, op, v};
}

// --- Predicate / Rule semantics ----------------------------------------------

TEST(PredicateTest, OpsAndNaN) {
  EXPECT_TRUE(P(0, PredOp::kLe, 0.5).Eval(0.5));
  EXPECT_FALSE(P(0, PredOp::kLt, 0.5).Eval(0.5));
  EXPECT_TRUE(P(0, PredOp::kGe, 0.5).Eval(0.5));
  EXPECT_FALSE(P(0, PredOp::kGt, 0.5).Eval(0.5));
  for (auto op : {PredOp::kLe, PredOp::kLt, PredOp::kGe, PredOp::kGt}) {
    EXPECT_FALSE(P(0, op, 0.5).Eval(kNaN));
  }
}

TEST(PredicateTest, ComplementInvolution) {
  for (auto op : {PredOp::kLe, PredOp::kLt, PredOp::kGe, PredOp::kGt}) {
    EXPECT_EQ(Complement(Complement(op)), op);
  }
  // Complement partitions the line: exactly one of p, p' holds on non-NaN.
  for (auto op : {PredOp::kLe, PredOp::kLt, PredOp::kGe, PredOp::kGt}) {
    for (double v : {0.3, 0.5, 0.7}) {
      Predicate p = P(0, op, 0.5);
      Predicate pc = p;
      pc.op = Complement(op);
      EXPECT_NE(p.Eval(v), pc.Eval(v)) << PredOpName(op) << " at " << v;
    }
  }
}

TEST(RuleTest, ConjunctionFires) {
  Rule r;
  r.predicates = {P(0, PredOp::kLe, 0.4), P(1, PredOp::kGt, 10.0)};
  EXPECT_TRUE(r.Fires({0.3, 15.0}));
  EXPECT_FALSE(r.Fires({0.5, 15.0}));
  EXPECT_FALSE(r.Fires({0.3, 5.0}));
  EXPECT_FALSE(r.Fires({kNaN, 15.0}));  // missing cannot prove a non-match
}

TEST(RuleTest, EmptyRuleNeverFires) {
  Rule r;
  EXPECT_FALSE(r.Fires({1.0}));
}

TEST(RuleSequenceTest, DropsIfAnyRuleFires) {
  Rule r1;
  r1.predicates = {P(0, PredOp::kLe, 0.4)};
  Rule r2;
  r2.predicates = {P(1, PredOp::kGt, 10.0)};
  RuleSequence seq;
  seq.rules = {r1, r2};
  EXPECT_TRUE(seq.Drops({0.3, 5.0}));
  EXPECT_TRUE(seq.Drops({0.9, 15.0}));
  EXPECT_FALSE(seq.Drops({0.9, 5.0}));
}

// --- CNF conversion -------------------------------------------------------------

TEST(CnfTest, KeepsIffSequenceDoesNotDrop) {
  Rng rng(31);
  Rule r1;
  r1.predicates = {P(0, PredOp::kLe, 0.4), P(1, PredOp::kGt, 0.7)};
  Rule r2;
  r2.predicates = {P(2, PredOp::kLt, 0.2)};
  RuleSequence seq;
  seq.rules = {r1, r2};
  CnfRule q = ToCnf(seq);
  ASSERT_EQ(q.clauses.size(), 2u);
  EXPECT_EQ(q.clauses[0].predicates.size(), 2u);
  for (int trial = 0; trial < 1000; ++trial) {
    FeatureVec fv = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    EXPECT_EQ(q.Keeps(fv), !seq.Drops(fv));
  }
}

TEST(CnfTest, MissingValueKeepsPair) {
  Rule r;
  r.predicates = {P(0, PredOp::kLe, 0.4)};
  RuleSequence seq;
  seq.rules = {r};
  CnfRule q = ToCnf(seq);
  EXPECT_TRUE(q.Keeps({kNaN}));
  EXPECT_FALSE(seq.Drops({kNaN}));
}

// --- Simplification -------------------------------------------------------------

TEST(SimplifyTest, FoldsRedundantBounds) {
  Rule r;
  r.predicates = {P(0, PredOp::kLt, 0.5), P(0, PredOp::kLt, 0.2),
                  P(0, PredOp::kGt, 0.05), P(1, PredOp::kGe, 3.0)};
  Rule s = SimplifyRule(r);
  // f0 keeps one upper (0.2) and one lower (0.05); f1 keeps its bound.
  EXPECT_EQ(s.predicates.size(), 3u);
  Rng rng(7);
  for (int trial = 0; trial < 1000; ++trial) {
    FeatureVec fv = {rng.NextDouble(), rng.NextDouble() * 6.0};
    EXPECT_EQ(r.Fires(fv), s.Fires(fv));
  }
}

TEST(SimplifyTest, StrictBeatsNonStrictAtEqualValue) {
  Rule r;
  r.predicates = {P(0, PredOp::kLe, 0.5), P(0, PredOp::kLt, 0.5)};
  Rule s = SimplifyRule(r);
  ASSERT_EQ(s.predicates.size(), 1u);
  EXPECT_EQ(s.predicates[0].op, PredOp::kLt);
}

TEST(SimplifyTest, PreservesMetadata) {
  Rule r;
  r.precision = 0.97;
  r.coverage = 123;
  r.selectivity = 0.8;
  r.time_per_pair = 1e-6;
  r.predicates = {P(0, PredOp::kLe, 0.4)};
  Rule s = SimplifyRule(r);
  EXPECT_DOUBLE_EQ(s.precision, 0.97);
  EXPECT_EQ(s.coverage, 123u);
}

// SelectApplyMethod's rule 1 reads the simplified sequence's selectivity.
TEST(SimplifyTest, SequenceKeepsSelectivity) {
  RuleSequence seq;
  Rule r;
  r.predicates = {P(0, PredOp::kLe, 0.4), P(0, PredOp::kLe, 0.3)};
  r.selectivity = 0.5;
  seq.rules = {r, r};
  seq.selectivity = 0.01;
  RuleSequence s = SimplifySequence(seq);
  EXPECT_DOUBLE_EQ(s.selectivity, 0.01);
  ASSERT_EQ(s.rules.size(), 2u);
  EXPECT_EQ(s.rules[0].predicates.size(), 1u);
  EXPECT_DOUBLE_EQ(s.rules[0].selectivity, 0.5);
}

// --- CanonicalKey ----------------------------------------------------------------

TEST(CanonicalKeyTest, OrderIndependent) {
  Rule r1;
  r1.predicates = {P(0, PredOp::kLe, 0.4), P(1, PredOp::kGt, 0.7)};
  Rule r2;
  r2.predicates = {P(1, PredOp::kGt, 0.7), P(0, PredOp::kLe, 0.4)};
  EXPECT_EQ(CanonicalKey(r1), CanonicalKey(r2));
  Rule r3;
  r3.predicates = {P(0, PredOp::kLe, 0.41), P(1, PredOp::kGt, 0.7)};
  EXPECT_NE(CanonicalKey(r1), CanonicalKey(r3));
}

// --- Rule extraction ---------------------------------------------------------------

TEST(ExtractTest, PathsToNoLeavesBecomeRules) {
  // Train a forest on data where "f0 <= 0.5 -> negative" is learnable.
  Rng rng(3);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  for (int i = 0; i < 400; ++i) {
    double v = rng.NextDouble();
    x.push_back({v});
    y.push_back(v > 0.5 ? 1 : 0);
  }
  auto forest = RandomForest::Train(x, y, ForestOptions{}, &rng);
  std::vector<int> ids = {7};  // global feature id of position 0
  auto rules = ExtractBlockingRules(forest, ids);
  ASSERT_FALSE(rules.empty());
  for (const auto& r : rules) {
    ASSERT_FALSE(r.predicates.empty());
    EXPECT_EQ(r.predicates[0].feature_id, 7);
    // Every extracted rule must actually classify some region negative:
    // it fires on the all-low vector.
    (void)r;
  }
  // The dominant rule is roughly "f0 <= ~0.5": firing on 0.1, not on 0.9.
  size_t firing_low = 0;
  size_t firing_high = 0;
  for (const auto& r : rules) {
    if (r.Fires({0.1})) ++firing_low;
    if (r.Fires({0.9})) ++firing_high;
  }
  EXPECT_GT(firing_low, 0u);
  EXPECT_EQ(firing_high, 0u);
}

TEST(ExtractTest, RulesAreDeduplicated) {
  Rng rng(3);
  std::vector<FeatureVec> x;
  std::vector<char> y;
  for (int i = 0; i < 200; ++i) {
    double v = rng.NextDouble();
    x.push_back({v});
    y.push_back(v > 0.5 ? 1 : 0);
  }
  auto forest = RandomForest::Train(x, y, ForestOptions{}, &rng);
  auto rules = ExtractBlockingRules(forest, {0});
  std::set<std::string> keys;
  for (const auto& r : rules) keys.insert(CanonicalKey(r));
  EXPECT_EQ(keys.size(), rules.size());
}

// --- Feature generation -------------------------------------------------------------

TEST(FeatureGenTest, ProductsSchemaFeatures) {
  WorkloadOptions opt;
  opt.size_a = 200;
  opt.size_b = 400;
  auto data = GenerateProducts(opt);
  auto fs = FeatureSet::Generate(data.a, data.b);
  EXPECT_GT(fs.size(), 10u);
  EXPECT_GT(fs.blocking_ids().size(), 5u);
  EXPECT_GT(fs.all_ids().size(), fs.blocking_ids().size());
  // Numeric attribute price must yield abs_diff/rel_diff features.
  bool has_absdiff = false;
  bool has_jaccard_title = false;
  for (const auto& f : fs.features()) {
    if (f.fn == SimFunction::kAbsDiff) has_absdiff = true;
    if (f.fn == SimFunction::kJaccard &&
        f.name.find("title") != std::string::npos) {
      has_jaccard_title = true;
    }
    if (!f.usable_for_blocking) {
      EXPECT_FALSE(UsableForBlocking(f.fn)) << f.name;
    }
  }
  EXPECT_TRUE(has_absdiff);
  EXPECT_TRUE(has_jaccard_title);
}

TEST(FeatureGenTest, ComputeHandlesMissing) {
  Schema schema({{"name", AttrType::kString}});
  Table a(schema);
  Table b(schema);
  ASSERT_TRUE(a.AppendRow({"widget"}).ok());
  ASSERT_TRUE(b.AppendRow({""}).ok());
  ASSERT_TRUE(b.AppendRow({"widget"}).ok());
  auto fs = FeatureSet::Generate(a, b);
  ASSERT_GT(fs.size(), 0u);
  EXPECT_TRUE(std::isnan(fs.Compute(0, a, 0, b, 0)));
  // Identical values give maximal similarity on every feature.
  for (int id : fs.all_ids()) {
    double v = fs.Compute(id, a, 0, b, 1);
    EXPECT_FALSE(std::isnan(v)) << fs.feature(id).name;
  }
}

TEST(FeatureGenTest, VectorLayoutFollowsIds) {
  WorkloadOptions opt;
  opt.size_a = 50;
  opt.size_b = 50;
  auto data = GenerateProducts(opt);
  auto fs = FeatureSet::Generate(data.a, data.b);
  auto fv = fs.ComputeVector(fs.blocking_ids(), data.a, 0, data.b, 0);
  ASSERT_EQ(fv.size(), fs.blocking_ids().size());
  for (size_t i = 0; i < fv.size(); ++i) {
    double direct = fs.Compute(fs.blocking_ids()[i], data.a, 0, data.b, 0);
    if (std::isnan(direct)) {
      EXPECT_TRUE(std::isnan(fv[i]));
    } else {
      EXPECT_DOUBLE_EQ(fv[i], direct);
    }
  }
}

TEST(FeatureGenTest, MatcherOnlyFlagExcludesSlowFunctions) {
  WorkloadOptions opt;
  opt.size_a = 50;
  opt.size_b = 50;
  auto data = GenerateProducts(opt);
  FeatureGenOptions gen;
  gen.include_matcher_only = false;
  auto fs = FeatureSet::Generate(data.a, data.b, gen);
  for (const auto& f : fs.features()) {
    EXPECT_TRUE(f.usable_for_blocking) << f.name;
  }
}

}  // namespace
}  // namespace falcon
