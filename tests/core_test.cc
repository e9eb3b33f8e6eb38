#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/al_matcher.h"
#include "core/eval_rules.h"
#include "core/gen_fvs.h"
#include "core/get_rules.h"
#include "core/sample_pairs.h"
#include "core/select_opt_seq.h"
#include "workload/generator.h"

namespace falcon {
namespace {

ClusterConfig FastCluster() {
  ClusterConfig c;
  c.job_startup = VDuration::Seconds(0.5);
  c.task_overhead = VDuration::Seconds(0.01);
  return c;
}

GeneratedDataset SmallProducts(uint64_t seed = 3) {
  WorkloadOptions opt;
  opt.size_a = 200;
  opt.size_b = 500;
  opt.seed = seed;
  return GenerateProducts(opt);
}

// --- sample_pairs ------------------------------------------------------------

TEST(SamplePairsTest, SizeAndValidity) {
  auto d = SmallProducts();
  Cluster cluster(FastCluster());
  Rng rng(1);
  auto r = SamplePairs(d.a, d.b, 5000, 50, &cluster, &rng);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->pairs.size(), 4000u);
  EXPECT_LE(r->pairs.size(), 5500u);
  for (auto [a, b] : r->pairs) {
    EXPECT_LT(a, d.a.num_rows());
    EXPECT_LT(b, d.b.num_rows());
  }
  EXPECT_GT(r->time.seconds, 0.0);
}

TEST(SamplePairsTest, ContainsSubstantiallyMoreMatchesThanRandom) {
  auto d = SmallProducts();
  Cluster cluster(FastCluster());
  Rng rng(1);
  auto r = SamplePairs(d.a, d.b, 5000, 50, &cluster, &rng);
  ASSERT_TRUE(r.ok());
  size_t matches = 0;
  for (auto [a, b] : r->pairs) matches += d.truth.IsMatch(a, b) ? 1 : 0;
  // Random sampling expectation: |truth| / (|A|*|B|) * n ~= 5000 * 1.2e-3.
  double random_expectation = static_cast<double>(d.truth.size()) /
                              (d.a.num_rows() * d.b.num_rows()) *
                              static_cast<double>(r->pairs.size());
  EXPECT_GT(static_cast<double>(matches), 3.0 * random_expectation)
      << "matches=" << matches << " random=" << random_expectation;
}

TEST(SamplePairsTest, NoDuplicatePairsPerBTuple) {
  auto d = SmallProducts();
  Cluster cluster(FastCluster());
  Rng rng(1);
  auto r = SamplePairs(d.a, d.b, 2000, 40, &cluster, &rng);
  ASSERT_TRUE(r.ok());
  std::set<uint64_t> seen;
  for (auto [a, b] : r->pairs) {
    uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    EXPECT_TRUE(seen.insert(key).second) << "duplicate pair " << a << "," << b;
  }
}

TEST(SamplePairsTest, RejectsEmptyTables) {
  Table empty(Schema({{"x", AttrType::kString}}));
  auto d = SmallProducts();
  Cluster cluster(FastCluster());
  Rng rng(1);
  EXPECT_FALSE(SamplePairs(empty, d.b, 100, 10, &cluster, &rng).ok());
  EXPECT_FALSE(SamplePairs(d.a, d.b, 100, 1, &cluster, &rng).ok());
}

// --- al_matcher ----------------------------------------------------------------

struct AlFixture {
  GeneratedDataset data = SmallProducts();
  FeatureSet fs;
  std::vector<PairQuestion> pairs;
  std::vector<FeatureVec> fvs;
  Cluster cluster{FastCluster()};

  AlFixture() {
    fs = FeatureSet::Generate(data.a, data.b);
    Rng rng(2);
    auto sample = SamplePairs(data.a, data.b, 4000, 50, &cluster, &rng);
    pairs = sample->pairs;
    fvs = GenFvs(data.a, data.b, pairs, fs, fs.blocking_ids(), &cluster).fvs;
  }
};

TEST(AlMatcherTest, LearnsAUsefulBlockerModel) {
  AlFixture fx;
  SimulatedCrowdConfig ccfg;
  ccfg.error_rate = 0.0;
  SimulatedCrowd crowd(ccfg, fx.data.truth.MakeOracle());
  AlMatcherOptions opts;
  opts.max_iterations = 12;
  Rng rng(3);
  auto r = AlMatcher(fx.fvs, fx.pairs, &crowd, opts, &fx.cluster, &rng);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LE(r->iterations, 12);
  EXPECT_GE(r->labeled_indices.size(), 20u);
  EXPECT_EQ(r->labeled_indices.size(), r->labels.size());
  EXPECT_GT(r->crowd_time.seconds, 0.0);
  // Must have found at least a few positives via active learning.
  size_t pos = 0;
  for (char l : r->labels) pos += l ? 1 : 0;
  EXPECT_GT(pos, 2u);
  // The learned committee separates matched from unmatched sample pairs
  // better than chance.
  size_t correct = 0;
  size_t total = 0;
  for (size_t i = 0; i < fx.pairs.size(); i += 7) {
    bool truth = fx.data.truth.IsMatch(fx.pairs[i].first, fx.pairs[i].second);
    correct += r->matcher.Predict(fx.fvs[i]) == truth;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(AlMatcherTest, IterationCapBoundsQuestions) {
  AlFixture fx;
  SimulatedCrowdConfig ccfg;
  SimulatedCrowd crowd(ccfg, fx.data.truth.MakeOracle());
  AlMatcherOptions opts;
  opts.max_iterations = 5;
  opts.convergence_threshold = -1.0;  // never converge
  Rng rng(3);
  auto r = AlMatcher(fx.fvs, fx.pairs, &crowd, opts, &fx.cluster, &rng);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->iterations, 5);
  EXPECT_LE(r->questions, 5u * 20u);
}

TEST(AlMatcherTest, MaskedSelectionHidesSelectionTime) {
  AlFixture fx;
  AlMatcherOptions opts;
  opts.max_iterations = 8;
  opts.convergence_threshold = -1.0;
  for (bool masked : {false, true}) {
    SimulatedCrowdConfig ccfg;
    ccfg.error_rate = 0.0;
    SimulatedCrowd crowd(ccfg, fx.data.truth.MakeOracle());
    opts.mask_pair_selection = masked;
    Rng rng(3);
    auto r = AlMatcher(fx.fvs, fx.pairs, &crowd, opts, &fx.cluster, &rng);
    ASSERT_TRUE(r.ok());
    if (masked) {
      EXPECT_LT(r->selection_unmasked.seconds, r->selection_time.seconds);
    } else {
      EXPECT_DOUBLE_EQ(r->selection_unmasked.seconds,
                       r->selection_time.seconds);
    }
  }
}

// --- eval_rules -------------------------------------------------------------------

TEST(ZValueTest, KnownQuantiles) {
  EXPECT_NEAR(ZValue(0.95), 1.95996, 1e-4);
  EXPECT_NEAR(ZValue(0.90), 1.64485, 1e-4);
  EXPECT_NEAR(ZValue(0.99), 2.57583, 1e-4);
}

TEST(EvalRulesTest, RetainsPreciseDropsImprecise) {
  // Synthetic setup: 2000 sample pairs; truth = (index % 10 == 0).
  std::vector<PairQuestion> pairs;
  for (uint32_t i = 0; i < 2000; ++i) pairs.emplace_back(i, i);
  auto oracle = [](RowId a, RowId) { return a % 10 == 0; };
  SimulatedCrowdConfig ccfg;
  ccfg.error_rate = 0.0;
  SimulatedCrowd crowd(ccfg, oracle);

  // Precise rule: covers only non-matches (indices not divisible by 10).
  Rule precise;
  precise.predicates = {{0, 0, PredOp::kLe, 1.0}};
  Bitmap cov_precise(2000);
  for (uint32_t i = 0; i < 2000; ++i) {
    if (i % 10 != 0) cov_precise.Set(i);
  }
  precise.coverage = cov_precise.Count();
  // Imprecise rule: covers many matches (every 2nd index).
  Rule imprecise;
  imprecise.predicates = {{0, 0, PredOp::kGt, 0.0}};
  Bitmap cov_imprecise(2000);
  for (uint32_t i = 0; i < 2000; i += 2) cov_imprecise.Set(i);
  imprecise.coverage = cov_imprecise.Count();

  Rng rng(4);
  auto r = EvalRules({precise, imprecise}, {cov_precise, cov_imprecise},
                     pairs, &crowd, EvalRulesOptions{}, &rng);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->retained.size(), 1u);
  EXPECT_EQ(CanonicalKey(r->retained[0]), CanonicalKey(precise));
  EXPECT_GE(r->retained[0].precision, 0.95);
  EXPECT_GT(r->questions, 0u);
  EXPECT_GT(r->crowd_time.seconds, 0.0);
}

TEST(EvalRulesTest, IterationCapRespected) {
  std::vector<PairQuestion> pairs;
  for (uint32_t i = 0; i < 10000; ++i) pairs.emplace_back(i, i);
  // Borderline rule: ~95% precision keeps the margin wide for a while.
  auto oracle = [](RowId a, RowId) { return a % 20 == 0; };
  SimulatedCrowdConfig ccfg;
  ccfg.error_rate = 0.0;
  SimulatedCrowd crowd(ccfg, oracle);
  Rule rule;
  rule.predicates = {{0, 0, PredOp::kLe, 1.0}};
  Bitmap cov(10000);
  for (uint32_t i = 0; i < 10000; ++i) cov.Set(i);
  rule.coverage = cov.Count();
  EvalRulesOptions opts;
  opts.max_iterations_per_rule = 3;
  Rng rng(4);
  auto r = EvalRules({rule}, {cov}, pairs, &crowd, opts, &rng);
  ASSERT_TRUE(r.ok());
  // <= 3 iterations x 20 pairs.
  EXPECT_LE(r->questions, 60u);
}

TEST(EvalRulesTest, Proposition2BoundHolds) {
  // With eps_max=0.05 and delta=0.95, n >= ~384 labels guarantee a decision:
  // 20 iterations of 20 pairs suffice even with the cap lifted.
  std::vector<PairQuestion> pairs;
  for (uint32_t i = 0; i < 100000; ++i) pairs.emplace_back(i, i);
  auto oracle = [](RowId a, RowId) { return a % 25 == 0; };  // P ~= 0.96
  SimulatedCrowdConfig ccfg;
  ccfg.error_rate = 0.0;
  SimulatedCrowd crowd(ccfg, oracle);
  Rule rule;
  rule.predicates = {{0, 0, PredOp::kLe, 1.0}};
  Bitmap cov(100000);
  for (uint32_t i = 0; i < 100000; ++i) cov.Set(i);
  rule.coverage = cov.Count();
  EvalRulesOptions opts;
  opts.max_iterations_per_rule = 1000;  // effectively uncapped
  Rng rng(4);
  auto r = EvalRules({rule}, {cov}, pairs, &crowd, opts, &rng);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->questions, 20u * 20u);  // Proposition 2
}

// --- select_opt_seq ------------------------------------------------------------------

struct SeqFixture {
  std::vector<Rule> rules;
  std::vector<Bitmap> coverage;
  const size_t n = 1000;

  // Three rules: cheap+strong, expensive+strong (correlated with first),
  // cheap+weak.
  SeqFixture() {
    auto make = [&](double frac, double time, uint32_t offset) {
      Rule r;
      // Distinct thresholds keep CanonicalKey distinct per rule.
      r.predicates = {{0, 0, PredOp::kLe,
                       0.1 + 0.1 * static_cast<double>(rules.size())}};
      Bitmap cov(n);
      for (uint32_t i = offset; i < frac * n + offset && i < n; ++i) {
        cov.Set(i);
      }
      r.coverage = cov.Count();
      r.selectivity = 1.0 - static_cast<double>(r.coverage) / n;
      r.time_per_pair = time;
      r.precision = 0.99;
      rules.push_back(r);
      coverage.push_back(std::move(cov));
    };
    make(0.80, 1e-6, 0);    // R0: drops 80%, cheap
    make(0.80, 9e-6, 100);  // R1: drops 80% (mostly same pairs), expensive
    make(0.10, 1e-6, 850);  // R2: drops a disjoint 10%
  }
};

TEST(SelectOptSeqTest, GreedyPutsCheapStrongRuleFirst) {
  SeqFixture fx;
  auto order = GreedyOrder(fx.rules, fx.coverage, fx.n);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0u);  // cheap + strong wins the first slot
}

TEST(SelectOptSeqTest, PicksHighScoreSequence) {
  SeqFixture fx;
  auto r = SelectOptSeq(fx.rules, fx.coverage, fx.n, SelectSeqOptions{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->sequence.rules.empty());
  // The selected sequence should cover R0's pairs (cheap, strong).
  EXPECT_LE(r->sequence.selectivity, 0.25);
  EXPECT_GT(r->precision_bound, 0.9);
  EXPECT_GT(r->score, 0.0);
  // Expensive correlated R1 adds nothing: greedy orders it last if chosen.
  if (r->sequence.rules.size() > 1) {
    EXPECT_NE(CanonicalKey(r->sequence.rules[0]),
              CanonicalKey(fx.rules[1]));
  }
}

TEST(SelectOptSeqTest, SequenceSelectivityMatchesBitmapUnion) {
  SeqFixture fx;
  auto r = SelectOptSeq(fx.rules, fx.coverage, fx.n, SelectSeqOptions{});
  ASSERT_TRUE(r.ok());
  // Recompute union of the selected rules' coverages.
  Bitmap acc(fx.n);
  for (const auto& rule : r->sequence.rules) {
    for (size_t i = 0; i < fx.rules.size(); ++i) {
      if (CanonicalKey(fx.rules[i]) == CanonicalKey(rule) &&
          fx.rules[i].time_per_pair == rule.time_per_pair) {
        acc.OrWith(fx.coverage[i]);
      }
    }
  }
  double sel = 1.0 - static_cast<double>(acc.Count()) / fx.n;
  EXPECT_NEAR(r->sequence.selectivity, sel, 0.02);
}

TEST(SelectOptSeqTest, EmptyRulesRejected) {
  auto r = SelectOptSeq({}, {}, 100, SelectSeqOptions{});
  EXPECT_FALSE(r.ok());
}

// --- get_blocking_rules ---------------------------------------------------------------

TEST(GetRulesTest, ProducesRankedRulesWithMetadata) {
  AlFixture fx;
  SimulatedCrowdConfig ccfg;
  ccfg.error_rate = 0.0;
  SimulatedCrowd crowd(ccfg, fx.data.truth.MakeOracle());
  AlMatcherOptions opts;
  opts.max_iterations = 10;
  Rng rng(3);
  auto al = AlMatcher(fx.fvs, fx.pairs, &crowd, opts, &fx.cluster, &rng);
  ASSERT_TRUE(al.ok());
  auto cands = GetBlockingRules(al->matcher, fx.fs.blocking_ids(), fx.fs,
                                fx.fvs,
                                al->labeled_indices, al->labels,
                                GetRulesOptions{}, &fx.cluster);
  ASSERT_FALSE(cands.rules.empty());
  EXPECT_LE(cands.rules.size(), 20u);
  EXPECT_EQ(cands.rules.size(), cands.coverage.size());
  for (size_t i = 0; i < cands.rules.size(); ++i) {
    const Rule& r = cands.rules[i];
    EXPECT_EQ(r.coverage, cands.coverage[i].Count());
    EXPECT_GE(r.coverage,
              static_cast<size_t>(0.005 * fx.fvs.size()));
    EXPECT_GT(r.time_per_pair, 0.0);
    EXPECT_GE(r.selectivity, 0.0);
    EXPECT_LE(r.selectivity, 1.0);
    // Every predicate must reference a blocking-usable feature.
    for (const auto& p : r.predicates) {
      EXPECT_TRUE(fx.fs.feature(p.feature_id).usable_for_blocking);
    }
  }
}

}  // namespace
}  // namespace falcon
