// Property tests for the filter/probing layer: filters are NECESSARY
// conditions, so for any predicate p and any B-row b, the candidate set
// returned by ProbePredicate must contain every A-row a for which p(a, b)
// holds. Violations are silent recall loss — the worst failure mode a
// blocking system can have.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "blocking/apply.h"
#include "blocking/filters.h"
#include "blocking/index_builder.h"
#include "mapreduce/cluster.h"
#include "workload/generator.h"

namespace falcon {
namespace {

struct ProbeFixture {
  GeneratedDataset data;
  FeatureSet fs;
  Cluster cluster{ClusterConfig{}};
  IndexCatalog catalog;

  ProbeFixture() {
    WorkloadOptions opt;
    opt.size_a = 220;
    opt.size_b = 150;
    opt.seed = 9;
    opt.missing_rate = 0.06;  // stress the missing-value paths
    data = GenerateProducts(opt);
    fs = FeatureSet::Generate(data.a, data.b);
  }

  /// Finds a blocking feature by function (+ tokenization) and attribute.
  int FindFeature(SimFunction fn, const char* attr,
                  Tokenization tok = Tokenization::kWord) {
    for (const auto& f : fs.features()) {
      if (f.fn == fn && f.name.find(attr) != std::string::npos &&
          (!IsSetBased(fn) || f.tok == tok)) {
        return f.id;
      }
    }
    return -1;
  }

  void EnsureIndexFor(const Predicate& pred) {
    IndexBuilder builder(&data.a, &cluster);
    IndexNeed need = ClassifyPredicate(pred, fs);
    ASSERT_NE(need.kind, IndexKind::kNone);
    builder.EnsureTokenStores(data.b, fs, &catalog);
    builder.Ensure({need}, &catalog);
  }

  /// Checks the necessary-condition property over every B row.
  void CheckSoundness(const Predicate& pred) {
    ClauseProber prober(&catalog, &fs, data.a.num_rows());
    size_t filtered_total = 0;
    size_t probes = 0;
    for (RowId b = 0; b < data.b.num_rows(); ++b) {
      CandidateSet cand = prober.ProbePredicate(pred, data.b, b);
      if (cand.all) continue;  // trivially sound
      ++probes;
      filtered_total += data.a.num_rows() - cand.rows.size();
      std::set<RowId> set(cand.rows.begin(), cand.rows.end());
      for (RowId a = 0; a < data.a.num_rows(); ++a) {
        double v = fs.Compute(pred.feature_id, data.a, a, data.b, b);
        bool holds = pred.Eval(v) || std::isnan(v);
        if (holds) {
          ASSERT_TRUE(set.count(a))
              << "filter dropped a satisfying pair: a=" << a << " b=" << b
              << " feature=" << fs.feature(pred.feature_id).name
              << " value=" << v;
        }
      }
    }
    // The filter must actually prune (otherwise the test is vacuous).
    EXPECT_GT(probes, 0u);
    EXPECT_GT(filtered_total, 0u);
  }
};

TEST(FilterSoundnessE2E, JaccardWordPrefix) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kJaccard, "(title,title)");
  ASSERT_GE(f, 0);
  for (double t : {0.3, 0.5, 0.8}) {
    Predicate pred{f, f, PredOp::kGt, t};
    fx.EnsureIndexFor(pred);
    fx.CheckSoundness(pred);
  }
}

TEST(FilterSoundnessE2E, Jaccard3gram) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kJaccard, "(brand,brand)",
                         Tokenization::kQgram3);
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGe, 0.6};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, DiceWord) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kDice, "(title,title)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGt, 0.5};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, CosineWord) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kCosine, "(title,title)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGe, 0.45};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, OverlapWord) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kOverlap, "(title,title)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGt, 0.6};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, Levenshtein3gram) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kLevenshtein, "(brand,brand)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGe, 0.7};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, ExactMatchHash) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kExactMatch, "(brand,brand)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGt, 0.5};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, AbsDiffRange) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kAbsDiff, "(price,price)");
  ASSERT_GE(f, 0);
  for (double t : {5.0, 50.0}) {
    Predicate pred{f, f, PredOp::kLe, t};
    fx.EnsureIndexFor(pred);
    fx.CheckSoundness(pred);
  }
}

TEST(FilterSoundnessE2E, RelDiffRange) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kRelDiff, "(price,price)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kLt, 0.1};
  fx.EnsureIndexFor(pred);
  fx.CheckSoundness(pred);
}

TEST(FilterSoundnessE2E, MissingBValueYieldsAll) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kExactMatch, "(brand,brand)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGt, 0.5};
  fx.EnsureIndexFor(pred);
  ClauseProber prober(&fx.catalog, &fx.fs, fx.data.a.num_rows());
  int col_b = fx.fs.feature(f).col_b;
  bool saw_missing = false;
  for (RowId b = 0; b < fx.data.b.num_rows(); ++b) {
    if (!fx.data.b.IsMissing(b, col_b)) continue;
    saw_missing = true;
    CandidateSet cand = prober.ProbePredicate(pred, fx.data.b, b);
    EXPECT_TRUE(cand.all) << "missing B value must not filter";
  }
  EXPECT_TRUE(saw_missing) << "fixture should contain missing brands";
}

TEST(FilterSoundnessE2E, MissingAValuesAlwaysCandidates) {
  ProbeFixture fx;
  int f = fx.FindFeature(SimFunction::kExactMatch, "(brand,brand)");
  ASSERT_GE(f, 0);
  Predicate pred{f, f, PredOp::kGt, 0.5};
  fx.EnsureIndexFor(pred);
  ClauseProber prober(&fx.catalog, &fx.fs, fx.data.a.num_rows());
  int col_a = fx.fs.feature(f).col_a;
  std::vector<RowId> missing_a;
  for (RowId a = 0; a < fx.data.a.num_rows(); ++a) {
    if (fx.data.a.IsMissing(a, col_a)) missing_a.push_back(a);
  }
  ASSERT_FALSE(missing_a.empty());
  for (RowId b = 0; b < std::min<RowId>(fx.data.b.num_rows(), 20); ++b) {
    CandidateSet cand = prober.ProbePredicate(pred, fx.data.b, b);
    if (cand.all) continue;
    std::set<RowId> set(cand.rows.begin(), cand.rows.end());
    for (RowId a : missing_a) {
      EXPECT_TRUE(set.count(a))
          << "A-row with missing value must stay a candidate";
    }
  }
}

// Second operator-equivalence sweep with a rule sequence exercising the
// remaining filter paths: dice_3gram, cosine_word, overlap_word,
// levenshtein, rel_diff.
TEST(ApplyEquivalenceWideRules, AllOperatorsMatchBruteForce) {
  WorkloadOptions opt;
  opt.size_a = 180;
  opt.size_b = 420;
  opt.seed = 17;
  opt.missing_rate = 0.05;
  auto data = GenerateProducts(opt);
  auto fs = FeatureSet::Generate(data.a, data.b);

  auto find = [&](SimFunction fn, const char* attr, Tokenization tok) {
    for (const auto& f : fs.features()) {
      if (f.fn == fn && f.name.find(attr) != std::string::npos &&
          (!IsSetBased(fn) || f.tok == tok)) {
        return f.id;
      }
    }
    return -1;
  };
  int dice3 = find(SimFunction::kDice, "(brand,brand)",
                   Tokenization::kQgram3);
  int cos = find(SimFunction::kCosine, "(title,title)", Tokenization::kWord);
  int ovl = find(SimFunction::kOverlap, "(descr,descr)",
                 Tokenization::kWord);
  int lev = find(SimFunction::kLevenshtein, "(modelno,modelno)",
                 Tokenization::kQgram3);
  int rel = find(SimFunction::kRelDiff, "(price,price)",
                 Tokenization::kWord);
  ASSERT_GE(dice3, 0);
  ASSERT_GE(cos, 0);
  ASSERT_GE(ovl, 0);
  ASSERT_GE(lev, 0);
  ASSERT_GE(rel, 0);

  RuleSequence seq;
  {
    Rule r;  // weak brand similarity AND prices far apart (relatively)
    r.predicates = {{dice3, dice3, PredOp::kLt, 0.55},
                    {rel, rel, PredOp::kGe, 0.08}};
    r.selectivity = 0.2;
    seq.rules.push_back(r);
  }
  {
    Rule r;  // dissimilar titles AND dissimilar descriptions
    r.predicates = {{cos, cos, PredOp::kLe, 0.5},
                    {ovl, ovl, PredOp::kLe, 0.6}};
    r.selectivity = 0.1;
    seq.rules.push_back(r);
  }
  {
    Rule r;  // model numbers not even close
    r.predicates = {{lev, lev, PredOp::kLt, 0.6}};
    r.selectivity = 0.3;
    seq.rules.push_back(r);
  }
  seq.selectivity = 0.05;

  Cluster cluster{ClusterConfig{}};
  IndexCatalog catalog;
  IndexBuilder builder(&data.a, &cluster);
  builder.EnsureTokenStores(data.b, fs, &catalog);
  builder.Ensure(IndexBuilder::NeedsOfCnf(ToCnf(seq), fs), &catalog);

  RuleApplier applier(seq, &fs, &data.a, &data.b);
  std::set<uint64_t> expected;
  for (RowId a = 0; a < data.a.num_rows(); ++a) {
    for (RowId b = 0; b < data.b.num_rows(); ++b) {
      if (applier.Keep(a, b)) {
        expected.insert((static_cast<uint64_t>(a) << 32) | b);
      }
    }
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), data.a.num_rows() * data.b.num_rows());

  for (ApplyMethod m :
       {ApplyMethod::kApplyAll, ApplyMethod::kApplyGreedy,
        ApplyMethod::kApplyConjunct, ApplyMethod::kApplyPredicate,
        ApplyMethod::kMapSide, ApplyMethod::kReduceSplit}) {
    auto res = ApplyBlockingRules(data.a, data.b, seq, fs, catalog,
                                  &cluster, m);
    ASSERT_TRUE(res.ok()) << ApplyMethodName(m) << ": "
                          << res.status().ToString();
    std::set<uint64_t> got;
    for (auto [a, b] : res->pairs) {
      got.insert((static_cast<uint64_t>(a) << 32) | b);
    }
    EXPECT_EQ(got, expected) << ApplyMethodName(m);
  }
}

// --- Dictionary-encoded path equivalence ---------------------------------------

// Set-based features computed through bound token stores must equal the
// string-path values exactly — including NaN for missing values.
TEST(DictEncodedEquivalence, BoundFeatureComputeMatchesStringPath) {
  WorkloadOptions opt;
  opt.size_a = 120;
  opt.size_b = 90;
  opt.seed = 21;
  opt.missing_rate = 0.08;
  auto data = GenerateProducts(opt);
  auto fs = FeatureSet::Generate(data.a, data.b);

  // Unbound (string path) values first.
  std::vector<std::vector<double>> expect(data.a.num_rows());
  std::vector<int> ids = fs.blocking_ids();
  for (RowId a = 0; a < data.a.num_rows(); ++a) {
    for (RowId b = 0; b < data.b.num_rows(); ++b) {
      for (int id : ids) {
        expect[a].push_back(fs.Compute(id, data.a, a, data.b, b));
      }
    }
  }

  Cluster cluster{ClusterConfig{}};
  IndexCatalog catalog;
  IndexBuilder builder(&data.a, &cluster);
  builder.EnsureTokenStores(data.b, fs, &catalog);
  fs.BindTokenStores(catalog.mutable_store(&data.a),
                       catalog.mutable_store(&data.b));

  size_t nan_count = 0;
  for (RowId a = 0; a < data.a.num_rows(); ++a) {
    size_t i = 0;
    for (RowId b = 0; b < data.b.num_rows(); ++b) {
      for (int id : ids) {
        double want = expect[a][i++];
        double got = fs.Compute(id, data.a, a, data.b, b);
        if (std::isnan(want)) {
          ++nan_count;
          ASSERT_TRUE(std::isnan(got))
              << fs.feature(id).name << " a=" << a << " b=" << b;
        } else {
          ASSERT_EQ(want, got)  // exact, not approximate
              << fs.feature(id).name << " a=" << a << " b=" << b;
        }
      }
    }
  }
  EXPECT_GT(nan_count, 0u) << "fixture should exercise missing values";
  fs.BindTokenStores(nullptr, nullptr);
}

// Concurrent probing against one shared read-only store: every thread reads
// the same dictionary/store/indexes with zero locking. Run under
// FALCON_SANITIZE=thread this is the data-race regression test for the
// dictionary-encoded path.
TEST(DictEncodedEquivalence, ParallelApplyMatchesSerialWithStores) {
  WorkloadOptions opt;
  opt.size_a = 150;
  opt.size_b = 200;
  opt.seed = 33;
  opt.missing_rate = 0.05;
  auto data = GenerateProducts(opt);
  auto fs = FeatureSet::Generate(data.a, data.b);

  auto find = [&](SimFunction fn, const char* attr, Tokenization tok) {
    for (const auto& f : fs.features()) {
      if (f.fn == fn && f.name.find(attr) != std::string::npos &&
          (!IsSetBased(fn) || f.tok == tok)) {
        return f.id;
      }
    }
    return -1;
  };
  int jac = find(SimFunction::kJaccard, "(title,title)", Tokenization::kWord);
  int dice3 =
      find(SimFunction::kDice, "(brand,brand)", Tokenization::kQgram3);
  ASSERT_GE(jac, 0);
  ASSERT_GE(dice3, 0);
  RuleSequence seq;
  Rule r;
  r.predicates = {{jac, jac, PredOp::kLt, 0.45},
                  {dice3, dice3, PredOp::kLt, 0.6}};
  r.selectivity = 0.2;
  seq.rules.push_back(r);
  seq.selectivity = 0.2;

  auto run = [&](int threads) {
    ClusterConfig cfg;
    cfg.local_threads = threads;
    Cluster cluster{cfg};
    IndexCatalog catalog;
    IndexBuilder builder(&data.a, &cluster);
    builder.EnsureTokenStores(data.b, fs, &catalog);
    builder.Ensure(IndexBuilder::NeedsOfCnf(ToCnf(seq), fs), &catalog);
    fs.BindTokenStores(catalog.mutable_store(&data.a),
                       catalog.mutable_store(&data.b));
    auto res = ApplyBlockingRules(data.a, data.b, seq, fs, catalog, &cluster,
                                  ApplyMethod::kApplyPredicate);
    fs.BindTokenStores(nullptr, nullptr);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    auto pairs = res->pairs;
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  auto serial = run(1);
  auto wide = run(4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, wide);
}

}  // namespace
}  // namespace falcon
