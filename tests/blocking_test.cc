#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "blocking/apply.h"
#include "blocking/filters.h"
#include "blocking/index_builder.h"
#include "blocking/kbb.h"
#include "workload/generator.h"
#include "workload/quality.h"

namespace falcon {
namespace {

ClusterConfig FastCluster() {
  ClusterConfig c;
  c.job_startup = VDuration::Seconds(0.5);
  c.task_overhead = VDuration::Seconds(0.01);
  return c;
}

// --- filter math -----------------------------------------------------------------

TEST(FilterMathTest, RequiredOverlapJaccard) {
  // J(x,y) >= 0.5 over |x|=|y|=4 needs intersection >= 0.5*8/1.5 = 2.67 -> 3.
  EXPECT_EQ(RequiredOverlap(SimFunction::kJaccard, 0.5, 4, 4), 3u);
  // Sanity: two identical sets of size 4 have intersection 4 >= alpha.
  EXPECT_LE(RequiredOverlap(SimFunction::kJaccard, 1.0, 4, 4), 4u);
}

TEST(FilterMathTest, RequiredOverlapOthers) {
  EXPECT_EQ(RequiredOverlap(SimFunction::kDice, 0.5, 4, 4), 2u);
  EXPECT_EQ(RequiredOverlap(SimFunction::kCosine, 0.5, 4, 9), 3u);
  EXPECT_EQ(RequiredOverlap(SimFunction::kOverlap, 0.5, 4, 8), 2u);
  EXPECT_EQ(RequiredOverlap(SimFunction::kLevenshtein, 0.9, 10, 10), 1u);
}

TEST(FilterMathTest, LengthBoundsJaccard) {
  auto [lo, hi] = LengthBounds(SimFunction::kJaccard, 0.5, 10);
  EXPECT_EQ(lo, 5u);
  EXPECT_EQ(hi, 20u);
}

TEST(FilterMathTest, LengthBoundsNoConstraint) {
  auto [lo, hi] = LengthBounds(SimFunction::kOverlap, 0.5, 10);
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, std::numeric_limits<size_t>::max());
}

// Soundness sweep: for random token sets, if sim(x, y) >= t then the filter
// conditions must hold (filters are necessary conditions).
class FilterSoundness : public ::testing::TestWithParam<SimFunction> {};

TEST_P(FilterSoundness, NecessaryConditionsHold) {
  SimFunction fn = GetParam();
  Rng rng(77);
  auto make_set = [&](size_t max_size) {
    std::vector<std::string> s;
    size_t n = 1 + rng.NextBelow(max_size);
    for (size_t i = 0; i < n; ++i) {
      s.push_back("t" + std::to_string(rng.NextBelow(30)));
    }
    return ToTokenSet(std::move(s));
  };
  for (int trial = 0; trial < 2000; ++trial) {
    auto x = make_set(12);
    auto y = make_set(12);
    double t = 0.1 + 0.8 * rng.NextDouble();
    double sim;
    switch (fn) {
      case SimFunction::kJaccard:
        sim = JaccardSim(x, y);
        break;
      case SimFunction::kDice:
        sim = DiceSim(x, y);
        break;
      case SimFunction::kCosine:
        sim = CosineSim(x, y);
        break;
      default:
        sim = OverlapSim(x, y);
        break;
    }
    if (sim < t) continue;
    size_t inter = SortedIntersectionSize(x, y);
    EXPECT_GE(inter, RequiredOverlap(fn, t, x.size(), y.size()))
        << SimFunctionName(fn) << " t=" << t << " |x|=" << x.size()
        << " |y|=" << y.size() << " sim=" << sim;
    auto [lo, hi] = LengthBounds(fn, t, y.size());
    EXPECT_GE(x.size(), lo);
    EXPECT_LE(x.size(), hi);
  }
}

INSTANTIATE_TEST_SUITE_P(SetSims, FilterSoundness,
                         ::testing::Values(SimFunction::kJaccard,
                                           SimFunction::kDice,
                                           SimFunction::kCosine,
                                           SimFunction::kOverlap));

// --- classification -----------------------------------------------------------------

TEST(ClassifyTest, KeepDirectionsGetIndexes) {
  WorkloadOptions opt;
  opt.size_a = 50;
  opt.size_b = 50;
  auto d = GenerateProducts(opt);
  auto fs = FeatureSet::Generate(d.a, d.b);
  int jac = -1;
  int em = -1;
  int ad = -1;
  for (const auto& f : fs.features()) {
    if (jac < 0 && f.fn == SimFunction::kJaccard) jac = f.id;
    if (em < 0 && f.fn == SimFunction::kExactMatch) em = f.id;
    if (ad < 0 && f.fn == SimFunction::kAbsDiff) ad = f.id;
  }
  ASSERT_GE(jac, 0);
  ASSERT_GE(em, 0);
  ASSERT_GE(ad, 0);
  // keep: jaccard > 0.6 -> token index.
  EXPECT_EQ(ClassifyPredicate({0, jac, PredOp::kGt, 0.6}, fs).kind,
            IndexKind::kToken);
  // keep: jaccard <= 0.6 -> unfilterable.
  EXPECT_EQ(ClassifyPredicate({0, jac, PredOp::kLe, 0.6}, fs).kind,
            IndexKind::kNone);
  // keep: exact_match > 0.5 -> hash.
  EXPECT_EQ(ClassifyPredicate({0, em, PredOp::kGt, 0.5}, fs).kind,
            IndexKind::kHash);
  // keep: abs_diff <= 10 -> btree.
  EXPECT_EQ(ClassifyPredicate({0, ad, PredOp::kLe, 10.0}, fs).kind,
            IndexKind::kBTree);
  // keep: abs_diff > 10 -> unfilterable.
  EXPECT_EQ(ClassifyPredicate({0, ad, PredOp::kGt, 10.0}, fs).kind,
            IndexKind::kNone);
}

// --- the big one: operator equivalence -----------------------------------------------

struct ApplyFixture {
  GeneratedDataset data;
  FeatureSet fs;
  RuleSequence seq;
  IndexCatalog catalog;
  Cluster cluster{FastCluster()};

  explicit ApplyFixture(double missing_rate = 0.04) {
    WorkloadOptions opt;
    opt.size_a = 250;
    opt.size_b = 600;
    opt.seed = 5;
    opt.missing_rate = missing_rate;
    data = GenerateProducts(opt);
    fs = FeatureSet::Generate(data.a, data.b);

    int jac_title = -1;
    int em_brand = -1;
    int ad_price = -1;
    for (const auto& f : fs.features()) {
      if (f.fn == SimFunction::kJaccard && f.tok == Tokenization::kWord &&
          f.name.find("(title,title)") != std::string::npos) {
        jac_title = f.id;
      }
      if (f.fn == SimFunction::kExactMatch &&
          f.name.find("(brand,brand)") != std::string::npos) {
        em_brand = f.id;
      }
      if (f.fn == SimFunction::kAbsDiff &&
          f.name.find("(price,price)") != std::string::npos) {
        ad_price = f.id;
      }
    }
    EXPECT_GE(jac_title, 0);
    EXPECT_GE(em_brand, 0);
    EXPECT_GE(ad_price, 0);

    // R1: low title similarity -> drop.
    Rule r1;
    r1.predicates = {{jac_title, jac_title, PredOp::kLe, 0.4}};
    r1.selectivity = 0.02;
    // R2: different brand AND prices far apart -> drop.
    Rule r2;
    r2.predicates = {{em_brand, em_brand, PredOp::kLe, 0.5},
                     {ad_price, ad_price, PredOp::kGt, 25.0}};
    r2.selectivity = 0.10;
    seq.rules = {r1, r2};
    seq.selectivity = 0.01;

    IndexBuilder builder(&data.a, &cluster);
    CnfRule q = ToCnf(seq);
    builder.EnsureTokenStores(data.b, fs, &catalog);
    VDuration t =
        builder.Ensure(IndexBuilder::NeedsOfCnf(q, fs), &catalog);
    EXPECT_GT(t.seconds, 0.0);
  }

  std::set<uint64_t> BruteForce() const {
    RuleApplier applier(seq, &fs, &data.a, &data.b);
    std::set<uint64_t> keep;
    for (RowId a = 0; a < data.a.num_rows(); ++a) {
      for (RowId b = 0; b < data.b.num_rows(); ++b) {
        if (applier.Keep(a, b)) {
          keep.insert((static_cast<uint64_t>(a) << 32) | b);
        }
      }
    }
    return keep;
  }

  std::set<uint64_t> Run(ApplyMethod m) {
    auto res = ApplyBlockingRules(data.a, data.b, seq, fs, catalog, &cluster,
                                  m);
    EXPECT_TRUE(res.ok()) << ApplyMethodName(m) << ": "
                          << res.status().ToString();
    std::set<uint64_t> keep;
    if (res.ok()) {
      for (auto [a, b] : res->pairs) {
        keep.insert((static_cast<uint64_t>(a) << 32) | b);
      }
      EXPECT_EQ(keep.size(), res->pairs.size())
          << ApplyMethodName(m) << " emitted duplicates";
    }
    return keep;
  }
};

class ApplyEquivalence : public ::testing::TestWithParam<ApplyMethod> {};

TEST_P(ApplyEquivalence, MatchesBruteForce) {
  static ApplyFixture* fixture = new ApplyFixture();
  static std::set<uint64_t>* expected =
      new std::set<uint64_t>(fixture->BruteForce());
  ASSERT_FALSE(expected->empty());
  // Blocking must prune: far fewer survivors than the Cartesian product.
  ASSERT_LT(expected->size(),
            fixture->data.a.num_rows() * fixture->data.b.num_rows() / 2);
  auto got = fixture->Run(GetParam());
  EXPECT_EQ(got, *expected) << ApplyMethodName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ApplyEquivalence,
    ::testing::Values(ApplyMethod::kApplyAll, ApplyMethod::kApplyGreedy,
                      ApplyMethod::kApplyConjunct,
                      ApplyMethod::kApplyPredicate, ApplyMethod::kMapSide,
                      ApplyMethod::kReduceSplit),
    [](const ::testing::TestParamInfo<ApplyMethod>& info) {
      return ApplyMethodName(info.param);
    });

// Parallel execution must be byte-identical to the legacy serial path: same
// candidate pairs in the same order, same work accounting. Covers both an
// index operator (apply_all) and the shuffle-heavy reduce_split baseline.
class ApplyParallelDeterminism
    : public ::testing::TestWithParam<ApplyMethod> {};

TEST_P(ApplyParallelDeterminism, ByteIdenticalToSerial) {
  static ApplyFixture* fixture = new ApplyFixture();
  auto run = [&](int threads) {
    ClusterConfig cfg = FastCluster();
    cfg.local_threads = threads;
    Cluster cluster(cfg);
    return ApplyBlockingRules(fixture->data.a, fixture->data.b, fixture->seq,
                              fixture->fs, fixture->catalog, &cluster,
                              GetParam());
  };
  auto serial = run(1);
  auto parallel = run(4);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial->pairs, parallel->pairs);
  EXPECT_EQ(serial->candidates_examined, parallel->candidates_examined);
}

INSTANTIATE_TEST_SUITE_P(
    Operators, ApplyParallelDeterminism,
    ::testing::Values(ApplyMethod::kApplyAll, ApplyMethod::kApplyGreedy,
                      ApplyMethod::kReduceSplit),
    [](const ::testing::TestParamInfo<ApplyMethod>& info) {
      return ApplyMethodName(info.param);
    });

TEST(ApplyTest, BlockingRecallIsHighOnGeneratedData) {
  ApplyFixture fixture;
  auto res =
      ApplyBlockingRules(fixture.data.a, fixture.data.b, fixture.seq,
                         fixture.fs, fixture.catalog, &fixture.cluster,
                         ApplyMethod::kApplyAll);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  // Missing-value semantics guarantee dirty pairs are not silently lost;
  // recall should be near-perfect for this mild rule.
  EXPECT_GT(BlockingRecall(res->pairs, fixture.data.truth), 0.9);
}

TEST(ApplyTest, MemoryPressureRejectsApplyAll) {
  ApplyFixture fixture;
  ClusterConfig cfg = FastCluster();
  cfg.mapper_memory_bytes = 1024;  // absurdly small
  Cluster tiny(cfg);
  auto res =
      ApplyBlockingRules(fixture.data.a, fixture.data.b, fixture.seq,
                         fixture.fs, fixture.catalog, &tiny,
                         ApplyMethod::kApplyAll);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kOutOfMemory);
}

// Every token probe reads the B-side store view; a catalog without one is
// refused up front instead of probing a slower way.
TEST(ApplyTest, TokenProbeWithoutBStoreViewIsRejected) {
  ApplyFixture fixture;
  IndexCatalog no_b_views;
  IndexBuilder builder(&fixture.data.a, &fixture.cluster);
  builder.Ensure(IndexBuilder::NeedsOfCnf(ToCnf(fixture.seq), fixture.fs),
                 &no_b_views);
  for (ApplyMethod m :
       {ApplyMethod::kApplyAll, ApplyMethod::kApplyGreedy,
        ApplyMethod::kApplyConjunct, ApplyMethod::kApplyPredicate}) {
    auto res = ApplyBlockingRules(fixture.data.a, fixture.data.b, fixture.seq,
                                  fixture.fs, no_b_views, &fixture.cluster, m);
    ASSERT_FALSE(res.ok()) << ApplyMethodName(m);
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(res.status().message().find("(title,title)"), std::string::npos)
        << res.status().ToString();
  }
  // The enumerating baselines probe nothing and still run.
  auto map_side = ApplyBlockingRules(
      fixture.data.a, fixture.data.b, fixture.seq, fixture.fs, no_b_views,
      &fixture.cluster, ApplyMethod::kMapSide);
  EXPECT_TRUE(map_side.ok()) << map_side.status().ToString();
}

// A sequence with more filterable clauses than a 64-bit mask has bits: the
// keyed-by-pair reducers must count every clause a pair hit, or no pair
// reaches the count of active clauses and every pair is lost.
TEST(ApplyTest, SeventyClauseSequenceMatchesOracle) {
  WorkloadOptions opt;
  opt.size_a = 60;
  opt.size_b = 80;
  opt.seed = 7;
  GeneratedDataset data = GenerateProducts(opt);
  FeatureSet fs = FeatureSet::Generate(data.a, data.b);
  int jac_title = -1;
  for (const auto& f : fs.features()) {
    if (f.fn == SimFunction::kJaccard && f.tok == Tokenization::kWord &&
        f.name.find("(title,title)") != std::string::npos) {
      jac_title = f.id;
    }
  }
  ASSERT_GE(jac_title, 0);
  RuleSequence seq;
  for (int i = 1; i <= 70; ++i) {
    Rule r;
    r.predicates = {{jac_title, jac_title, PredOp::kLe, 0.001 * i}};
    r.selectivity = 0.5;
    seq.rules.push_back(r);
  }
  Cluster cluster{FastCluster()};
  IndexCatalog catalog;
  IndexBuilder builder(&data.a, &cluster);
  builder.EnsureTokenStores(data.b, fs, &catalog);
  builder.Ensure(IndexBuilder::NeedsOfCnf(ToCnf(seq), fs), &catalog);

  RuleApplier oracle(seq, &fs, &data.a, &data.b);
  std::set<uint64_t> expected;
  for (RowId a = 0; a < data.a.num_rows(); ++a) {
    for (RowId b = 0; b < data.b.num_rows(); ++b) {
      if (oracle.Keep(a, b)) {
        expected.insert((static_cast<uint64_t>(a) << 32) | b);
      }
    }
  }
  ASSERT_FALSE(expected.empty());
  for (ApplyMethod m :
       {ApplyMethod::kApplyAll, ApplyMethod::kApplyGreedy,
        ApplyMethod::kApplyConjunct, ApplyMethod::kApplyPredicate,
        ApplyMethod::kMapSide, ApplyMethod::kReduceSplit}) {
    auto res = ApplyBlockingRules(data.a, data.b, seq, fs, catalog, &cluster,
                                  m);
    ASSERT_TRUE(res.ok()) << ApplyMethodName(m) << ": "
                          << res.status().ToString();
    std::set<uint64_t> got;
    for (auto [a, b] : res->pairs) {
      got.insert((static_cast<uint64_t>(a) << 32) | b);
    }
    EXPECT_EQ(got, expected) << ApplyMethodName(m);
  }
}

TEST(ApplyTest, EmptySequenceRejected) {
  ApplyFixture fixture;
  RuleSequence empty;
  auto res = ApplyBlockingRules(fixture.data.a, fixture.data.b, empty,
                                fixture.fs, fixture.catalog,
                                &fixture.cluster, ApplyMethod::kApplyAll);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelectMethodTest, PrefersIndexOperatorsWhenMemoryAllows) {
  ApplyFixture fixture;
  ApplyMethod m =
      SelectApplyMethod(fixture.data.a, fixture.data.b, fixture.seq,
                        fixture.fs, fixture.catalog, fixture.cluster);
  EXPECT_TRUE(m == ApplyMethod::kApplyAll || m == ApplyMethod::kApplyGreedy);
}

TEST(SelectMethodTest, FallsBackUnderMemoryPressure) {
  ApplyFixture fixture;
  ClusterConfig cfg = FastCluster();
  cfg.mapper_memory_bytes = 1;  // nothing fits, not even a table
  Cluster tiny(cfg);
  ApplyMethod m =
      SelectApplyMethod(fixture.data.a, fixture.data.b, fixture.seq,
                        fixture.fs, fixture.catalog, tiny);
  EXPECT_EQ(m, ApplyMethod::kReduceSplit);
}

// Rule 1 compares the sequence's selectivity with its most selective
// clause's: apply_greedy wins only when that clause alone is almost as
// selective as the whole sequence.
TEST(SelectMethodTest, RuleOneComparesSequenceSelectivity) {
  ApplyFixture fixture;
  RuleSequence seq = fixture.seq;
  for (Rule& r : seq.rules) r.selectivity = 0.5;
  auto select = [&](double selectivity) {
    seq.selectivity = selectivity;
    return std::string(ApplyMethodName(
        SelectApplyMethod(fixture.data.a, fixture.data.b, seq, fixture.fs,
                          fixture.catalog, fixture.cluster)));
  };
  EXPECT_EQ(select(0.01), "apply_all");
  EXPECT_EQ(select(0.45), "apply_greedy");
}

// --- the selected operator always runs -------------------------------------------

/// The classes SelectApplyMethod steps through as mapper memory shrinks.
enum class OperatorClass {
  kAllOrGreedy,
  kConjunctOrPredicate,
  kMapSide,
  kReduceSplit,
};

OperatorClass ClassOf(ApplyMethod m) {
  switch (m) {
    case ApplyMethod::kApplyAll:
    case ApplyMethod::kApplyGreedy:
      return OperatorClass::kAllOrGreedy;
    case ApplyMethod::kApplyConjunct:
    case ApplyMethod::kApplyPredicate:
      return OperatorClass::kConjunctOrPredicate;
    case ApplyMethod::kMapSide:
      return OperatorClass::kMapSide;
    case ApplyMethod::kReduceSplit:
      break;
  }
  return OperatorClass::kReduceSplit;
}

/// Mapper-memory levels at which SelectApplyMethod's choice can change: what
/// each of its memory tests requires (all of Q's indexes, each clause's,
/// each predicate's, the smaller table) and one byte less.
std::set<size_t> MemoryEdges(const Table& a, const Table& b,
                             const RuleSequence& seq, const FeatureSet& fs,
                             const IndexCatalog& catalog) {
  const CnfRule q = ToCnf(SimplifySequence(seq));
  std::vector<size_t> needs = {
      catalog.MemoryUsageFor(IndexBuilder::NeedsOfCnf(q, fs)),
      std::min(a.MemoryUsage(), b.MemoryUsage())};
  for (const CnfClause& clause : q.clauses) {
    std::vector<IndexNeed> clause_needs;
    for (const Predicate& p : clause.predicates) {
      clause_needs.push_back(ClassifyPredicate(p, fs));
      needs.push_back(catalog.MemoryUsageFor({clause_needs.back()}));
    }
    needs.push_back(catalog.MemoryUsageFor(clause_needs));
  }
  std::set<size_t> levels = {1};
  for (size_t n : needs) {
    levels.insert(n);
    if (n > 1) levels.insert(n - 1);
  }
  return levels;
}

/// Builds the catalog as the pipeline does before an apply (features bound
/// to the catalog's token stores, every B-side view, the indexes of `seq`),
/// then at every memory edge runs the operator SelectApplyMethod picks and
/// checks it against the Keep oracle. Adds the classes picked to `picked`.
void ExpectSelectedOperatorRuns(const GeneratedDataset& data, FeatureSet* fs,
                                const RuleSequence& seq,
                                std::set<OperatorClass>* picked) {
  Cluster build_cluster{FastCluster()};
  IndexCatalog catalog;
  fs->BindTokenStores(catalog.mutable_store(&data.a),
                      catalog.mutable_store(&data.b));
  IndexBuilder builder(&data.a, &build_cluster);
  builder.EnsureTokenStores(data.b, *fs, &catalog);
  builder.Ensure(IndexBuilder::NeedsOfCnf(ToCnf(SimplifySequence(seq)), *fs),
                 &catalog);

  RuleApplier oracle(seq, fs, &data.a, &data.b);
  std::set<uint64_t> expected;
  for (RowId a = 0; a < data.a.num_rows(); ++a) {
    for (RowId b = 0; b < data.b.num_rows(); ++b) {
      if (oracle.Keep(a, b)) {
        expected.insert((static_cast<uint64_t>(a) << 32) | b);
      }
    }
  }
  for (size_t level : MemoryEdges(data.a, data.b, seq, *fs, catalog)) {
    ClusterConfig cfg = FastCluster();
    cfg.mapper_memory_bytes = level;
    Cluster cluster(cfg);
    const ApplyMethod m =
        SelectApplyMethod(data.a, data.b, seq, *fs, catalog, cluster);
    auto res =
        ApplyBlockingRules(data.a, data.b, seq, *fs, catalog, &cluster, m);
    if (!res.ok()) {
      ADD_FAILURE() << ApplyMethodName(m) << " at " << level
                    << " B of mapper memory: " << res.status().ToString();
      continue;
    }
    std::set<uint64_t> got;
    for (auto [a, b] : res->pairs) {
      got.insert((static_cast<uint64_t>(a) << 32) | b);
    }
    EXPECT_EQ(got, expected) << ApplyMethodName(m) << " at " << level
                             << " B of mapper memory";
    picked->insert(ClassOf(m));
  }
  fs->BindTokenStores(nullptr, nullptr);
}

/// Each single rule and the full sequence, the way speculation and
/// apply_block_rules run them.
std::vector<RuleSequence> SingleRulesAndSequence(const RuleSequence& seq) {
  std::vector<RuleSequence> inputs;
  for (const Rule& rule : seq.rules) {
    RuleSequence single;
    single.rules.push_back(rule);
    single.selectivity = rule.selectivity;
    inputs.push_back(single);
  }
  inputs.push_back(seq);
  return inputs;
}

// The pipeline runs exactly the operator SelectApplyMethod picks, so at every
// mapper memory where its choice changes, the pick must run and keep exactly
// the oracle's pairs.
TEST(SelectMethodTest, SelectedOperatorAlwaysRuns) {
  ApplyFixture products;
  std::set<OperatorClass> picked;
  for (const RuleSequence& seq : SingleRulesAndSequence(products.seq)) {
    ExpectSelectedOperatorRuns(products.data, &products.fs, seq, &picked);
  }

  WorkloadOptions opt;
  opt.size_a = 150;
  opt.size_b = 300;
  opt.seed = 22;
  opt.missing_rate = 0.05;
  GeneratedDataset songs = GenerateSongs(opt);
  FeatureSet fs = FeatureSet::Generate(songs.a, songs.b);
  auto find = [&](SimFunction fn, const char* attr, Tokenization tok) {
    const std::string name = std::string("(") + attr + "," + attr + ")";
    for (const Feature& f : fs.features()) {
      if (f.fn == fn && f.name.find(name) != std::string::npos &&
          (!IsSetBased(fn) || f.tok == tok)) {
        return f.id;
      }
    }
    return -1;
  };
  const int jac_title = find(SimFunction::kJaccard, "title", Tokenization::kWord);
  const int jac_artist3 =
      find(SimFunction::kJaccard, "artist_name", Tokenization::kQgram3);
  const int cos_release =
      find(SimFunction::kCosine, "release", Tokenization::kWord);
  const int year = find(SimFunction::kAbsDiff, "year", Tokenization::kWord);
  for (int id : {jac_title, jac_artist3, cos_release, year}) ASSERT_GE(id, 0);
  RuleSequence seq;
  seq.rules.resize(3);
  seq.rules[0].predicates = {{jac_title, jac_title, PredOp::kLe, 0.3}};
  seq.rules[0].selectivity = 0.3;
  seq.rules[1].predicates = {{jac_artist3, jac_artist3, PredOp::kLt, 0.4},
                             {year, year, PredOp::kGt, 1.0}};
  seq.rules[1].selectivity = 0.4;
  seq.rules[2].predicates = {{cos_release, cos_release, PredOp::kLe, 0.2}};
  seq.rules[2].selectivity = 0.5;
  seq.selectivity = 0.1;
  for (const RuleSequence& input : SingleRulesAndSequence(seq)) {
    ExpectSelectedOperatorRuns(songs, &fs, input, &picked);
  }
  EXPECT_EQ(picked, (std::set<OperatorClass>{
                        OperatorClass::kAllOrGreedy,
                        OperatorClass::kConjunctOrPredicate,
                        OperatorClass::kMapSide,
                        OperatorClass::kReduceSplit}));
}

// --- index builder ---------------------------------------------------------------

TEST(IndexBuilderTest, EnsureIsIncremental) {
  ApplyFixture fixture;
  IndexBuilder builder(&fixture.data.a, &fixture.cluster);
  CnfRule q = ToCnf(fixture.seq);
  auto needs = IndexBuilder::NeedsOfCnf(q, fixture.fs);
  // Catalog already holds everything from the fixture constructor.
  VDuration again = builder.Ensure(needs, &fixture.catalog);
  EXPECT_DOUBLE_EQ(again.seconds, 0.0);
}

TEST(IndexBuilderTest, GenericNeedsCoverBlockingFeatures) {
  ApplyFixture fixture;
  auto generic = IndexBuilder::GenericNeeds(fixture.fs);
  ASSERT_FALSE(generic.empty());
  bool has_hash = false;
  bool has_btree = false;
  bool has_ordering = false;
  for (const auto& n : generic) {
    has_hash |= n.kind == IndexKind::kHash;
    has_btree |= n.kind == IndexKind::kBTree;
    has_ordering |= n.kind == IndexKind::kTokenOrdering;
  }
  EXPECT_TRUE(has_hash);
  EXPECT_TRUE(has_btree);
  EXPECT_TRUE(has_ordering);
}

TEST(IndexBuilderTest, PrebuiltOrderingSpeedsBundle) {
  ApplyFixture fixture;
  IndexBuilder builder(&fixture.data.a, &fixture.cluster);
  // Build ordering first (as masking O1 would), then the inverted index.
  IndexCatalog cat;
  int col = fixture.fs.feature(fixture.seq.rules[0].predicates[0].feature_id)
                .col_a;
  VDuration t1 = builder.Ensure(
      {{IndexKind::kTokenOrdering, col, Tokenization::kWord}}, &cat);
  EXPECT_GT(t1.seconds, 0.0);
  const size_t ordering_only = cat.TotalMemoryUsage();
  const IndexNeed token_need{IndexKind::kToken, col, Tokenization::kWord};
  VDuration t2 = builder.Ensure({token_need}, &cat);
  EXPECT_GT(t2.seconds, 0.0);
  // The inverted index sorts with the catalog's ordering instead of copying
  // it: it is the only structure the build adds, and a token probe's memory
  // is that ordering plus the inverted index.
  const InvertedIndex* inv = cat.inverted(col, Tokenization::kWord);
  const TokenOrdering* ord = cat.ordering(col, Tokenization::kWord);
  ASSERT_NE(inv, nullptr);
  ASSERT_NE(ord, nullptr);
  EXPECT_EQ(cat.TotalMemoryUsage() - ordering_only, inv->MemoryUsage());
  EXPECT_EQ(cat.MemoryUsageFor({token_need}),
            ord->MemoryUsage() + inv->MemoryUsage());
  // A cold build pays for ordering + inverted index together.
  IndexCatalog cold;
  VDuration t3 = builder.Ensure(
      {{IndexKind::kToken, col, Tokenization::kWord}}, &cold);
  EXPECT_GT(t3.seconds, t2.seconds);
}

// --- KBB baseline -----------------------------------------------------------------

TEST(KbbTest, ExactKeyBlocksAndLosesDirtyMatches) {
  WorkloadOptions opt;
  opt.size_a = 300;
  opt.size_b = 700;
  opt.seed = 3;
  opt.dirtiness = 0.5;
  auto d = GenerateProducts(opt);
  Cluster cluster(FastCluster());
  int key_a = d.a.schema().IndexOf("modelno");
  ASSERT_GE(key_a, 0);
  auto kbb = KeyBasedBlocking(d.a, d.b, key_a, key_a, &cluster);
  double recall = BlockingRecall(kbb.pairs, d.truth);
  // Typos and missing model numbers kill a visible share of matches.
  EXPECT_LT(recall, 0.95);
  EXPECT_GT(recall, 0.2);
  // And KBB emits no duplicate pairs.
  std::set<uint64_t> uniq;
  for (auto [a, b] : kbb.pairs) {
    uniq.insert((static_cast<uint64_t>(a) << 32) | b);
  }
  EXPECT_EQ(uniq.size(), kbb.pairs.size());
}

TEST(KbbTest, FirstTokenIsSofter) {
  WorkloadOptions opt;
  opt.size_a = 200;
  opt.size_b = 500;
  opt.seed = 3;
  auto d = GenerateProducts(opt);
  Cluster cluster(FastCluster());
  int col = d.a.schema().IndexOf("title");
  auto exact = KeyBasedBlocking(d.a, d.b, col, col, &cluster);
  auto first = FirstTokenBlocking(d.a, d.b, col, col, &cluster);
  EXPECT_GE(BlockingRecall(first.pairs, d.truth),
            BlockingRecall(exact.pairs, d.truth));
  EXPECT_GE(first.pairs.size(), exact.pairs.size());
}

}  // namespace
}  // namespace falcon
