// Adaptive set-intersection kernels: every strategy must return exactly
// |a ∩ b| for sorted unique inputs — the scalar merge is the ground truth and
// the galloping, branchless-small, SIMD, and threshold kernels are checked
// against it across the shapes that historically break such kernels (empty,
// singleton, disjoint, identical, ragged SIMD-width tails, ids past 2^16).
// Plus: the strategy rule is a pure function of the lengths, the activity
// counters move, and a threaded MapReduce run is byte-identical to serial
// and to a force-scalar run.
#include "text/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blocking/apply.h"
#include "blocking/index_builder.h"
#include "common/counters.h"
#include "mapreduce/cluster.h"
#include "rules/feature.h"
#include "rules/rule.h"
#include "workload/generator.h"

namespace falcon {
namespace {

using intersect::Gallop;
using intersect::ScalarMerge;
using intersect::SimdMerge;
using intersect::SmallMerge;

// Sorted unique ids drawn from [0, universe). Deterministic per (seed, size).
std::vector<TokenId> MakeSet(uint32_t seed, size_t size, uint32_t universe) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint32_t> dist(0, universe - 1);
  std::vector<TokenId> v;
  v.reserve(size * 2);
  while (v.size() < size) {
    size_t need = size - v.size();
    for (size_t i = 0; i < need; ++i) v.push_back(dist(rng));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    if (v.size() >= universe) break;  // can't reach `size`; settle
  }
  return v;
}

// Reference count by the definition, not by any merge kernel.
size_t RefCount(const std::vector<TokenId>& a, const std::vector<TokenId>& b) {
  size_t n = 0;
  for (TokenId x : a) n += std::binary_search(b.begin(), b.end(), x) ? 1 : 0;
  return n;
}

void ExpectAllKernelsAgree(const std::vector<TokenId>& a,
                           const std::vector<TokenId>& b) {
  const size_t want = RefCount(a, b);
  EXPECT_EQ(ScalarMerge(a, b), want) << a.size() << " vs " << b.size();
  EXPECT_EQ(ScalarMerge(b, a), want);
  EXPECT_EQ(SmallMerge(a, b), want) << a.size() << " vs " << b.size();
  EXPECT_EQ(SmallMerge(b, a), want);
  EXPECT_EQ(Gallop(a, b), want) << a.size() << " vs " << b.size();
  EXPECT_EQ(Gallop(b, a), want);
  EXPECT_EQ(SimdMerge(a, b), want) << a.size() << " vs " << b.size();
  EXPECT_EQ(SimdMerge(b, a), want);
  EXPECT_EQ(SortedIntersectionSize(std::span<const TokenId>(a),
                                   std::span<const TokenId>(b)),
            want);
}

TEST(IntersectKernelsTest, EmptyAndSingletonShapes) {
  std::vector<TokenId> empty;
  std::vector<TokenId> one = {7};
  std::vector<TokenId> big = MakeSet(1, 100, 1000);
  ExpectAllKernelsAgree(empty, empty);
  ExpectAllKernelsAgree(empty, one);
  ExpectAllKernelsAgree(empty, big);
  ExpectAllKernelsAgree(one, one);
  ExpectAllKernelsAgree(one, big);
  std::vector<TokenId> other = {8};
  ExpectAllKernelsAgree(one, other);
}

TEST(IntersectKernelsTest, DisjointAndIdenticalShapes) {
  std::vector<TokenId> evens, odds;
  for (TokenId i = 0; i < 200; ++i) (i % 2 ? odds : evens).push_back(i);
  ExpectAllKernelsAgree(evens, odds);   // fully disjoint, interleaved
  ExpectAllKernelsAgree(evens, evens);  // identical
  std::vector<TokenId> low = MakeSet(2, 64, 100);
  std::vector<TokenId> high;
  for (TokenId v : low) high.push_back(v + 1000);
  ExpectAllKernelsAgree(low, high);  // disjoint, non-overlapping ranges
}

TEST(IntersectKernelsTest, RaggedSimdWidthTails) {
  // Sizes straddling the 4-lane SSE2 and 8-lane AVX2 block widths, so the
  // vector loop leaves 0..7 element scalar tails on each side.
  for (size_t na : {3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 23u, 24u, 25u,
                    31u, 32u, 33u, 40u}) {
    for (size_t nb : {4u, 8u, 9u, 17u, 31u, 33u, 64u}) {
      auto a = MakeSet(100 + static_cast<uint32_t>(na), na, 128);
      auto b = MakeSet(200 + static_cast<uint32_t>(nb), nb, 128);
      ExpectAllKernelsAgree(a, b);
    }
  }
}

TEST(IntersectKernelsTest, IdsBeyondSixteenBits) {
  // Ids past 2^16 catch any 16-bit truncation inside a SIMD compare.
  auto a = MakeSet(5, 300, 1u << 20);
  auto b = MakeSet(6, 280, 1u << 20);
  for (TokenId v : {65535u, 65536u, 65537u, 1048575u}) {
    a.push_back(v);
    b.push_back(v);
  }
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  ExpectAllKernelsAgree(a, b);
  EXPECT_GE(RefCount(a, b), 4u);
}

TEST(IntersectKernelsTest, RandomizedSweepAllRegimes) {
  std::mt19937 shape_rng(42);
  const size_t sizes[] = {0, 1, 2, 3, 5, 8, 13, 16, 17, 30,
                          64, 100, 127, 256, 500, 1024};
  for (size_t na : sizes) {
    for (size_t nb : sizes) {
      const uint32_t universe =
          std::max<uint32_t>(16, static_cast<uint32_t>((na + nb) * 2));
      auto a = MakeSet(shape_rng(), na, universe);
      auto b = MakeSet(shape_rng(), nb, universe);
      ExpectAllKernelsAgree(a, b);
    }
  }
}

TEST(IntersectThresholdTest, AgreesWithFullCountForEveryAlpha) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    auto a = MakeSet(rng(), rng() % 200, 256);
    auto b = MakeSet(rng(), rng() % 200, 256);
    const size_t inter = RefCount(a, b);
    const size_t top = std::min(a.size(), b.size()) + 2;
    for (size_t alpha = 0; alpha <= top; ++alpha) {
      EXPECT_EQ(SortedIntersectionAtLeast(a, b, alpha), inter >= alpha)
          << "alpha=" << alpha << " inter=" << inter;
      EXPECT_EQ(SortedIntersectionAtLeast(b, a, alpha), inter >= alpha);
    }
  }
}

TEST(IntersectThresholdTest, LopsidedShapesUseGallopPathCorrectly) {
  auto small = MakeSet(10, 20, 1 << 16);
  auto large = MakeSet(11, 2000, 1 << 16);
  const size_t inter = RefCount(small, large);
  for (size_t alpha = 0; alpha <= small.size() + 1; ++alpha) {
    EXPECT_EQ(SortedIntersectionAtLeast(small, large, alpha), inter >= alpha);
    EXPECT_EQ(SortedIntersectionAtLeast(large, small, alpha), inter >= alpha);
  }
}

TEST(IntersectStrategyTest, RuleIsPureAndMatchesDocumentedRegimes) {
  EXPECT_EQ(ChooseIntersectStrategy(0, 100), IntersectStrategy::kScalar);
  EXPECT_EQ(ChooseIntersectStrategy(100, 0), IntersectStrategy::kScalar);
  // Both tiny -> branchless merge.
  EXPECT_EQ(ChooseIntersectStrategy(4, 4), IntersectStrategy::kSmall);
  EXPECT_EQ(ChooseIntersectStrategy(2, 6), IntersectStrategy::kSmall);
  // Short side below a SIMD block but lists not tiny -> scalar merge...
  EXPECT_EQ(ChooseIntersectStrategy(4, 8), IntersectStrategy::kScalar);
  EXPECT_EQ(ChooseIntersectStrategy(7, 50), IntersectStrategy::kScalar);
  // ...until the ratio hits 16, where galloping takes over.
  EXPECT_EQ(ChooseIntersectStrategy(4, 64), IntersectStrategy::kGallop);
  EXPECT_EQ(ChooseIntersectStrategy(64, 4), IntersectStrategy::kGallop);
  // Short side fits a block: gallop only for small-short, ratio >= 32.
  EXPECT_EQ(ChooseIntersectStrategy(16, 1024), IntersectStrategy::kGallop);
  EXPECT_EQ(ChooseIntersectStrategy(20, 640), IntersectStrategy::kGallop);
  EXPECT_EQ(ChooseIntersectStrategy(24, 1024), IntersectStrategy::kSimd);
  EXPECT_EQ(ChooseIntersectStrategy(10, 160), IntersectStrategy::kSimd);
  // The blocked regime: balanced and mildly lopsided shapes.
  EXPECT_EQ(ChooseIntersectStrategy(8, 16), IntersectStrategy::kSimd);
  EXPECT_EQ(ChooseIntersectStrategy(64, 64), IntersectStrategy::kSimd);
  EXPECT_EQ(ChooseIntersectStrategy(64, 1024), IntersectStrategy::kSimd);
  EXPECT_EQ(ChooseIntersectStrategy(100, 800), IntersectStrategy::kSimd);
  // Symmetric and repeatable: a pure function of the two lengths.
  for (size_t na : {0u, 1u, 16u, 17u, 64u, 1000u}) {
    for (size_t nb : {0u, 1u, 16u, 17u, 64u, 1000u}) {
      EXPECT_EQ(ChooseIntersectStrategy(na, nb),
                ChooseIntersectStrategy(nb, na));
      EXPECT_EQ(ChooseIntersectStrategy(na, nb),
                ChooseIntersectStrategy(na, nb));
    }
  }
}

TEST(IntersectStrategyTest, SimdDispatchIsConsistent) {
  const std::string name = SimdIntersectKernelName();
  if (SimdIntersectAvailable()) {
    EXPECT_TRUE(name == "avx2" || name == "sse2") << name;
  } else {
    EXPECT_EQ(name, "none");
  }
}

TEST(IntersectCountersTest, AdaptiveCallsBumpTheMatchingCounter) {
  auto tiny_a = MakeSet(20, 4, 16);
  auto tiny_b = MakeSet(21, 4, 16);
  auto bal_a = MakeSet(22, 64, 512);
  auto bal_b = MakeSet(23, 64, 512);
  auto short_s = MakeSet(24, 20, 1 << 14);
  auto long_s = MakeSet(25, 2000, 1 << 14);

  CounterSet before = ThreadCounters();
  SortedIntersectionSize(std::span<const TokenId>(tiny_a),
                         std::span<const TokenId>(tiny_b));
  SortedIntersectionSize(std::span<const TokenId>(bal_a),
                         std::span<const TokenId>(bal_b));
  SortedIntersectionSize(std::span<const TokenId>(short_s),
                         std::span<const TokenId>(long_s));
  SortedSetContains(bal_a, bal_a[0]);
  CounterSet delta = ThreadCounters() - before;

  EXPECT_EQ(delta[Counter::kIntersectSmall], 1u);
  EXPECT_EQ(delta[Counter::kIntersectGallop], 1u);
  if (SimdIntersectAvailable()) {
    EXPECT_EQ(delta[Counter::kIntersectSimd], 1u);
    EXPECT_EQ(delta[Counter::kIntersectScalar], 0u);
  } else {
    EXPECT_EQ(delta[Counter::kIntersectSimd], 0u);
    EXPECT_EQ(delta[Counter::kIntersectScalar], 1u);
  }
  EXPECT_EQ(delta[Counter::kIntersectContains], 1u);

  // Early exit on a decidable threshold call.
  before = ThreadCounters();
  EXPECT_TRUE(SortedIntersectionAtLeast(bal_a, bal_a, 1));
  delta = ThreadCounters() - before;
  EXPECT_EQ(delta[Counter::kIntersectEarlyExit], 1u);

  // Raw kernels never count.
  before = ThreadCounters();
  ScalarMerge(bal_a, bal_b);
  SmallMerge(tiny_a, tiny_b);
  Gallop(short_s, long_s);
  SimdMerge(bal_a, bal_b);
  EXPECT_TRUE(ThreadCounters() == before);
}

TEST(IntersectStringPathTest, MatchesIdPathSemantics) {
  std::vector<std::string> a = {"alpha", "beta", "delta", "zeta"};
  std::vector<std::string> b = {"beta", "gamma", "zeta"};
  EXPECT_EQ(SortedIntersectionSize(a, b), 2u);
  EXPECT_EQ(SortedIntersectionSize(b, a), 2u);
  EXPECT_EQ(SortedIntersectionSize(a, std::vector<std::string>{}), 0u);
  EXPECT_EQ(SortedIntersectionSize(a, a), a.size());
}

// --- end-to-end: adaptive kernels under the MapReduce engine ----------------

ClusterConfig FastCluster() {
  ClusterConfig c;
  c.job_startup = VDuration::Seconds(0.5);
  c.task_overhead = VDuration::Seconds(0.01);
  return c;
}

// Zipf products + a Jaccard threshold rule: posting probes, set similarity,
// and keep decisions made from intersection counts all run inside one
// blocking job.
struct IntersectJobFixture {
  GeneratedDataset data;
  FeatureSet fs;
  RuleSequence seq;
  IndexCatalog catalog;
  Cluster build_cluster{FastCluster()};

  IntersectJobFixture() {
    WorkloadOptions opt;
    opt.size_a = 120;
    opt.size_b = 300;
    opt.seed = 13;
    opt.zipf_s = 1.3;
    data = GenerateProducts(opt);
    fs = FeatureSet::Generate(data.a, data.b);

    int jac_title = -1;
    for (const auto& f : fs.features()) {
      if (f.fn == SimFunction::kJaccard && f.tok == Tokenization::kWord &&
          f.name.find("(title,title)") != std::string::npos) {
        jac_title = f.id;
      }
    }
    EXPECT_GE(jac_title, 0);
    Rule r;
    r.predicates = {{jac_title, jac_title, PredOp::kLe, 0.4}};
    r.selectivity = 0.05;
    seq.rules = {r};
    seq.selectivity = 0.05;

    IndexBuilder builder(&data.a, &build_cluster);
    builder.EnsureTokenStores(data.b, fs, &catalog);
    builder.Ensure(IndexBuilder::NeedsOfCnf(ToCnf(seq), fs), &catalog);
    // The pipeline always binds the interned token stores before applying
    // rules (StageApplyRules); do the same so features run on the id path.
    fs.BindTokenStores(catalog.mutable_store(&data.a),
                       catalog.mutable_store(&data.b));
  }

  ApplyResult Run(int threads) {
    ClusterConfig cfg = FastCluster();
    cfg.local_threads = threads;
    Cluster cluster(cfg);
    auto res = ApplyBlockingRules(data.a, data.b, seq, fs, catalog, &cluster,
                                  ApplyMethod::kApplyAll);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.ok() ? std::move(*res) : ApplyResult{};
  }
};

TEST(IntersectJobTest, ByteIdenticalAcrossThreadsAndKernels) {
  IntersectJobFixture fixture;
  ApplyResult serial = fixture.Run(1);
  ASSERT_FALSE(serial.pairs.empty());
  ApplyResult threaded = fixture.Run(4);
  EXPECT_EQ(serial.pairs, threaded.pairs);
  EXPECT_EQ(serial.candidates_examined, threaded.candidates_examined);

  // Deciding predicates from intersection counts must not change a single
  // keep decision: an applier over the bound feature set (flip points,
  // early-exit counts) agrees on every A x B pair with one over a freshly
  // generated, unbound feature set, which computes every similarity in full.
  const FeatureSet unbound = FeatureSet::Generate(fixture.data.a,
                                                  fixture.data.b);
  RuleApplier bound_applier(fixture.seq, &fixture.fs, &fixture.data.a,
                            &fixture.data.b);
  RuleApplier value_applier(fixture.seq, &unbound, &fixture.data.a,
                            &fixture.data.b);
  size_t kept = 0;
  for (RowId ar = 0; ar < fixture.data.a.num_rows(); ++ar) {
    for (RowId br = 0; br < fixture.data.b.num_rows(); ++br) {
      const bool keep = value_applier.Keep(ar, br);
      ASSERT_EQ(bound_applier.Keep(ar, br), keep) << ar << "," << br;
      kept += keep ? 1 : 0;
    }
  }
  EXPECT_EQ(kept, serial.pairs.size());
}

TEST(IntersectJobTest, JobStatsCarryIntersectCounters) {
  IntersectJobFixture fixture;
  ApplyResult res = fixture.Run(2);
  const CounterSet& c = res.main_job.counters;
  const uint64_t total =
      c[Counter::kIntersectScalar] + c[Counter::kIntersectSmall] +
      c[Counter::kIntersectGallop] + c[Counter::kIntersectSimd] +
      c[Counter::kIntersectEarlyExit] + c[Counter::kIntersectContains];
  EXPECT_GT(total, 0u) << "blocking job recorded no intersection activity";
}

/// The job's intersection counters and examined candidates: the work counts
/// that must not depend on threads or on other threads' work (the
/// allocation counters depend on arena-pool warmth).
std::vector<uint64_t> WorkCounts(const ApplyResult& res) {
  const CounterSet& c = res.main_job.counters;
  return {c[Counter::kIntersectScalar],    c[Counter::kIntersectSmall],
          c[Counter::kIntersectGallop],    c[Counter::kIntersectSimd],
          c[Counter::kIntersectEarlyExit], c[Counter::kIntersectContains],
          c[Counter::kCandidatesExamined]};
}

TEST(JobCountersTest, SameAtOneAndFourThreads) {
  IntersectJobFixture fixture;
  const ApplyResult serial = fixture.Run(1);
  const ApplyResult threaded = fixture.Run(4);
  EXPECT_GT(serial.candidates_examined, 0u);
  EXPECT_EQ(WorkCounts(serial), WorkCounts(threaded));
}

// A job's counters are its own tasks' work, not whatever the process did
// while it ran: another thread intersecting for the whole job changes none
// of them.
TEST(JobCountersTest, ExactWhileAnotherThreadIntersects) {
  IntersectJobFixture fixture;
  const ApplyResult solo = fixture.Run(4);

  const std::vector<TokenId> set = MakeSet(40, 64, 512);
  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::thread noise([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      SortedSetContains(set, set[0]);
      started.store(true, std::memory_order_relaxed);
    }
  });
  while (!started.load(std::memory_order_relaxed)) std::this_thread::yield();
  const ApplyResult busy = fixture.Run(4);
  stop.store(true, std::memory_order_relaxed);
  noise.join();

  EXPECT_EQ(solo.pairs, busy.pairs);
  EXPECT_EQ(WorkCounts(solo), WorkCounts(busy));
}

}  // namespace
}  // namespace falcon
