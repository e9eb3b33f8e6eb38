// Microbenchmarks: the matching-stage hot path (google-benchmark). The
// custom main() first writes BENCH_micro_matcher.json comparing the eager
// strategy (materialize the full feature vector, full RandomForest::Predict
// vote) against the fused one (lazy memoized features + the forest's
// short-circuit RandomForest::PredictWith) per pair, asserting
// byte-identical predictions, then runs google-benchmark. The traversal
// lanes time the two votes alone over pre-materialized vectors.
// FALCON_BENCH_SMOKE=1 shrinks the dataset so the binary doubles as a ctest
// smoke test.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include <benchmark/benchmark.h>

#include "harness.h"

#include "common/arena.h"
#include "learn/random_forest.h"
#include "rules/feature.h"
#include "workload/generator.h"

namespace falcon {
namespace {

bool SmokeMode() { return std::getenv("FALCON_BENCH_SMOKE") != nullptr; }

/// Dataset, features, eval pairs, and a matcher forest trained on a labeled
/// sample — everything the matching stage consumes, built once.
struct MatcherFixture {
  GeneratedDataset data;
  FeatureSet fs;
  std::vector<PairQuestion> pairs;  ///< evaluation pairs ("candidates")
  RandomForest forest;

  MatcherFixture() {
    WorkloadOptions opt;
    opt.size_a = SmokeMode() ? 150 : 600;
    opt.size_b = SmokeMode() ? 150 : 600;
    opt.seed = 7;
    opt.missing_rate = 0.05;
    data = GenerateProducts(opt);
    fs = FeatureSet::Generate(data.a, data.b);

    Rng rng(13);
    auto sample = [&](size_t n, std::vector<PairQuestion>* out) {
      for (size_t i = 0; i < n; ++i) {
        out->emplace_back(
            static_cast<RowId>(rng.NextBelow(data.a.num_rows())),
            static_cast<RowId>(rng.NextBelow(data.b.num_rows())));
      }
    };

    // Training sample: random pairs plus the ground-truth matches so both
    // classes are represented.
    std::vector<PairQuestion> train;
    sample(400, &train);
    for (uint64_t key : data.truth.keys()) {
      train.emplace_back(static_cast<RowId>(key >> 32),
                         static_cast<RowId>(key & 0xFFFFFFFFu));
      if (train.size() >= 800) break;
    }
    std::vector<FeatureVec> x;
    std::vector<char> y;
    for (const auto& [a, b] : train) {
      x.push_back(fs.ComputeVector(fs.all_ids(), data.a, a, data.b, b));
      y.push_back(data.truth.IsMatch(a, b) ? 1 : 0);
    }
    forest = RandomForest::Train(x, y, ForestOptions{}, &rng);

    sample(SmokeMode() ? 500 : 5000, &pairs);
  }
};

MatcherFixture* Fixture() {
  static MatcherFixture* fx = new MatcherFixture();
  return fx;
}

/// How many of the `width` layout positions any split of the forest tests:
/// the most a pair's lazy evaluation can compute.
size_t UsedFeatures(const RandomForest& forest, size_t width) {
  std::vector<char> used(width, 0);
  for (const auto& tree : forest.trees()) {
    for (const TreeNode& n : tree.nodes()) {
      if (!n.is_leaf) used[n.feature] = 1;
    }
  }
  return static_cast<size_t>(std::count(used.begin(), used.end(), 1));
}

/// Feature vectors of the first 512 evaluation pairs, for the traversal
/// lanes.
const std::vector<FeatureVec>& MaterializedVectors() {
  static std::vector<FeatureVec>* fvs = [] {
    MatcherFixture* f = Fixture();
    auto* v = new std::vector<FeatureVec>();
    for (size_t i = 0; i < 512 && i < f->pairs.size(); ++i) {
      const auto& [a, b] = f->pairs[i];
      v->push_back(
          f->fs.ComputeVector(f->fs.all_ids(), f->data.a, a, f->data.b, b));
    }
    return v;
  }();
  return *fvs;
}

void BM_EagerPair(benchmark::State& state) {
  MatcherFixture* fx = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = fx->pairs[i++ % fx->pairs.size()];
    FeatureVec fv =
        fx->fs.ComputeVector(fx->fs.all_ids(), fx->data.a, a, fx->data.b, b);
    benchmark::DoNotOptimize(fx->forest.Predict(fv));
  }
}
BENCHMARK(BM_EagerPair);

void BM_FusedPair(benchmark::State& state) {
  MatcherFixture* fx = Fixture();
  const std::vector<int>& ids = fx->fs.all_ids();
  LazyPairFeatures lazy;
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = fx->pairs[i++ % fx->pairs.size()];
    lazy.Begin(&fx->fs, &ids, &fx->data.a, a, &fx->data.b, b);
    benchmark::DoNotOptimize(
        fx->forest.PredictWith([&lazy](int pos) { return lazy.Get(pos); }));
  }
}
BENCHMARK(BM_FusedPair);

// Forest traversal alone (features pre-materialized): isolates the
// short-circuit voting win from the lazy-feature win. Pooled is the full
// vote, PredictWith the short-circuit one.
void BM_ForestPredictPooled(benchmark::State& state) {
  MatcherFixture* fx = Fixture();
  const std::vector<FeatureVec>& fvs = MaterializedVectors();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx->forest.Predict(fvs[i++ % fvs.size()]));
  }
}
BENCHMARK(BM_ForestPredictPooled);

void BM_ForestPredictWith(benchmark::State& state) {
  MatcherFixture* fx = Fixture();
  const std::vector<FeatureVec>& fvs = MaterializedVectors();
  size_t i = 0;
  for (auto _ : state) {
    const FeatureVec& fv = fvs[i++ % fvs.size()];
    benchmark::DoNotOptimize(
        fx->forest.PredictWith([&fv](int pos) { return fv[pos]; }));
  }
}
BENCHMARK(BM_ForestPredictWith);

/// Eager-vs-fused comparison written to BENCH_micro_matcher.json.
void WriteComparisonReport() {
  using Clock = std::chrono::steady_clock;
  MatcherFixture* fx = Fixture();
  const std::vector<int>& ids = fx->fs.all_ids();
  const size_t sweeps = SmokeMode() ? 1 : 4;
  const size_t n = fx->pairs.size();

  bench::BenchReport report("micro_matcher");
  report.Add("rows_a", static_cast<int64_t>(fx->data.a.num_rows()));
  report.Add("rows_b", static_cast<int64_t>(fx->data.b.num_rows()));
  report.Add("pairs", static_cast<int64_t>(n));
  report.Add("sweeps", static_cast<int64_t>(sweeps));
  report.Add("vector_width", static_cast<int64_t>(ids.size()));
  report.Add("used_features",
             static_cast<int64_t>(UsedFeatures(fx->forest, ids.size())));
  report.Add("num_trees", static_cast<int64_t>(fx->forest.num_trees()));

  // Eager: materialize every vector, vote every tree.
  std::vector<char> eager_pred(n);
  auto t0 = Clock::now();
  for (size_t s = 0; s < sweeps; ++s) {
    for (size_t i = 0; i < n; ++i) {
      const auto& [a, b] = fx->pairs[i];
      FeatureVec fv = fx->fs.ComputeVector(ids, fx->data.a, a, fx->data.b, b);
      eager_pred[i] = fx->forest.Predict(fv) ? 1 : 0;
    }
  }
  auto t1 = Clock::now();

  // Fused: lazy memoized features, short-circuit voting, no vector array.
  // The lazy evaluator carves its buffers from the thread scratch arena, so
  // the only real heap traffic is page acquisition — counted below against
  // the eager path's one materialized vector per pair.
  std::vector<char> fused_pred(n);
  uint64_t features_computed = 0;
  uint64_t trees_voted = 0;
  LazyPairFeatures lazy;
  Arena* scratch = ThreadScratch().arena();
  const uint64_t pages_before = scratch->total_pages_acquired();
  const uint64_t page_bytes_before = scratch->total_page_bytes_acquired();
  auto t2 = Clock::now();
  for (size_t s = 0; s < sweeps; ++s) {
    for (size_t i = 0; i < n; ++i) {
      const auto& [a, b] = fx->pairs[i];
      lazy.Begin(&fx->fs, &ids, &fx->data.a, a, &fx->data.b, b);
      int voted = 0;
      fused_pred[i] = fx->forest.PredictWith(
                          [&lazy](int pos) { return lazy.Get(pos); }, &voted)
                          ? 1
                          : 0;
      features_computed += static_cast<uint64_t>(lazy.computed_count());
      trees_voted += static_cast<uint64_t>(voted);
    }
  }
  auto t3 = Clock::now();
  const uint64_t fused_allocs =
      scratch->total_pages_acquired() - pages_before;
  const uint64_t fused_alloc_bytes =
      scratch->total_page_bytes_acquired() - page_bytes_before;

  if (fused_pred != eager_pred) {
    std::fprintf(stderr,
                 "FATAL: fused predictions diverge from eager over %zu "
                 "pairs\n",
                 n);
    std::exit(1);
  }

  const double per = static_cast<double>(sweeps) * static_cast<double>(n);
  double eager_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / per;
  double fused_ns =
      std::chrono::duration<double, std::nano>(t3 - t2).count() / per;
  double features_per_pair = static_cast<double>(features_computed) / per;
  double trees_per_pair = static_cast<double>(trees_voted) / per;
  report.Add("eager_ns_per_pair", eager_ns);
  report.Add("fused_ns_per_pair", fused_ns);
  report.Add("speedup", fused_ns > 0.0 ? eager_ns / fused_ns : 0.0);
  report.Add("features_per_pair", features_per_pair);
  report.Add("trees_per_pair", trees_per_pair);

  // Eager materializes exactly one FeatureVec heap vector per pair; fused
  // costs only the scratch-arena pages acquired across the whole loop.
  const uint64_t eager_allocs = static_cast<uint64_t>(per);
  const uint64_t eager_alloc_bytes =
      eager_allocs * static_cast<uint64_t>(ids.size() * sizeof(double));
  report.Add("alloc/count", static_cast<int64_t>(fused_allocs));
  report.Add("alloc/bytes", static_cast<int64_t>(fused_alloc_bytes));
  report.Add("alloc/count_eager", static_cast<int64_t>(eager_allocs));
  report.Add("alloc/bytes_eager", static_cast<int64_t>(eager_alloc_bytes));
  double alloc_reduction =
      fused_allocs > 0
          ? static_cast<double>(eager_allocs) /
                static_cast<double>(fused_allocs)
          : static_cast<double>(eager_allocs);
  report.Add("alloc/reduction", alloc_reduction);
  if (fused_allocs * 10 > eager_allocs) {
    std::fprintf(stderr,
                 "FATAL: fused path took %llu heap allocs vs eager %llu, "
                 "not a 10x reduction\n",
                 static_cast<unsigned long long>(fused_allocs),
                 static_cast<unsigned long long>(eager_allocs));
    std::exit(1);
  }

  if (features_per_pair >= static_cast<double>(ids.size())) {
    std::fprintf(stderr,
                 "FATAL: lazy path computed %.2f features/pair, not below "
                 "the full width %zu\n",
                 features_per_pair, ids.size());
    std::exit(1);
  }

  std::string path = report.Write();
  std::printf("wrote %s\n", path.c_str());
  std::printf(
      "eager %.0f ns/pair, fused %.0f ns/pair (%.2fx); %.2f/%zu features, "
      "%.2f/%zu trees per pair\n",
      eager_ns, fused_ns, fused_ns > 0.0 ? eager_ns / fused_ns : 0.0,
      features_per_pair, ids.size(), trees_per_pair,
      fx->forest.num_trees());
  std::printf("allocs: eager %llu, fused %llu (%.0fx fewer)\n",
              static_cast<unsigned long long>(eager_allocs),
              static_cast<unsigned long long>(fused_allocs),
              alloc_reduction);
}

}  // namespace
}  // namespace falcon

int main(int argc, char** argv) {
  falcon::WriteComparisonReport();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
