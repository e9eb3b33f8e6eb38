// Microbenchmarks: index build and probe paths (google-benchmark). The
// custom main() first writes BENCH_micro_index.json — token-store probe
// cost, keep-rule cost and index-build heap allocations — then runs
// google-benchmark. FALCON_BENCH_SMOKE=1 shrinks the dataset so the binary
// doubles as a ctest smoke test.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include <benchmark/benchmark.h>

#include "harness.h"

#include "blocking/apply.h"
#include "blocking/filters.h"
#include "blocking/index_builder.h"
#include "common/counters.h"
#include "text/intersect.h"
#include "index/btree_index.h"
#include "index/hash_index.h"
#include "mapreduce/cluster.h"
#include "workload/generator.h"

namespace falcon {
namespace {

bool SmokeMode() { return std::getenv("FALCON_BENCH_SMOKE") != nullptr; }

const GeneratedDataset& Data() {
  static GeneratedDataset* data = [] {
    WorkloadOptions opt;
    opt.size_a = SmokeMode() ? 300 : 5000;
    opt.size_b = SmokeMode() ? 300 : 5000;
    opt.seed = 3;
    return new GeneratedDataset(GenerateProducts(opt));
  }();
  return *data;
}

void BM_HashIndexBuild(benchmark::State& state) {
  const auto& d = Data();
  int col = d.a.schema().IndexOf("modelno");
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashIndex::Build(d.a, col));
  }
}
BENCHMARK(BM_HashIndexBuild);

void BM_HashIndexProbe(benchmark::State& state) {
  const auto& d = Data();
  int col = d.a.schema().IndexOf("modelno");
  static HashIndex idx = HashIndex::Build(d.a, col);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        idx.Probe(d.b.Get(i++ % d.b.num_rows(), col)));
  }
}
BENCHMARK(BM_HashIndexProbe);

void BM_BTreeBuild(benchmark::State& state) {
  const auto& d = Data();
  int col = d.a.schema().IndexOf("price");
  for (auto _ : state) {
    benchmark::DoNotOptimize(BTreeIndex::Build(d.a, col));
  }
}
BENCHMARK(BM_BTreeBuild);

void BM_BTreeRangeProbe(benchmark::State& state) {
  const auto& d = Data();
  int col = d.a.schema().IndexOf("price");
  static BTreeIndex idx = BTreeIndex::Build(d.a, col);
  size_t i = 0;
  std::vector<RowId> out;
  for (auto _ : state) {
    out.clear();
    double v = d.b.GetNumeric(i++ % d.b.num_rows(), col);
    if (!std::isnan(v)) idx.ProbeRange(v - 10, v + 10, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BTreeRangeProbe);

struct TokenFixture {
  Cluster cluster;
  IndexCatalog catalog;
  FeatureSet fs;
  Predicate pred;

  TokenFixture() : cluster(ClusterConfig{}) {
    const auto& d = Data();
    fs = FeatureSet::Generate(d.a, d.b);
    int jac = -1;
    for (const auto& f : fs.features()) {
      if (f.fn == SimFunction::kJaccard && f.tok == Tokenization::kWord &&
          f.name.find("(title,title)") != std::string::npos) {
        jac = f.id;
        break;
      }
    }
    pred = Predicate{jac, jac, PredOp::kGt, 0.5};
    IndexBuilder builder(&d.a, &cluster);
    builder.EnsureTokenStores(d.b, fs, &catalog);
    builder.Ensure({ClassifyPredicate(pred, fs)}, &catalog);
  }
};

void BM_TokenIndexBuild(benchmark::State& state) {
  const auto& d = Data();
  TokenFixture fx;
  IndexNeed need = ClassifyPredicate(fx.pred, fx.fs);
  for (auto _ : state) {
    Cluster cluster((ClusterConfig()));
    IndexCatalog catalog;
    IndexBuilder builder(&d.a, &cluster);
    builder.Ensure({need}, &catalog);
    benchmark::DoNotOptimize(catalog.TotalMemoryUsage());
  }
}
BENCHMARK(BM_TokenIndexBuild)->Unit(benchmark::kMillisecond);

TokenFixture* SharedFixture() {
  static TokenFixture* fx = new TokenFixture();
  return fx;
}

void BM_PrefixFilterProbe(benchmark::State& state) {
  const auto& d = Data();
  TokenFixture* fx = SharedFixture();
  ClauseProber prober(&fx->catalog, &fx->fs, d.a.num_rows());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prober.ProbePredicate(
        fx->pred, d.b, static_cast<RowId>(i++ % d.b.num_rows())));
  }
}
BENCHMARK(BM_PrefixFilterProbe);

/// Probe, keep and build measurements written to BENCH_micro_index.json.
void WriteComparisonReport() {
  using Clock = std::chrono::steady_clock;
  const auto& d = Data();
  TokenFixture* fx = SharedFixture();
  const size_t sweeps = SmokeMode() ? 2 : 10;

  bench::BenchReport report("micro_index");
  report.Add("rows_a", static_cast<int64_t>(d.a.num_rows()));
  report.Add("rows_b", static_cast<int64_t>(d.b.num_rows()));
  report.Add("sweeps", static_cast<int64_t>(sweeps));
  report.Add("catalog_bytes_with_store",
             static_cast<int64_t>(fx->catalog.TotalMemoryUsage()));

  // Token-store probing over every B row.
  size_t candidates = 0;
  ClauseProber prober(&fx->catalog, &fx->fs, d.a.num_rows());
  auto t0 = Clock::now();
  for (size_t s = 0; s < sweeps; ++s) {
    for (RowId b = 0; b < d.b.num_rows(); ++b) {
      candidates += prober.ProbePredicate(fx->pred, d.b, b).rows.size();
    }
  }
  auto t1 = Clock::now();
  const double probes =
      static_cast<double>(sweeps) * static_cast<double>(d.b.num_rows());
  report.Add("probe/candidates_per_sweep",
             static_cast<int64_t>(candidates / sweeps));
  report.Add("probe/store_us_per_row",
             std::chrono::duration<double, std::micro>(t1 - t0).count() /
                 probes);

  // Rule application: Keep() sweeps over the bound feature set, where each
  // set-based predicate is decided from an intersection count against its
  // flip point. Every keep decision must equal the value path's — an
  // applier over a freshly generated, unbound feature set computes the full
  // similarity from strings — or the bench exits fatally. Two lanes, the
  // word jaccard on descr (~18 words per row) and on title (~7 words), time
  // long and short sets.
  fx->fs.BindTokenStores(fx->catalog.mutable_store(&d.a),
                         fx->catalog.mutable_store(&d.b));
  const FeatureSet unbound = FeatureSet::Generate(d.a, d.b);
  auto keep_lane = [&](const std::string& prefix, const char* attr,
                       PredOp op, double value) {
    int keep_feat = -1;
    for (const auto& f : fx->fs.features()) {
      if (f.fn == SimFunction::kJaccard && f.tok == Tokenization::kWord &&
          f.usable_for_blocking &&
          f.name.find(std::string("(") + attr + "," + attr + ")") !=
              std::string::npos) {
        keep_feat = f.id;
        break;
      }
    }
    if (keep_feat < 0) {
      fprintf(stderr, "FATAL: no word jaccard feature on %s\n", attr);
      exit(1);
    }
    RuleSequence seq;
    Rule r;
    r.predicates = {Predicate{keep_feat, keep_feat, op, value}};
    seq.rules = {r};
    RuleApplier applier(seq, &fx->fs, &d.a, &d.b);
    RuleApplier value_applier(seq, &unbound, &d.a, &d.b);
    // Strided A sample x every B row keeps the sweep O(seconds) at full size.
    const size_t a_step = std::max<size_t>(d.a.num_rows() / 64, 1);
    auto sweep = [&](const RuleApplier& app, std::vector<char>* decisions) {
      decisions->clear();
      for (RowId br = 0; br < d.b.num_rows(); ++br) {
        for (RowId ar = 0; ar < d.a.num_rows();
             ar += static_cast<RowId>(a_step)) {
          decisions->push_back(app.Keep(ar, br) ? 1 : 0);
        }
      }
    };
    std::vector<char> keep_value, keep_bound;
    sweep(value_applier, &keep_value);
    const CounterSet before = ThreadCounters();
    auto tA = Clock::now();
    sweep(applier, &keep_bound);
    auto tB = Clock::now();
    const CounterSet delta = ThreadCounters() - before;
    if (keep_value != keep_bound) {
      fprintf(stderr,
              "FATAL: the count decision changed a RuleApplier::Keep "
              "decision on %s (value path kept %zu, bound applier kept %zu)\n",
              attr,
              static_cast<size_t>(
                  std::count(keep_value.begin(), keep_value.end(), 1)),
              static_cast<size_t>(
                  std::count(keep_bound.begin(), keep_bound.end(), 1)));
      exit(1);
    }
    const double pairs = static_cast<double>(keep_bound.size());
    const double us =
        std::chrono::duration<double, std::micro>(tB - tA).count() / pairs;
    report.Add(prefix + "/pairs", static_cast<int64_t>(keep_bound.size()));
    report.Add(prefix + "/adaptive_us_per_pair", us);
    report.Add(prefix + "/intersect_scalar",
               static_cast<int64_t>(delta[Counter::kIntersectScalar]));
    report.Add(prefix + "/intersect_small",
               static_cast<int64_t>(delta[Counter::kIntersectSmall]));
    report.Add(prefix + "/intersect_gallop",
               static_cast<int64_t>(delta[Counter::kIntersectGallop]));
    report.Add(prefix + "/intersect_simd",
               static_cast<int64_t>(delta[Counter::kIntersectSimd]));
    report.Add(prefix + "/intersect_early_exit",
               static_cast<int64_t>(delta[Counter::kIntersectEarlyExit]));
    printf("%s: %.3f us/pair\n", prefix.c_str(), us);
  };
  keep_lane("keep", "descr", PredOp::kGt, 0.5);
  keep_lane("keep_title", "title", PredOp::kLe, 0.4);
  report.Add("keep/simd_kernel", std::string(SimdIntersectKernelName()));

  // Index build (jobs 1-3 + store views) from a cold catalog. The
  // allocation counters in each job's stats are real heap traffic:
  // task-arena page acquisitions.
  {
    Cluster cluster((ClusterConfig()));
    IndexCatalog catalog;
    IndexBuilder builder(&d.a, &cluster);
    auto tA = Clock::now();
    builder.EnsureTokenStores(d.b, fx->fs, &catalog);
    builder.Ensure({ClassifyPredicate(fx->pred, fx->fs)}, &catalog);
    auto tB = Clock::now();
    benchmark::DoNotOptimize(catalog.TotalMemoryUsage());
    int64_t alloc_count = 0;
    int64_t alloc_bytes = 0;
    for (const JobStats& js : cluster.JobHistorySnapshot()) {
      alloc_count += static_cast<int64_t>(js.counters[Counter::kAllocCount]);
      alloc_bytes += static_cast<int64_t>(js.counters[Counter::kAllocBytes]);
    }
    report.Add("build/full_ms",
               std::chrono::duration<double, std::milli>(tB - tA).count());
    report.Add("alloc/count", alloc_count);
    report.Add("alloc/bytes", alloc_bytes);
    printf("build allocs: %lld (%lld B)\n",
           static_cast<long long>(alloc_count),
           static_cast<long long>(alloc_bytes));
  }

  std::string path = report.Write();
  printf("wrote %s\n", path.c_str());
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
