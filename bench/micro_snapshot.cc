// Microbenchmarks: snapshot save/load cost (google-benchmark). The custom
// main() first walks a table1-style Products run through every operator
// boundary, checkpointing at each one, and writes BENCH_micro_snapshot.json
// with the per-boundary snapshot size, save time, and load(+rehydrate) time
// — the numbers that decide how often a cloud service can afford to
// checkpoint. Each load is verified to land back on the same boundary.
// FALCON_BENCH_SMOKE=1 shrinks the dataset so the binary doubles as a ctest
// smoke test.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "harness.h"

#include "crowd/crowd.h"
#include "mapreduce/cluster.h"
#include "session/snapshot.h"
#include "session/workflow_session.h"

namespace falcon {
namespace {

bool SmokeMode() { return std::getenv("FALCON_BENCH_SMOKE") != nullptr; }

double MsBetween(std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// One checkpoint: the boundary it was taken at and what it cost.
struct BoundaryCost {
  PipelineStage next = PipelineStage::kInit;
  size_t bytes = 0;
  double save_ms = 0.0;
  double load_ms = 0.0;  ///< LoadSnapshot + Rehydrate, via Resume()
};

/// A table1-style Products workload plus one full session run with a
/// checkpoint at every operator boundary, built once.
struct SnapshotFixture {
  GeneratedDataset data;
  FalconConfig config;
  SimulatedCrowdConfig crowd_config;
  ClusterConfig cluster_config;
  std::vector<BoundaryCost> boundaries;
  std::string last_snapshot;  ///< at the final (done) boundary

  SnapshotFixture() {
    const double scale = SmokeMode() ? 0.25 : 1.0;
    data = GenerateProducts(bench::DatasetOptions("products", scale, 7));
    config = bench::BenchFalconConfig(scale, 7);
    config.deterministic_rule_cost = true;
    crowd_config = bench::BenchCrowdConfig(0.03, 7);
    cluster_config = bench::BenchClusterConfig();

    Cluster cluster(cluster_config);
    SimulatedCrowd crowd(crowd_config, data.truth.MakeOracle());
    WorkflowSession session("bench", &data.a, &data.b, &crowd, &cluster,
                            config);

    auto checkpoint = [&] {
      using Clock = std::chrono::steady_clock;
      BoundaryCost c;
      c.next = session.next_stage();
      auto t0 = Clock::now();
      std::string blob = session.SaveSnapshot();
      auto t1 = Clock::now();
      c.bytes = blob.size();
      c.save_ms = MsBetween(t0, t1);

      SimulatedCrowd crowd2(crowd_config, data.truth.MakeOracle());
      auto t2 = Clock::now();
      auto resumed = WorkflowSession::Resume(blob, &data.a, &data.b, &crowd2,
                                             &cluster, config);
      auto t3 = Clock::now();
      if (!resumed.ok()) {
        std::fprintf(stderr, "FATAL: resume at boundary %s failed: %s\n",
                     PipelineStageName(c.next),
                     resumed.status().message().c_str());
        std::exit(1);
      }
      if ((*resumed)->next_stage() != c.next) {
        std::fprintf(stderr, "FATAL: resume landed on %s, expected %s\n",
                     PipelineStageName((*resumed)->next_stage()),
                     PipelineStageName(c.next));
        std::exit(1);
      }
      c.load_ms = MsBetween(t2, t3);
      boundaries.push_back(c);
      last_snapshot = std::move(blob);
    };

    if (!session.Start().ok()) {
      std::fprintf(stderr, "FATAL: session start failed\n");
      std::exit(1);
    }
    checkpoint();
    while (!session.done()) {
      if (!session.Step().ok()) {
        std::fprintf(stderr, "FATAL: session step failed\n");
        std::exit(1);
      }
      checkpoint();
    }
  }
};

SnapshotFixture* Fixture() {
  static SnapshotFixture* fx = new SnapshotFixture();
  return fx;
}

// Save at the final boundary — the largest state (forests, candidates,
// predictions, full crowd journal), so the worst-case checkpoint cost.
void BM_SaveSnapshot(benchmark::State& state) {
  SnapshotFixture* fx = Fixture();
  Cluster cluster(fx->cluster_config);
  SimulatedCrowd crowd(fx->crowd_config, fx->data.truth.MakeOracle());
  auto session = WorkflowSession::Resume(fx->last_snapshot, &fx->data.a,
                                         &fx->data.b, &crowd, &cluster,
                                         fx->config);
  if (!session.ok()) {
    state.SkipWithError("resume failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize((*session)->SaveSnapshot());
  }
}
BENCHMARK(BM_SaveSnapshot);

// Load + rehydrate from the final boundary, via the same Resume() path a
// recovering service would take.
void BM_LoadSnapshot(benchmark::State& state) {
  SnapshotFixture* fx = Fixture();
  Cluster cluster(fx->cluster_config);
  for (auto _ : state) {
    SimulatedCrowd crowd(fx->crowd_config, fx->data.truth.MakeOracle());
    auto session = WorkflowSession::Resume(fx->last_snapshot, &fx->data.a,
                                           &fx->data.b, &crowd, &cluster,
                                           fx->config);
    if (!session.ok()) {
      state.SkipWithError("resume failed");
      return;
    }
    benchmark::DoNotOptimize(session);
  }
}
BENCHMARK(BM_LoadSnapshot);

// Header + META parse only — what a service pays to list snapshots.
void BM_ReadSnapshotMeta(benchmark::State& state) {
  SnapshotFixture* fx = Fixture();
  for (auto _ : state) {
    auto meta = ReadSnapshotMeta(fx->last_snapshot);
    if (!meta.ok()) {
      state.SkipWithError("meta parse failed");
      return;
    }
    benchmark::DoNotOptimize(meta);
  }
}
BENCHMARK(BM_ReadSnapshotMeta);

/// Per-boundary costs written to BENCH_micro_snapshot.json.
void WriteBoundaryReport() {
  SnapshotFixture* fx = Fixture();

  bench::BenchReport report("micro_snapshot");
  report.Add("rows_a", static_cast<int64_t>(fx->data.a.num_rows()));
  report.Add("rows_b", static_cast<int64_t>(fx->data.b.num_rows()));
  report.Add("boundaries", static_cast<int64_t>(fx->boundaries.size()));

  bench::TablePrinter table({"boundary", "next stage", "bytes", "save ms",
                             "load+rehydrate ms"});
  size_t max_bytes = 0;
  double total_save_ms = 0.0, total_load_ms = 0.0;
  for (size_t i = 0; i < fx->boundaries.size(); ++i) {
    const BoundaryCost& c = fx->boundaries[i];
    std::string prefix = "b" + std::to_string(i) + "_" +
                         PipelineStageName(c.next);
    report.Add(prefix + "_bytes", static_cast<int64_t>(c.bytes));
    report.Add(prefix + "_save_ms", c.save_ms);
    report.Add(prefix + "_load_ms", c.load_ms);
    table.AddRow({std::to_string(i), PipelineStageName(c.next),
                  std::to_string(c.bytes),
                  std::to_string(c.save_ms).substr(0, 6),
                  std::to_string(c.load_ms).substr(0, 6)});
    max_bytes = std::max(max_bytes, c.bytes);
    total_save_ms += c.save_ms;
    total_load_ms += c.load_ms;
  }
  report.Add("max_bytes", static_cast<int64_t>(max_bytes));
  report.Add("total_save_ms", total_save_ms);
  report.Add("total_load_ms", total_load_ms);

  table.Print();
  std::string path = report.Write();
  std::printf("wrote %s\n", path.c_str());
  std::printf(
      "%zu boundaries; largest snapshot %zu bytes; save %.1f ms total, "
      "load+rehydrate %.1f ms total\n",
      fx->boundaries.size(), max_bytes, total_save_ms, total_load_ms);
}

}  // namespace
}  // namespace falcon

int main(int argc, char** argv) {
  falcon::WriteBoundaryReport();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
