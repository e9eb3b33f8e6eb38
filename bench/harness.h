// Shared harness for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (Section 11) on the synthetic workloads, at a CLI-configurable
// scale (`--scale 2.0` doubles table sizes). Numbers will not match the
// paper's absolute values — the substrate is a simulated cluster and the
// data synthetic — but the SHAPES the paper argues from are expected to
// hold; EXPERIMENTS.md records paper-vs-measured per experiment.
#ifndef FALCON_BENCH_HARNESS_H_
#define FALCON_BENCH_HARNESS_H_

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "workload/generator.h"
#include "workload/quality.h"

namespace falcon {
namespace bench {

/// Tiny CLI flag parser: --key value / --key=value / --flag.
class Flags {
 public:
  Flags(int argc, char** argv);
  double GetDouble(const std::string& key, double def) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  bool GetBool(const std::string& key, bool def = false) const;
  std::string GetString(const std::string& key,
                        const std::string& def) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// Default scaled-down dataset sizes (scale 1.0), mirroring the paper's
/// relative shapes: Products small-x-medium, Songs square, Citations the
/// largest.
WorkloadOptions DatasetOptions(const std::string& name, double scale,
                               uint64_t seed);

/// Cluster/pipeline/crowd defaults used across benches. `local_threads`
/// controls real execution threads (0 = hardware concurrency, 1 = serial);
/// pass `flags.GetInt("threads", 0)` so every bench accepts --threads N.
ClusterConfig BenchClusterConfig(int local_threads = 0);
FalconConfig BenchFalconConfig(double scale, uint64_t seed);
SimulatedCrowdConfig BenchCrowdConfig(double error_rate, uint64_t seed);

/// One full pipeline execution plus its evaluation.
struct PipelineRun {
  QualityMetrics quality;
  RunMetrics metrics;
  /// RollupTaskLoad over the run's own cluster ledger. A straggler ratio
  /// near 1.0 means every job phase was balanced; large values flag hot
  /// tasks the skew-aware partitioner exists to split.
  TaskLoadStats load;
  double blocking_recall = 1.0;
  RuleSequence sequence;
  size_t matches = 0;
};

Result<PipelineRun> RunPipeline(const GeneratedDataset& data,
                                const FalconConfig& config,
                                const SimulatedCrowdConfig& crowd_config,
                                const ClusterConfig& cluster_config);

/// Fixed-width table printing.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string Pct(double v, int digits = 1);
std::string Money(double v);

/// Machine-readable bench output: collects metrics and writes them to
/// BENCH_<name>.json alongside a wall_clock_ms field (measured from
/// construction to Write), so real speedups — not just virtual times — are
/// tracked across PRs.
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  void Add(const std::string& key, double value);
  void Add(const std::string& key, int64_t value);
  void Add(const std::string& key, const std::string& value);

  /// Writes BENCH_<name>.json in the working directory. Returns the path.
  std::string Write();

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  /// Preformatted (key, JSON value) pairs, kept in insertion order.
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Adds a per-task load distribution — one job phase's, or a whole run's
/// RollupTaskLoad — to `report` under `prefix`: <prefix>/mr_tasks,
/// /task_vtime_max_s, /task_vtime_mean_s, /task_vtime_p99_s,
/// /straggler_ratio.
void AddLoadMetrics(BenchReport* report, const std::string& prefix,
                    const TaskLoadStats& load);

}  // namespace bench
}  // namespace falcon

#endif  // FALCON_BENCH_HARNESS_H_
