// Section 11.4 (additional experiments): machine time vs cluster size.
//
// Paper: a Songs run takes 31m / 11m / 7m / 6m on 5 / 10 / 15 / 20 nodes —
// big win from 5 to 10, diminishing returns beyond.
#include <cstdio>

#include "harness.h"

using namespace falcon;
using namespace falcon::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  uint64_t seed = flags.GetInt("seed", 100);
  int threads = static_cast<int>(flags.GetInt("threads", 0));
  std::string dataset = flags.GetString("dataset", "songs");
  double zipf_s = flags.GetDouble("zipf", 1.3);

  std::printf("=== Section 11.4: machine time vs cluster size (%s) ===\n",
              dataset.c_str());
  BenchReport report("sec114_cluster_size");
  report.Add("dataset", dataset);
  report.Add("scale", scale);
  report.Add("threads", static_cast<int64_t>(threads));
  report.Add("zipf_s", zipf_s);
  TablePrinter table({"Workload", "Nodes", "Machine time", "Unmasked machine",
                      "Total time", "Straggler", "F1(%)"});
  // Two curves: the original (mildly skewed) workload, and a Zipf-heavy
  // variant whose hot blocking keys make node-count scaling flatten out
  // unless the skew-aware partitioner splits them.
  for (const char* wl : {"uniform", "zipf"}) {
    WorkloadOptions opt = DatasetOptions(dataset, scale, seed);
    bool zipf = std::string(wl) == "zipf";
    if (zipf) opt.zipf_s = zipf_s;
    auto data = GenerateByName(dataset, opt);
    for (int nodes : {5, 10, 15, 20}) {
      ClusterConfig ccfg = BenchClusterConfig(threads);
      ccfg.num_nodes = nodes;
      // At 1/300 data scale every job is dominated by fixed startup cost, so
      // node count would not matter — that is the far end of the paper's
      // diminishing-returns curve, not its interesting region. Slowing the
      // virtual cores (an explicit calibration constant of the simulator)
      // restores the compute-bound regime the paper's cluster operated in,
      // so the node-count scaling becomes visible.
      ccfg.core_speed_factor = 200.0;
      // The skewed curve runs with the skew-aware shuffle on: this is the
      // configuration a cloud deployment would use, and the straggler
      // column shows what it buys.
      if (zipf) ccfg.partitioner = ShufflePartitioner::kSkewAware;
      auto result = RunPipeline(*data, BenchFalconConfig(scale, seed),
                                BenchCrowdConfig(0.05, seed), ccfg);
      if (!result.ok()) {
        std::fprintf(stderr, "%s nodes=%d: %s\n", wl, nodes,
                     result.status().ToString().c_str());
        continue;
      }
      char straggler[32];
      std::snprintf(straggler, sizeof(straggler), "%.2f",
                    result->load.straggler_ratio);
      table.AddRow({wl, std::to_string(nodes),
                    result->metrics.machine_time.ToString(),
                    result->metrics.machine_unmasked.ToString(),
                    result->metrics.total_time.ToString(), straggler,
                    Pct(result->quality.f1)});
      std::string base =
          std::string(wl) + "/nodes_" + std::to_string(nodes);
      report.Add(base + "/machine_seconds",
                 result->metrics.machine_time.seconds);
      report.Add(base + "/total_seconds",
                 result->metrics.total_time.seconds);
      AddLoadMetrics(&report, base, result->load);
    }
  }
  table.Print();
  std::printf(
      "\nShape check vs paper: machine time falls with nodes; the 5->10 step\n"
      "gains the most, later steps show diminishing returns (per-job startup\n"
      "and task overheads stop scaling).\n");
  report.Write();
  return 0;
}
