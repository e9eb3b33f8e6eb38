// Table 5: effect of the masking optimizations on unmasked machine time.
//
// Paper: unoptimized machine time U (18m / 2h 12m / 1h 46m) drops to
// O (16m / 39m / 40m) — reductions of 11-70% — and each ablated column
// (O-O1 index prebuild, O-O2 speculative execution, O-O3 pair-selection
// masking) sits between O and U.
#include <cstdio>

#include "harness.h"

using namespace falcon;
using namespace falcon::bench;

namespace {

VDuration UnmaskedTime(const char* name, double scale, double error,
                       uint64_t seed, bool masking, bool o1, bool o2,
                       bool o3, BenchReport* report, const char* config) {
  auto data = GenerateByName(name, DatasetOptions(name, scale, seed));
  FalconConfig cfg = BenchFalconConfig(scale, seed);
  cfg.enable_masking = masking;
  cfg.mask_index_building = o1;
  cfg.mask_speculative_execution = o2;
  cfg.mask_pair_selection = o3;
  // Drop the run-time term from sequence scoring for this ablation: with
  // gamma > 0 the selected sequence depends on MEASURED per-rule times, so
  // the U and O runs can pick different sequences with very different
  // candidate sets, and that variance swamps the masking signal this table
  // is meant to isolate. With gamma = 0 every config learns the identical
  // plan and only the schedule differs.
  cfg.score_gamma = 0.0;
  auto result = RunPipeline(*data, cfg, BenchCrowdConfig(error, seed),
                            BenchClusterConfig());
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", name,
                 result.status().ToString().c_str());
    return VDuration::Zero();
  }
  std::string base = std::string(name) + "/" + config;
  report->Add(base + "/unmasked_seconds",
              result->metrics.machine_unmasked.seconds);
  AddLoadMetrics(report, base, result->load);
  return result->metrics.machine_unmasked;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  // 15 full pipeline runs (5 configs x 3 datasets): default to a slightly
  // smaller scale than the other benches to keep the suite's wall time
  // reasonable; the U-vs-O shape is scale-independent.
  double scale = flags.GetDouble("scale", 0.75);
  double error = flags.GetDouble("error", 0.05);
  uint64_t seed = flags.GetInt("seed", 100);

  std::printf("=== Table 5: masking optimizations vs unmasked machine time "
              "===\n(U = all masking off; O = all on; O-Ox = optimization x "
              "ablated)\n\n");
  BenchReport report("table5_masking");
  report.Add("scale", scale);
  TablePrinter table(
      {"Dataset", "U", "O", "Reduction", "O-O1", "O-O2", "O-O3"});
  for (const char* name : {"products", "songs", "citations"}) {
    VDuration u = UnmaskedTime(name, scale, error, seed, false, false,
                               false, false, &report, "U");
    VDuration o = UnmaskedTime(name, scale, error, seed, true, true, true,
                               true, &report, "O");
    VDuration o1 = UnmaskedTime(name, scale, error, seed, true, false, true,
                                true, &report, "O-O1");
    VDuration o2 = UnmaskedTime(name, scale, error, seed, true, true, false,
                                true, &report, "O-O2");
    VDuration o3 = UnmaskedTime(name, scale, error, seed, true, true, true,
                                false, &report, "O-O3");
    double reduction =
        u.seconds > 0 ? (u.seconds - o.seconds) / u.seconds : 0.0;
    table.AddRow({name, u.ToString(), o.ToString(),
                  Pct(reduction, 0) + "%", o1.ToString(), o2.ToString(),
                  o3.ToString()});
  }
  table.Print();
  std::printf(
      "\nShape check vs paper: O < U (11-70%% reduction in the paper); every\n"
      "single-ablation column lies between O and U.\n");
  report.Write();
  return 0;
}
