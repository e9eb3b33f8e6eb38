// Section 11.4: effect of the sample size |S|.
//
// Paper: growing the sample from 500K to 2M has negligible effect on F1 and
// only slightly increases run time and cost — 1M (or even 500K) is a good
// default. Here the sweep covers the same 4x range at bench scale.
#include <cstdio>

#include "harness.h"

using namespace falcon;
using namespace falcon::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  uint64_t seed = flags.GetInt("seed", 100);
  std::string dataset = flags.GetString("dataset", "songs");

  std::printf("=== Section 11.4: sample size sweep (%s) ===\n",
              dataset.c_str());
  TablePrinter table({"|S|", "F1(%)", "Blk.Recall(%)", "Total time", "Cost"});
  BenchReport report("sec114_sample_size");
  report.Add("scale", scale);
  auto data = GenerateByName(dataset, DatasetOptions(dataset, scale, seed));
  FalconConfig base = BenchFalconConfig(scale, seed);
  for (double mult : {0.5, 1.0, 2.0}) {
    FalconConfig cfg = base;
    cfg.sample_size = static_cast<size_t>(base.sample_size * mult);
    auto result = RunPipeline(*data, cfg, BenchCrowdConfig(0.05, seed),
                              BenchClusterConfig());
    if (!result.ok()) {
      std::fprintf(stderr, "|S|x%.1f: %s\n", mult,
                   result.status().ToString().c_str());
      continue;
    }
    table.AddRow({std::to_string(cfg.sample_size), Pct(result->quality.f1),
                  Pct(result->blocking_recall),
                  result->metrics.total_time.ToString(),
                  Money(result->metrics.cost)});
    std::string base = "sample_" + std::to_string(cfg.sample_size);
    report.Add(base + "/f1", result->quality.f1);
    AddLoadMetrics(&report, base, result->load);
  }
  table.Print();
  std::printf(
      "\nShape check vs paper: F1 and blocking recall are insensitive to the\n"
      "sample size over a 4x range; time grows only mildly.\n");
  report.Write();
  return 0;
}
