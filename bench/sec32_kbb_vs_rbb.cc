// Section 3.2: key-based blocking (KBB) vs rule-based blocking (RBB) recall.
//
// Paper: extensive KBB effort yields recalls of 72.6 / 98.6 / 38.8% on
// Products / Songs / Citations, while learned rule-based blocking reaches
// 98.09 / 99.99 / 99.67%. Shape: RBB recall is near-perfect everywhere;
// KBB loses real matches wherever keys are dirty or missing.
#include <cstdio>

#include "blocking/kbb.h"
#include "blocking/sorted_neighborhood.h"
#include "harness.h"

using namespace falcon;
using namespace falcon::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  uint64_t seed = flags.GetInt("seed", 100);

  std::printf("=== Section 3.2: KBB vs RBB blocking recall ===\n\n");
  TablePrinter table({"Dataset", "KBB key", "KBB recall(%)",
                      "KBB(first-token) recall(%)", "SNB(w=10) recall(%)",
                      "RBB recall(%)", "Paper KBB", "Paper RBB"});
  BenchReport report("sec32_kbb_vs_rbb");
  report.Add("scale", scale);
  struct Setup {
    const char* name;
    const char* key;
    const char* paper_kbb;
    const char* paper_rbb;
  };
  Setup setups[] = {
      {"products", "modelno", "72.6", "98.09"},
      {"songs", "title", "98.6", "99.99"},
      {"citations", "title", "38.8", "99.67"},
  };
  for (const auto& s : setups) {
    auto data = GenerateByName(s.name, DatasetOptions(s.name, scale, seed));
    Cluster cluster(BenchClusterConfig());
    int col = data->a.schema().IndexOf(s.key);
    auto kbb = KeyBasedBlocking(data->a, data->b, col, col, &cluster);
    auto kbb_soft = FirstTokenBlocking(data->a, data->b, col, col, &cluster);
    auto snb =
        SortedNeighborhoodBlocking(data->a, data->b, col, col, 10, &cluster);
    auto rbb = RunPipeline(*data, BenchFalconConfig(scale, seed),
                           BenchCrowdConfig(0.05, seed),
                           BenchClusterConfig());
    std::string rbb_recall = "-";
    if (rbb.ok()) rbb_recall = Pct(rbb->blocking_recall, 2);
    if (rbb.ok()) {
      report.Add(std::string(s.name) + "/rbb_recall", rbb->blocking_recall);
      AddLoadMetrics(&report, s.name, rbb->load);
    }
    table.AddRow({s.name, s.key, Pct(BlockingRecall(kbb.pairs, data->truth), 2),
                  Pct(BlockingRecall(kbb_soft.pairs, data->truth), 2),
                  Pct(BlockingRecall(snb.pairs, data->truth), 2),
                  rbb_recall, s.paper_kbb, s.paper_rbb});
  }
  table.Print();
  std::printf(
      "\nShape check vs paper: learned rule-based blocking retains (nearly)\n"
      "all true matches; exact-key blocking loses matches to typos and\n"
      "missing keys.\n");
  report.Write();
  return 0;
}
