// Figure 10: performance across varying table sizes (25/50/75/100%).
//
// Paper (simulated crowd, 5% error, 1.5m HIT latency): as size grows,
// F1 stays stable, run time grows sublinearly, cost grows sublinearly.
#include <cstdio>

#include "harness.h"

using namespace falcon;
using namespace falcon::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  int runs = static_cast<int>(flags.GetInt("runs", 1));

  BenchReport report("fig10_scaling");
  report.Add("scale", scale);
  report.Add("runs", static_cast<int64_t>(runs));
  for (const char* dataset : {"songs", "citations"}) {
    std::printf("=== Figure 10: size sweep on %s (%d run(s) per point) ===\n",
                dataset, runs);
    TablePrinter table({"Size", "|A|", "|B|", "F1(%)", "Total time", "Cost",
                        "Machine", "Candidates"});
    for (double frac : {0.25, 0.50, 0.75, 1.00}) {
      double f1 = 0, cost = 0;
      VDuration total, machine;
      size_t cand = 0, size_a = 0, size_b = 0;
      int ok_runs = 0;
      for (int run = 0; run < runs; ++run) {
        uint64_t seed = 500 + run;
        auto opt = DatasetOptions(dataset, scale * frac, seed);
        size_a = opt.size_a;
        size_b = opt.size_b;
        auto data = GenerateByName(dataset, opt);
        // The sample shrinks with the data (paper keeps |S| fixed at 1M for
        // million-tuple tables; at bench scale a fixed sample would exceed
        // small inputs).
        auto cfg = BenchFalconConfig(scale * frac, seed);
        auto result = RunPipeline(*data, cfg, BenchCrowdConfig(0.05, seed),
                                  BenchClusterConfig());
        if (!result.ok()) {
          std::fprintf(stderr, "%s %.0f%% run %d: %s\n", dataset, frac * 100,
                       run, result.status().ToString().c_str());
          continue;
        }
        ++ok_runs;
        f1 += result->quality.f1;
        cost += result->metrics.cost;
        total += result->metrics.total_time;
        machine += result->metrics.machine_time;
        cand += result->metrics.candidate_size;
        std::string base = std::string(dataset) + "/size_" +
                           std::to_string(static_cast<int>(frac * 100)) +
                           "/run_" + std::to_string(run);
        report.Add(base + "/total_seconds",
                   result->metrics.total_time.seconds);
        AddLoadMetrics(&report, base, result->load);
      }
      if (ok_runs == 0) continue;
      double n = ok_runs;
      table.AddRow({Pct(frac, 0) + "%", std::to_string(size_a),
                    std::to_string(size_b), Pct(f1 / n),
                    (total * (1.0 / n)).ToString(), Money(cost / n),
                    (machine * (1.0 / n)).ToString(),
                    std::to_string(cand / ok_runs)});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Shape check vs paper: F1 stable across sizes; total time and cost\n"
      "grow sublinearly with table size.\n");
  report.Write();
  return 0;
}
