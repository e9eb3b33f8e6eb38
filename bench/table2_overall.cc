// Tables 2 and 3: overall performance of Falcon.
//
// Paper (Table 2, averages of three runs):
//   Products  P 90.9  R 74.5  F1 81.9   $57.6 (960)   52m / 13h 7m / 13h 25m
//   Songs     P 96.0  R 99.3  F1 97.6   $54.0 (900)   2h 7m / 11h 25m / 11h 58m
//   Citations P 92.0  R 98.5  F1 95.2   $65.5 (1087)  2h 32m / 13h 33m / 14h 37m
// Shapes to reproduce: high F1 at tens of dollars; crowd time dominates
// machine time; total < machine + crowd (masking); candidate sets a tiny
// fraction of A x B yet retaining nearly all matches.
//
// --all-runs additionally prints every individual run (Table 3).
#include <cstdio>

#include "harness.h"

using namespace falcon;
using namespace falcon::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  int runs = static_cast<int>(flags.GetInt("runs", 2));
  double error = flags.GetDouble("error", 0.05);
  bool all_runs = flags.GetBool("all-runs") || flags.GetBool("all_runs");

  std::printf("=== Table 2/3: overall performance (scale %.2f, %d run(s), "
              "crowd error %.0f%%) ===\n",
              scale, runs, error * 100);

  BenchReport report("table2_overall");
  report.Add("scale", scale);
  report.Add("runs", static_cast<int64_t>(runs));
  TablePrinter avg({"Dataset", "P(%)", "R(%)", "F1(%)", "Cost(#Q)",
                    "Machine", "Crowd", "Total", "Cand.Set", "Blk.Recall"});
  TablePrinter per({"Dataset", "Run", "P(%)", "R(%)", "F1(%)", "Cost(#Q)",
                    "Machine", "Crowd", "Total", "Cand.Set"});

  for (const char* name : {"products", "songs", "citations"}) {
    double p = 0, r = 0, f1 = 0, cost = 0, brecall = 0;
    size_t questions = 0;
    VDuration machine, crowd_t, total;
    size_t cand_min = SIZE_MAX, cand_max = 0;
    for (int run = 0; run < runs; ++run) {
      uint64_t seed = 100 + run;
      auto data = GenerateByName(name, DatasetOptions(name, scale, seed));
      auto result = RunPipeline(*data, BenchFalconConfig(scale, seed),
                                BenchCrowdConfig(error, seed),
                                BenchClusterConfig());
      if (!result.ok()) {
        std::fprintf(stderr, "%s run %d: %s\n", name, run,
                     result.status().ToString().c_str());
        continue;
      }
      p += result->quality.precision;
      r += result->quality.recall;
      f1 += result->quality.f1;
      cost += result->metrics.cost;
      questions += result->metrics.questions;
      machine += result->metrics.machine_time;
      crowd_t += result->metrics.crowd_time;
      total += result->metrics.total_time;
      brecall += result->blocking_recall;
      cand_min = std::min(cand_min, result->metrics.candidate_size);
      cand_max = std::max(cand_max, result->metrics.candidate_size);
      per.AddRow({name, "Run " + std::to_string(run + 1),
                  Pct(result->quality.precision), Pct(result->quality.recall),
                  Pct(result->quality.f1),
                  Money(result->metrics.cost) + " (" +
                      std::to_string(result->metrics.questions) + ")",
                  result->metrics.machine_time.ToString(),
                  result->metrics.crowd_time.ToString(),
                  result->metrics.total_time.ToString(),
                  std::to_string(result->metrics.candidate_size)});
      std::string base = std::string(name) + "/run_" + std::to_string(run);
      report.Add(base + "/f1", result->quality.f1);
      report.Add(base + "/total_seconds", result->metrics.total_time.seconds);
      AddLoadMetrics(&report, base, result->load);
    }
    double n = runs;
    avg.AddRow({name, Pct(p / n), Pct(r / n), Pct(f1 / n),
                Money(cost / n) + " (" +
                    std::to_string(questions / runs) + ")",
                (machine * (1.0 / n)).ToString(),
                (crowd_t * (1.0 / n)).ToString(),
                (total * (1.0 / n)).ToString(),
                std::to_string(cand_min) + " - " + std::to_string(cand_max),
                Pct(brecall / n)});
  }
  avg.Print();
  if (all_runs) {
    std::printf("\n--- Table 3: all runs ---\n");
    per.Print();
  }

  std::printf(
      "\nShape check vs paper: crowd time >> machine time on MTurk-style\n"
      "latency; total time < crowd + machine (masking); blocking recall\n"
      "near 100%%; cost well under the $349.60 cap.\n");
  report.Write();
  return 0;
}
