// Table 4: Falcon's run times per operator (first run of each data set).
//
// Paper shape: sample_pairs / gen_fvs / get_block_rules / sel_opt_seq /
// apply_matcher finish in seconds-to-minutes; the two crowd operators
// (al_matcher, eval_rules) dominate; apply_block_rules is largely masked
// to ~0 (its unmasked-equivalent time shown in parentheses).
#include <cstdio>

#include "harness.h"

using namespace falcon;
using namespace falcon::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  double error = flags.GetDouble("error", 0.05);
  uint64_t seed = flags.GetInt("seed", 100);

  std::printf(
      "=== Table 4: per-operator run times (first run per dataset) ===\n"
      "Machine rows show 'unmasked (raw)': raw is the operator's full\n"
      "machine time, unmasked its critical-path share after masking.\n\n");
  BenchReport report("table4_operators");
  report.Add("scale", scale);

  for (const char* name : {"products", "songs", "citations"}) {
    auto data = GenerateByName(name, DatasetOptions(name, scale, seed));
    auto result =
        RunPipeline(*data, BenchFalconConfig(scale, seed),
                    BenchCrowdConfig(error, seed), BenchClusterConfig());
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", name,
                   result.status().ToString().c_str());
      continue;
    }
    std::printf("--- %s ---\n", name);
    TablePrinter table({"Operator", "Time", "Kind"});
    for (const auto& op : result->metrics.operators) {
      std::string t;
      if (op.is_crowd) {
        t = op.raw.ToString();
      } else if (op.unmasked.seconds + 1e-9 < op.raw.seconds) {
        t = op.unmasked.ToString() + " (" + op.raw.ToString() + ")";
      } else {
        t = op.raw.ToString();
      }
      table.AddRow({op.name, t, op.is_crowd ? "crowd" : "machine"});
    }
    table.Print();
    std::printf("apply method: %s | spec-rule reuse: %s | candidates: %zu\n",
                ApplyMethodName(result->metrics.apply_method),
                result->metrics.spec_rule_reused ? "yes" : "no",
                result->metrics.candidate_size);
    report.Add(std::string(name) + "/apply_method",
               std::string(ApplyMethodName(result->metrics.apply_method)));
    AddLoadMetrics(&report, name, result->load);
    std::printf("\n");
  }
  report.Write();
  return 0;
}
