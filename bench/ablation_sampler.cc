// Ablation (DESIGN.md): the token-biased sampler of Section 5 vs naive
// uniform sampling.
//
// The paper argues uniform samples of A x B contain almost no matching
// pairs, starving active learning; its sampler pairs each sampled B tuple
// with y/2 token-sharing A tuples. This bench quantifies the difference:
// positives in S, and the end-to-end effect on blocking recall and F1.
#include <cstdio>

#include "core/sample_pairs.h"
#include "harness.h"

using namespace falcon;
using namespace falcon::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  uint64_t seed = flags.GetInt("seed", 100);

  std::printf("=== Ablation: token-biased sampling (Section 5) vs uniform "
              "===\n\n");
  TablePrinter table({"Dataset", "Sampler", "Matches in S", "F1(%)",
                      "Blk.Recall(%)", "Outcome"});
  BenchReport report("ablation_sampler");
  report.Add("scale", scale);
  // Products only: a uniform-sampled run can learn a near-useless blocker,
  // and on the bigger datasets the resulting huge candidate set makes the
  // demonstration needlessly expensive — the failure shows just as clearly
  // here.
  for (const char* name : {"products"}) {
    auto data = GenerateByName(name, DatasetOptions(name, scale, seed));
    for (auto strategy :
         {SampleStrategy::kTokenBiased, SampleStrategy::kUniformRandom}) {
      FalconConfig cfg = BenchFalconConfig(scale, seed);
      cfg.sample_strategy = strategy;
      // Count positives in the sample first (cheap, separate cluster).
      Cluster probe_cluster(BenchClusterConfig());
      Rng rng(seed);
      auto sample = SamplePairs(data->a, data->b, cfg.sample_size,
                                cfg.sample_y, &probe_cluster, &rng,
                                strategy);
      size_t in_sample = 0;
      if (sample.ok()) {
        for (auto [a, b] : sample->pairs) {
          in_sample += data->truth.IsMatch(a, b) ? 1 : 0;
        }
      }
      auto result = RunPipeline(*data, cfg, BenchCrowdConfig(0.05, seed),
                                BenchClusterConfig());
      const char* label = strategy == SampleStrategy::kTokenBiased
                              ? "token-biased"
                              : "uniform";
      if (!result.ok()) {
        table.AddRow({name, label, std::to_string(in_sample), "-", "-",
                      result.status().ToString().substr(0, 36)});
        continue;
      }
      table.AddRow({name, label, std::to_string(in_sample),
                    Pct(result->quality.f1), Pct(result->blocking_recall),
                    "ok"});
      std::string base = std::string(name) + "/" + label;
      report.Add(base + "/f1", result->quality.f1);
      AddLoadMetrics(&report, base, result->load);
    }
  }
  table.Print();
  std::printf(
      "\nShape check: uniform samples contain a handful of positives (or\n"
      "none), so the learned blocker is weak or learning fails outright;\n"
      "the Section 5 sampler seeds S with enough matches to learn from.\n");
  report.Write();
  return 0;
}
