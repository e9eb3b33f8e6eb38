// Section 11.1: the drug-matching deployment with an in-house crowd of one.
//
// Paper: 453K x 451K drug tables; one scientist labeled 830 pairs in 1h 37m;
// machine time 2h 10m was 57% of total; masking cut it 49% to 1h 6m, total
// 2h 42m; 99.18% precision / 95.29% recall.
// Shape: with a fast in-house crowd, machine time is a major share of total
// time and masking visibly reduces it.
#include <cstdio>

#include "harness.h"

using namespace falcon;
using namespace falcon::bench;

namespace {

struct DrugRun {
  QualityMetrics q;
  RunMetrics m;
  TaskLoadStats load;
};

Result<DrugRun> Run(const GeneratedDataset& data, const FalconConfig& cfg) {
  Cluster cluster(BenchClusterConfig());
  OracleCrowdConfig ccfg;
  ccfg.seconds_per_pair = VDuration::Seconds(2.0);
  OracleCrowd crowd(ccfg, data.truth.MakeOracle());
  FalconPipeline pipeline(&data.a, &data.b, &crowd, &cluster, cfg);
  FALCON_ASSIGN_OR_RETURN(MatchResult res, pipeline.Run());
  DrugRun out;
  out.q = EvaluateMatches(res.matches, data.truth);
  out.m = res.metrics;
  out.load = RollupTaskLoad(cluster.JobHistorySnapshot());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  uint64_t seed = flags.GetInt("seed", 100);

  std::printf("=== Section 11.1: drug matching with an in-house crowd of one "
              "===\n\n");
  auto data = GenerateByName("drugs", DatasetOptions("drugs", scale, seed));
  FalconConfig masked = BenchFalconConfig(scale, seed);
  FalconConfig unmasked = masked;
  unmasked.enable_masking = false;

  auto with = Run(*data, masked);
  auto without = Run(*data, unmasked);
  if (!with.ok() || !without.ok()) {
    std::fprintf(stderr, "run failed: %s / %s\n",
                 with.status().ToString().c_str(),
                 without.status().ToString().c_str());
    return 1;
  }
  BenchReport report("sec111_drug_matching");
  report.Add("scale", scale);
  TablePrinter table({"Config", "P(%)", "R(%)", "Questions", "Crowd time",
                      "Unmasked machine", "Total", "Machine share(%)"});
  auto add = [&](const char* label, const DrugRun& r) {
    double share = r.m.total_time.seconds > 0
                       ? r.m.machine_unmasked.seconds / r.m.total_time.seconds
                       : 0.0;
    table.AddRow({label, Pct(r.q.precision, 2), Pct(r.q.recall, 2),
                  std::to_string(r.m.questions),
                  r.m.crowd_time.ToString(),
                  r.m.machine_unmasked.ToString(), r.m.total_time.ToString(),
                  Pct(share, 0)});
  };
  add("masking OFF", *without);
  add("masking ON", *with);
  AddLoadMetrics(&report, "masking_off", without->load);
  AddLoadMetrics(&report, "masking_on", with->load);
  table.Print();
  double reduction =
      without->m.machine_unmasked.seconds > 0
          ? 1.0 - with->m.machine_unmasked.seconds /
                      without->m.machine_unmasked.seconds
          : 0.0;
  std::printf("\nMasking reduced unmasked machine time by %s%% "
              "(paper: 49%%).\n",
              Pct(reduction, 0).c_str());
  std::printf(
      "Shape check vs paper: with a fast in-house crowd, machine time is a\n"
      "large share of total time, so masking matters even more than on\n"
      "Mechanical Turk; precision and recall stay high.\n");
  report.Write();
  return 0;
}
