// Skew-aware sharded blocking: load-balance A/B of the shuffle partitioners.
//
// A Zipf-heavy vocabulary concentrates title tokens on a few head words, so
// a handful of A rows own most of the candidate pairs after prefix
// filtering; under the stable FNV shuffle whichever reduce partitions those
// hot blocks hash to become stragglers. This bench builds a uniform and a
// Zipf products workload, runs the index-backed blocking apply under both
// partitioners, and reports the per-task reduce-load distribution (max /
// mean / p99 task vtime, straggler ratio), the build-time BlockProfile the
// split decisions key off, and the headline reduce-makespan speedup. It also
// re-asserts the determinism contract: candidates must be byte-identical
// across partitioners and across local_threads {1, 4}, or the bench exits
// with an error.
//
// Acceptance shape: at high Zipf skew the skew partitioner's straggler
// ratio is <= 1.2 and the FNV reduce makespan is >= 2x the skew one. The
// uniform lane is the low-load control: with the same tables but a flat
// vocabulary almost every pair is pruned, tasks are overhead-dominated, and
// both partitioners land within measurement noise of each other — its value
// is the byte-identity check, not the makespan numbers.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "blocking/apply.h"
#include "blocking/filters.h"
#include "blocking/index_builder.h"
#include "harness.h"
#include "mapreduce/cluster.h"
#include "rules/feature.h"
#include "rules/rule.h"

using namespace falcon;
using namespace falcon::bench;

namespace {

// One workload's fixed inputs: data, features, the single-rule blocking
// sequence (low title similarity -> drop), and the prebuilt index catalog.
// The catalog is built once on a throwaway cluster — index build happens
// inside the crowd-masking window and is not part of the apply A/B.
struct Setup {
  GeneratedDataset data;
  FeatureSet fs;
  RuleSequence seq;
  IndexCatalog catalog;

  Setup(const WorkloadOptions& opt, double threshold) {
    data = GenerateProducts(opt);
    fs = FeatureSet::Generate(data.a, data.b);
    int jac_title = -1;
    for (const auto& f : fs.features()) {
      if (f.fn == SimFunction::kJaccard && f.tok == Tokenization::kWord &&
          f.name.find("(title,title)") != std::string::npos) {
        jac_title = f.id;
      }
    }
    if (jac_title < 0) {
      std::fprintf(stderr, "skew bench: no jaccard(title,title) feature\n");
      std::exit(1);
    }
    Rule r;
    r.predicates = {{jac_title, jac_title, PredOp::kLe, threshold}};
    r.selectivity = 0.05;
    seq.rules = {r};
    seq.selectivity = 0.05;

    Cluster build_cluster(BenchClusterConfig(1));
    IndexBuilder builder(&data.a, &build_cluster);
    builder.EnsureTokenStores(data.b, fs, &catalog);
    builder.Ensure(IndexBuilder::NeedsOfCnf(ToCnf(seq), fs), &catalog);
  }
};

struct RunOutcome {
  ApplyResult result;
  bool ok = false;
};

RunOutcome RunOnce(const Setup& s, ShufflePartitioner part, int threads,
                   int nodes, size_t budget) {
  ClusterConfig ccfg = BenchClusterConfig(threads);
  ccfg.num_nodes = nodes;
  ccfg.skew_pair_budget = budget;
  // Escape the startup-dominated regime (same calibration constant as the
  // cluster-size bench): slow virtual cores make the reduce phase
  // compute-bound, so task placement — the thing the partitioner changes —
  // is what the makespan measures.
  ccfg.core_speed_factor = 200.0;
  ccfg.partitioner = part;
  Cluster cluster(ccfg);
  auto res = ApplyBlockingRules(s.data.a, s.data.b, s.seq, s.fs, s.catalog,
                                &cluster, ApplyMethod::kApplyAll);
  RunOutcome out;
  if (!res.ok()) {
    std::fprintf(stderr, "apply failed (%s): %s\n",
                 ShufflePartitionerName(part),
                 res.status().ToString().c_str());
    return out;
  }
  out.result = std::move(*res);
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool smoke = std::getenv("FALCON_BENCH_SMOKE") != nullptr;
  double scale = flags.GetDouble("scale", smoke ? 0.15 : 1.0);
  uint64_t seed = flags.GetInt("seed", 7);
  int threads = static_cast<int>(flags.GetInt("threads", 0));
  int nodes = static_cast<int>(flags.GetInt("nodes", 10));
  double zipf_s = flags.GetDouble("zipf", 2.2);
  double threshold = flags.GetDouble("threshold", 0.4);
  // Pair budget per reduce shard (0 = auto: total/(bins*4)). The default
  // oversubscribes harder than auto so residual bin imbalance stays small
  // relative to the mean task vtime.
  size_t budget = static_cast<size_t>(flags.GetInt("budget", 1000));

  std::printf("=== Skew-aware sharded blocking: FNV vs skew partitioner ===\n");
  BenchReport report("skew");
  report.Add("scale", scale);
  report.Add("threads", static_cast<int64_t>(threads));
  report.Add("nodes", static_cast<int64_t>(nodes));
  report.Add("zipf_s", zipf_s);
  report.Add("threshold", threshold);
  report.Add("budget", static_cast<int64_t>(budget));

  WorkloadOptions base;
  // Few A rows over many B rows puts the apply job in the regime hashing
  // cannot fix: with ~#blocks <= #reduce slots, whole-block placement is
  // forced to leave slots idle behind the hot blocks, so splitting is the
  // only remedy (Section 7.3's skew discussion).
  base.size_a = static_cast<size_t>(
      flags.GetInt("size_a", static_cast<int64_t>(200 * scale)));
  base.size_b = static_cast<size_t>(
      flags.GetInt("size_b", static_cast<int64_t>(64000 * scale)));
  base.seed = seed;
  report.Add("size_a", static_cast<int64_t>(base.size_a));
  report.Add("size_b", static_cast<int64_t>(base.size_b));

  TablePrinter table({"Workload", "Partitioner", "Reduce makespan",
                      "Max task", "Mean task", "Straggler", "Pairs"});
  bool byte_identical = true;
  double zipf_speedup = 0.0;
  double zipf_skew_straggler = 0.0;

  for (const char* wl : {"uniform", "zipf"}) {
    WorkloadOptions opt = base;
    opt.zipf_s = (std::string(wl) == "zipf") ? zipf_s : 0.0;
    Setup s(opt, threshold);

    RunOutcome fnv = RunOnce(s, ShufflePartitioner::kStableHash, threads,
                             nodes, budget);
    RunOutcome skew = RunOnce(s, ShufflePartitioner::kSkewAware, threads,
                              nodes, budget);
    if (!fnv.ok || !skew.ok) return 1;

    // Determinism contract: both partitioners, serial and 4-thread, emit
    // the same candidate bytes in the same order.
    RunOutcome fnv1 = RunOnce(s, ShufflePartitioner::kStableHash, 1, nodes, budget);
    RunOutcome skew1 = RunOnce(s, ShufflePartitioner::kSkewAware, 1, nodes, budget);
    RunOutcome fnv4 = RunOnce(s, ShufflePartitioner::kStableHash, 4, nodes, budget);
    RunOutcome skew4 = RunOnce(s, ShufflePartitioner::kSkewAware, 4, nodes, budget);
    if (!fnv1.ok || !skew1.ok || !fnv4.ok || !skew4.ok) return 1;
    for (const RunOutcome* o : {&skew, &fnv1, &skew1, &fnv4, &skew4}) {
      if (fnv.result.pairs != o->result.pairs) byte_identical = false;
    }

    const BlockProfile& prof = skew.result.index_profile;
    std::string wls(wl);
    report.Add(wls + "/profile/num_blocks",
               static_cast<int64_t>(prof.num_blocks));
    report.Add(wls + "/profile/max_block",
               static_cast<int64_t>(prof.max_block));
    report.Add(wls + "/profile/p99_block",
               static_cast<int64_t>(prof.p99_block));
    report.Add(wls + "/profile/mean_block", prof.mean_block);
    report.Add(wls + "/profile/est_pairs",
               static_cast<double>(prof.est_pairs));
    report.Add(wls + "/profile/skew", prof.skew);

    struct Row {
      const char* part;
      const RunOutcome* o;
    };
    for (const Row& row : {Row{"fnv", &fnv}, Row{"skew", &skew}}) {
      const JobStats& job = row.o->result.main_job;
      const TaskLoadStats& load = job.reduce_load;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f", load.straggler_ratio);
      table.AddRow({wls, row.part, job.reduce_time.ToString(),
                    VDuration::Seconds(load.max_seconds).ToString(),
                    VDuration::Seconds(load.mean_seconds).ToString(), buf,
                    std::to_string(row.o->result.pairs.size())});
      std::string base_key = wls + "/" + row.part;
      report.Add(base_key + "/reduce_seconds", job.reduce_time.seconds);
      report.Add(base_key + "/apply_seconds", row.o->result.time.seconds);
      report.Add(base_key + "/pairs",
                 static_cast<int64_t>(row.o->result.pairs.size()));
      report.Add(base_key + "/skew_shards",
                 static_cast<int64_t>(job.counters[Counter::kSkewShards]));
      report.Add(
          base_key + "/skew_split_blocks",
          static_cast<int64_t>(job.counters[Counter::kSkewSplitBlocks]));
      AddLoadMetrics(&report, base_key + "/reduce", load);
    }

    double speedup = skew.result.main_job.reduce_time.seconds > 0.0
                         ? fnv.result.main_job.reduce_time.seconds /
                               skew.result.main_job.reduce_time.seconds
                         : 1.0;
    report.Add(wls + "/reduce_speedup", speedup);
    if (wls == "zipf") {
      zipf_speedup = speedup;
      zipf_skew_straggler =
          skew.result.main_job.reduce_load.straggler_ratio;
    }
  }

  report.Add("byte_identical", static_cast<int64_t>(byte_identical ? 1 : 0));
  table.Print();
  std::printf(
      "\nZipf workload: skew partitioner straggler ratio %.2f, reduce "
      "makespan speedup %.2fx over FNV.\n",
      zipf_skew_straggler, zipf_speedup);
  if (!byte_identical) {
    std::fprintf(stderr,
                 "FAIL: candidates differ across partitioners/threads\n");
    return 1;
  }
  report.Write();
  return 0;
}
