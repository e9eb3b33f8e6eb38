// Section 11.2 (apply_blocking_rules): the six physical operators compared,
// plus the mapper-memory sweep.
//
// Paper shape: apply_all fastest when its indexes fit (e.g. 10m 19s vs
// 1h 3m / 1h 40m / 1h 45m for AG/AC/AP on a Songs run); MapSide/ReduceSplit
// only complete on the smallest data set and are killed elsewhere; under
// reduced memory (2G -> 1G -> 500M) AA/AG/AC stop fitting while AP still
// works; Falcon's selection rule usually picks the best operator.
//
// Exits nonzero when no dataset yields a rule sequence, when the operator
// SelectApplyMethod picks fails, or when two operators that run at one
// memory level keep different candidates.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "blocking/apply.h"
#include "blocking/index_builder.h"
#include "core/pipeline.h"
#include "harness.h"

using namespace falcon;
using namespace falcon::bench;

namespace {

/// Learns a blocking-rule sequence by running the pipeline once.
Result<RuleSequence> LearnSequence(const GeneratedDataset& data,
                                   double scale, uint64_t seed, int threads) {
  auto run =
      RunPipeline(data, BenchFalconConfig(scale, seed),
                  BenchCrowdConfig(0.05, seed), BenchClusterConfig(threads));
  if (!run.ok()) return run.status();
  if (run->sequence.rules.empty()) {
    return Status::Internal("pipeline produced no rule sequence");
  }
  return run->sequence;
}

/// The part of a baseline's virtual time that grows with |A| x |B|: the
/// makespan of the phase that checks every pair (MapSide's map phase,
/// ReduceSplit's reduce phase) less the fixed cost its busiest slot pays,
/// the task overhead plus `setup` (MapSide's table load) for each of the
/// ceil(tasks / slots) tasks that slot runs. Job startup, the shuffle and
/// ReduceSplit's map phase, which grows with |B| alone, are left out.
double PairWorkSeconds(VDuration makespan, size_t tasks, int slots,
                       double setup, const Cluster& cluster) {
  const size_t waves = (tasks + slots - 1) / slots;
  const double fixed = static_cast<double>(waves) *
                       (cluster.config().task_overhead.seconds + setup);
  return std::max(0.0, makespan.seconds - fixed);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double scale = flags.GetDouble("scale", 1.0);
  uint64_t seed = flags.GetInt("seed", 100);
  int threads = static_cast<int>(flags.GetInt("threads", 0));
  // Paper-scale kill limit for the enumerate-A-x-B baselines, applied to
  // their virtual time with the measured pair work extrapolated to paper
  // scale.
  VDuration limit = VDuration::Minutes(flags.GetDouble("kill-minutes", 60));

  std::printf("=== Section 11.2: physical operators for apply_blocking_rules "
              "===\n\n");
  BenchReport report("sec112_physical_ops");
  report.Add("scale", scale);
  report.Add("threads", static_cast<int64_t>(threads));
  int datasets_compared = 0;
  int failures = 0;
  for (const char* name : {"products", "songs", "citations"}) {
    auto data = GenerateByName(name, DatasetOptions(name, scale, seed));
    auto seq = LearnSequence(*data, scale, seed, threads);
    if (!seq.ok()) {
      std::fprintf(stderr, "%s: %s\n", name, seq.status().ToString().c_str());
      continue;
    }
    ++datasets_compared;
    FeatureSet fs = FeatureSet::Generate(data->a, data->b);
    std::printf("--- %s (%zu rules in sequence) ---\n", name,
                seq->rules.size());

    TablePrinter table({"Memory", "Operator", "Virtual time",
                        "Pairs examined", "Candidates", "Selected?"});
    const double paper_pairs = 1e12;  // ~1M x 1M (Songs)
    const double bench_pairs = static_cast<double>(data->a.num_rows()) *
                               static_cast<double>(data->b.num_rows());
    // Memory sweep mirroring the paper's 2G / 1G / 500M.
    for (size_t mem_mb : {8, 2, 1}) {
      ClusterConfig ccfg = BenchClusterConfig(threads);
      ccfg.mapper_memory_bytes = mem_mb * 1024 * 1024;
      Cluster cluster(ccfg);
      IndexCatalog catalog;
      IndexBuilder builder(&data->a, &cluster);
      CnfRule q = ToCnf(*seq);
      // Token stores + bound features: the operators below run the
      // dictionary-encoded path, as the pipeline does. The catalog is
      // per-iteration, so unbind before it is destroyed (end of loop body).
      builder.EnsureTokenStores(data->b, fs, &catalog);
      builder.Ensure(IndexBuilder::NeedsOfCnf(q, fs), &catalog);
      fs.BindTokenStores(catalog.mutable_store(&data->a),
                         catalog.mutable_store(&data->b));
      ApplyMethod chosen =
          SelectApplyMethod(data->a, data->b, *seq, fs, catalog, cluster);
      // Sorted candidates of the first operator that ran at this level.
      std::vector<CandidatePair> reference;
      const char* reference_op = nullptr;
      for (ApplyMethod m :
           {ApplyMethod::kApplyAll, ApplyMethod::kApplyGreedy,
            ApplyMethod::kApplyConjunct, ApplyMethod::kApplyPredicate,
            ApplyMethod::kMapSide, ApplyMethod::kReduceSplit}) {
        auto res = ApplyBlockingRules(data->a, data->b, *seq, fs, catalog,
                                      &cluster, m);
        std::string time;
        std::string cands = "-";
        std::string examined = "-";
        if (res.ok()) {
          // To the millisecond: VDuration::ToString rounds to whole
          // seconds above one, where every operator here reads "2s".
          char seconds[32];
          std::snprintf(seconds, sizeof(seconds), "%.3fs", res->time.seconds);
          time = seconds;
          cands = std::to_string(res->pairs.size());
          examined = std::to_string(res->candidates_examined);
          std::string base = std::string(name) + "/" +
                             std::to_string(mem_mb) + "MB/" +
                             ApplyMethodName(m);
          report.Add(base + "/virtual_seconds", res->time.seconds);
          report.Add(base + "/candidates",
                     static_cast<int64_t>(res->pairs.size()));
          AddLoadMetrics(&report, base + "/reduce",
                         res->main_job.reduce_load);
          // The bench data is ~1e5x smaller than the paper's, so the
          // baselines' pair work, exactly proportional to |A|x|B|, is
          // extrapolated to paper scale before the kill limit applies;
          // their fixed costs stay as measured.
          if (m == ApplyMethod::kMapSide || m == ApplyMethod::kReduceSplit) {
            const JobStats& job = res->main_job;
            const double work =
                m == ApplyMethod::kMapSide
                    ? PairWorkSeconds(
                          job.map_time, job.num_map_tasks,
                          cluster.total_map_slots(),
                          IndexLoadSeconds(std::min(data->a.MemoryUsage(),
                                                    data->b.MemoryUsage())),
                          cluster)
                    : PairWorkSeconds(job.reduce_time, job.num_reduce_tasks,
                                      cluster.total_reduce_slots(), 0.0,
                                      cluster);
            const VDuration at_paper_scale = VDuration::Seconds(
                res->time.seconds + work * (paper_pairs / bench_pairs - 1.0));
            report.Add(base + "/paper_scale_seconds", at_paper_scale.seconds);
            time += std::string(at_paper_scale > limit ? " [KILLED " : " [") +
                    "at paper scale: " + at_paper_scale.ToString() + "]";
          }
          std::vector<CandidatePair> pairs = std::move(res->pairs);
          std::sort(pairs.begin(), pairs.end());
          if (reference_op == nullptr) {
            reference = std::move(pairs);
            reference_op = ApplyMethodName(m);
          } else if (pairs != reference) {
            std::fprintf(stderr, "%s at %zu MB: %s keeps %zu candidates, %s "
                         "keeps %zu\n", name, mem_mb, ApplyMethodName(m),
                         pairs.size(), reference_op, reference.size());
            ++failures;
          }
        } else {
          time = res.status().ToString().substr(0, 40);
          if (m == chosen) {
            std::fprintf(stderr, "%s at %zu MB: selected operator %s failed: "
                         "%s\n", name, mem_mb, ApplyMethodName(m),
                         res.status().ToString().c_str());
            ++failures;
          }
        }
        table.AddRow({std::to_string(mem_mb) + "MB", ApplyMethodName(m),
                      time, examined, cands,
                      m == chosen ? "<- selected" : ""});
      }
      fs.BindTokenStores(nullptr, nullptr);
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Shape check vs paper: index-based operators examine a small share of\n"
      "A x B, the baselines all of it; the paper kills the baselines on its\n"
      "larger sets, and the bracketed paper-scale estimate says whether\n"
      "these would exceed --kill-minutes; as memory shrinks apply_all should\n"
      "stop fitting before apply_conjunct, which stops before\n"
      "apply_predicate; Falcon's rule selects a fitting fast operator at\n"
      "every memory level.\n");
  report.Add("datasets_compared", static_cast<int64_t>(datasets_compared));
  report.Add("failures", static_cast<int64_t>(failures));
  report.Write();
  if (datasets_compared == 0) {
    std::fprintf(stderr, "FAIL: no dataset yielded a rule sequence\n");
    return 1;
  }
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %d operator check(s) failed\n", failures);
    return 1;
  }
  return 0;
}
