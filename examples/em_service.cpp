// The paper's motivating scenario (Example 1): entity matching as a
// service. A user submits two CSV tables and a budget; the service runs the
// hands-off pipeline and returns the matches plus a report — no blocking
// rules, no feature engineering, no developer.
//
//   # demo mode (synthetic catalogs + simulated crowd):
//   ./build/examples/em_service --demo
//
//   # multi-tenant service mode: N tenants share one cluster under
//   # fair-share step scheduling, budget ledgers, and an admission cap:
//   ./build/examples/em_service --tenants 8 --workers 2 --max-resident 4
//
//   # real tables, you label the pairs yourself (Example 1's no-crowd path;
//   # one command line):
//   ./build/examples/em_service --a left.csv --b right.csv
//       --out matches.csv --rules rules.txt --interactive
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "crowd/cli_crowd.h"
#include "em_service_args.h"
#include "rules/serialize.h"
#include "session/service.h"
#include "table/csv.h"
#include "workload/generator.h"
#include "workload/quality.h"

using namespace falcon;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "em_service: %s\n", status.ToString().c_str());
  return 1;
}

/// One tenant's standing state in the multi-tenant demo: the synthetic
/// tables and the simulated crowd must outlive the service's sessions.
struct DemoTenant {
  std::string name;
  GeneratedDataset data;
  std::unique_ptr<SimulatedCrowd> crowd;
};

int RunMultiTenant(const ServiceArgs& args) {
  Cluster cluster{ClusterConfig{}};
  ServiceConfig scfg;
  scfg.max_resident_sessions = static_cast<size_t>(args.max_resident);
  EmService service(&cluster, scfg);

  // Heterogeneous tenants: workload sizes cycle x1..x4 so fair sharing has
  // something to balance, every tenant with the same per-tenant budget.
  std::deque<DemoTenant> tenants;  // deque: tenant addresses stay stable
  for (int i = 0; i < args.tenants; ++i) {
    DemoTenant& t = tenants.emplace_back();
    t.name = "tenant-" + std::to_string(i);
    WorkloadOptions opt;
    opt.size_a = 200 * (1 + i % 4);
    opt.size_b = 3 * opt.size_a;
    opt.seed = 77 + static_cast<uint64_t>(i);
    t.data = GenerateProducts(opt);
    SimulatedCrowdConfig ccfg;
    ccfg.error_rate = 0.05;
    ccfg.budget_cap = args.budget;
    ccfg.seed = opt.seed;
    GroundTruth* truth = &t.data.truth;
    t.crowd = std::make_unique<SimulatedCrowd>(
        ccfg, [truth](RowId a, RowId b) { return truth->IsMatch(a, b); });
  }
  uint64_t seed = 1000;
  for (auto& t : tenants) {
    TenantConfig tc;
    tc.budget_cap = args.budget;
    if (Status st = service.RegisterTenant(t.name, tc); !st.ok()) {
      return Fail(st);
    }
    FalconConfig config;
    config.sample_size = 8000;
    config.matcher_only_max_bytes = 1 << 20;  // small FV estimate: blocker plan
    config.estimate_accuracy = false;
    config.seed = seed++;
    Status st = service.Submit(t.name, t.name + "/job-0", &t.data.a,
                               &t.data.b, t.crowd.get(), config);
    if (!st.ok()) return Fail(st);
  }

  std::printf("multi-tenant demo: %d tenants, admission cap %d, %d workers\n",
              args.tenants, args.max_resident, args.workers);
  if (Status st = service.Drain(args.workers); !st.ok()) return Fail(st);

  ServiceStats stats = service.stats();
  std::printf("\n=== service report ===\n");
  std::printf("steps %llu  completed %llu  failed %llu  evictions %llu  "
              "peak resident %zu (cap %d)\n",
              static_cast<unsigned long long>(stats.steps),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.evictions),
              stats.peak_resident, args.max_resident);

  std::printf("%-12s %10s %10s %10s %8s %8s\n", "tenant", "vtime(s)",
              "crowd($)", "vruntime", "matches", "P/R");
  double min_share = 0.0, max_share = 0.0;
  for (auto& t : tenants) {
    auto ts = service.tenant_stats(t.name);
    if (!ts.ok()) return Fail(ts.status());
    if (&t == &tenants.front() || ts->vruntime_s < min_share) {
      min_share = ts->vruntime_s;
    }
    if (&t == &tenants.front() || ts->vruntime_s > max_share) {
      max_share = ts->vruntime_s;
    }
    auto result = service.TakeResult(t.name + "/job-0");
    if (!result.ok()) {
      std::printf("%-12s %10.2f %10.2f %10.2f %8s %8s  (%s)\n",
                  t.name.c_str(), ts->machine_vtime_s, ts->crowd_cost,
                  ts->vruntime_s, "FAILED", "-",
                  result.status().ToString().c_str());
      continue;
    }
    auto q = EvaluateMatches(result->matches, t.data.truth);
    char pr[32];
    std::snprintf(pr, sizeof(pr), "%2.0f/%2.0f", q.precision * 100,
                  q.recall * 100);
    std::printf("%-12s %10.2f %10.2f %10.2f %8zu %8s\n", t.name.c_str(),
                ts->machine_vtime_s, ts->crowd_cost, ts->vruntime_s,
                result->matches.size(), pr);
  }
  if (min_share > 0.0) {
    std::printf("fair-share spread (max/min tenant vruntime): %.2fx\n",
                max_share / min_share);
  }
  return stats.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = ParseServiceArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "em_service: %s\n%s\n",
                 parsed.status().ToString().c_str(), ServiceUsage());
    return 2;
  }
  ServiceArgs args = std::move(parsed).value();
  if (args.tenants > 0) return RunMultiTenant(args);
  if (!args.demo && (args.a_path.empty() || args.b_path.empty())) {
    std::fprintf(stderr, "%s\n", ServiceUsage());
    return 2;
  }

  // --- load the task ---------------------------------------------------------
  Table table_a;
  Table table_b;
  GroundTruth demo_truth;
  if (args.demo) {
    WorkloadOptions opt;
    opt.size_a = 400;
    opt.size_b = 1200;
    opt.seed = 77;
    auto data = GenerateProducts(opt);
    table_a = std::move(data.a);
    table_b = std::move(data.b);
    demo_truth = std::move(data.truth);
    std::printf("demo task: %zu x %zu synthetic products\n",
                table_a.num_rows(), table_b.num_rows());
  } else {
    auto a = ReadCsvFile(args.a_path, CsvOptions{});
    if (!a.ok()) return Fail(a.status());
    auto b = ReadCsvFile(args.b_path, CsvOptions{});
    if (!b.ok()) return Fail(b.status());
    table_a = std::move(a).value();
    table_b = std::move(b).value();
    std::printf("loaded %zu rows from %s, %zu rows from %s\n",
                table_a.num_rows(), args.a_path.c_str(), table_b.num_rows(),
                args.b_path.c_str());
  }

  // --- pick the labeling channel ----------------------------------------------
  Cluster cluster{ClusterConfig{}};
  std::unique_ptr<CrowdPlatform> crowd;
  if (args.interactive) {
    crowd = std::make_unique<CliCrowd>(&table_a, &table_b, &std::cin,
                                       &std::cout);
  } else if (args.demo) {
    SimulatedCrowdConfig ccfg;
    ccfg.error_rate = 0.05;
    ccfg.budget_cap = args.budget;
    GroundTruth* truth = &demo_truth;
    crowd = std::make_unique<SimulatedCrowd>(
        ccfg, [truth](RowId a, RowId b) { return truth->IsMatch(a, b); });
  } else {
    std::fprintf(stderr,
                 "real tables need --interactive (no crowd platform is "
                 "connected in this build)\n");
    return 2;
  }

  // --- run --------------------------------------------------------------------
  FalconConfig config;
  config.sample_size = 8000;
  config.matcher_only_max_bytes = 1 << 20;
  config.estimate_accuracy = !args.interactive;  // spare the human labeler
  FalconPipeline pipeline(&table_a, &table_b, crowd.get(), &cluster, config);
  auto result = pipeline.Run();
  if (!result.ok()) return Fail(result.status());

  // --- report + artifacts ------------------------------------------------------
  const RunMetrics& m = result->metrics;
  std::printf("\n=== match report ===\n");
  std::printf("matches:        %zu (from %zu candidate pairs)\n",
              result->matches.size(), result->candidates.size());
  std::printf("crowd:          %zu questions, $%.2f of $%.2f budget\n",
              m.questions, m.cost, args.budget);
  std::printf("time (virtual): crowd %s + machine %s = %s\n",
              m.crowd_time.ToString().c_str(),
              m.machine_unmasked.ToString().c_str(),
              m.total_time.ToString().c_str());
  if (m.has_accuracy_estimate) {
    std::printf("estimated:      P %.1f%% (+-%.1f)  post-blocking R %.1f%% "
                "(+-%.1f)\n",
                m.accuracy.precision * 100, m.accuracy.precision_margin * 100,
                m.accuracy.recall * 100, m.accuracy.recall_margin * 100);
  }
  if (args.demo) {
    auto q = EvaluateMatches(result->matches, demo_truth);
    std::printf("actual (demo):  P %.1f%%  R %.1f%%  F1 %.1f%%\n",
                q.precision * 100, q.recall * 100, q.f1 * 100);
  }

  // Matches CSV.
  Table out(Schema({{"a_row", AttrType::kNumeric},
                    {"b_row", AttrType::kNumeric}}));
  for (auto [a, b] : result->matches) {
    (void)out.AppendRow({std::to_string(a), std::to_string(b)});
  }
  if (Status st = WriteCsvFile(out, args.out_path); !st.ok()) return Fail(st);
  std::printf("wrote %zu matches to %s\n", out.num_rows(),
              args.out_path.c_str());

  // Learned rules, reviewable and reloadable.
  if (!args.rules_path.empty() && !result->sequence.rules.empty()) {
    std::ofstream rules_out(args.rules_path);
    rules_out << SerializeRuleSequence(result->sequence,
                                       pipeline.features());
    std::printf("wrote %zu blocking rules to %s\n",
                result->sequence.rules.size(), args.rules_path.c_str());
  }
  return 0;
}
