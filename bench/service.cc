// Multi-tenant service scheduler bench: throughput, step latency, fairness.
//
// N tenants share one EmService; tenant-00 is a "heavy" tenant submitting
// several sessions while every other tenant submits one, so a scheduler
// that rotates over *sessions* (the plain round-robin baseline below) hands
// the heavy tenant a multiple of everyone else's share. The service's
// deficit-style fair queuing must keep per-tenant shares level instead:
// measured at the last moment every tenant still has a live session (while
// tenants genuinely contend), the max/min per-tenant machine-vtime ratio
// is the headline fairness number.
// The baseline lane re-runs the identical submission mix through bare
// WorkflowSessions stepped round-robin — all resident at once (memory
// unbounded by any admission cap) — and reports the same ratio, which grows
// with the heavy tenant's session count.
//
// Also reported: sessions/hour, scheduler-step wall latency p50/p99 across
// worker threads, and eviction/residency counters proving the admission cap
// held under queue pressure.
//
// Acceptance shape (enforced outside smoke mode, at --tenants >= 32): the
// service's fairness ratio is <= 1.5 while the baseline's is >= 2x larger,
// and peak residency never exceeds the admission cap.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "session/service.h"

using namespace falcon;
using namespace falcon::bench;

namespace {

FalconConfig TenantFalconConfig(uint64_t seed) {
  FalconConfig cfg;
  // Enough active-learning rounds that every tenant is still live for many
  // scheduler steps: fair-share convergence is bounded by one step's charge,
  // so the ratio is only meaningful once per-tenant totals span dozens of
  // steps.
  cfg.al_max_iterations = 6;
  cfg.deterministic_rule_cost = true;
  cfg.estimate_accuracy = false;
  cfg.seed = seed;
  return cfg;
}

/// One submission's standing inputs (tables + crowd outlive the sessions).
struct Job {
  std::string tenant;
  std::string id;
  GeneratedDataset data;
  std::unique_ptr<SimulatedCrowd> crowd;
  FalconConfig config;
};

std::deque<Job> MakeJobs(int tenants, int heavy_sessions, int light_sessions,
                         size_t rows_a) {
  std::deque<Job> jobs;
  uint64_t seed = 100;
  for (int t = 0; t < tenants; ++t) {
    char name[32];
    std::snprintf(name, sizeof(name), "tenant-%02d", t);
    const int sessions = t == 0 ? heavy_sessions : light_sessions;
    for (int s = 0; s < sessions; ++s, ++seed) {
      Job& job = jobs.emplace_back();
      job.tenant = name;
      job.id = std::string(name) + "/job-" + std::to_string(s);
      WorkloadOptions opt;
      opt.size_a = rows_a;
      opt.size_b = 2 * rows_a;
      opt.seed = seed;
      job.data = GenerateProducts(opt);
      SimulatedCrowdConfig ccfg;
      ccfg.error_rate = 0.03;
      ccfg.seed = seed;
      GroundTruth* truth = &job.data.truth;
      job.crowd = std::make_unique<SimulatedCrowd>(
          ccfg, [truth](RowId a, RowId b) { return truth->IsMatch(a, b); });
      job.config = TenantFalconConfig(seed);
    }
  }
  return jobs;
}

/// Per-tenant live-session counts, for the all-tenants-live fairness sample.
std::vector<std::pair<std::string, uint64_t>> TenantCounts(
    const std::deque<Job>& jobs) {
  std::vector<std::pair<std::string, uint64_t>> counts;
  for (const Job& job : jobs) {
    if (counts.empty() || counts.back().first != job.tenant) {
      counts.emplace_back(job.tenant, 0);
    }
    ++counts.back().second;
  }
  return counts;
}

struct FairnessSample {
  double machine_ratio = 0.0;  ///< max/min tenant machine vtime
  double vruntime_ratio = 0.0;
  double machine_min_s = 0.0;  ///< least-served tenant at the sample point
  double machine_max_s = 0.0;  ///< most-served tenant at the sample point
  bool valid = false;
};

struct ServiceOutcome {
  double wall_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  FairnessSample fairness;
  ServiceStats stats;
};

ServiceOutcome RunService(const std::deque<Job>& jobs, int workers,
                          size_t max_resident, size_t min_steps_evict,
                          int threads) {
  ClusterConfig ccfg = BenchClusterConfig(threads);
  // The paper-testbed 2 s per-job startup would quantize every step's
  // machine charge to whole-second multiples — one blocking step's charge
  // would rival a tenant's entire share at the sampling instant. Fairness
  // is a ratio of shares, not a cluster-fidelity number, so this lane runs
  // a snappier cluster for finer-grained charges.
  ccfg.job_startup = VDuration::Seconds(0.5);
  ccfg.task_overhead = VDuration::Seconds(0.01);
  Cluster cluster(ccfg);
  ServiceConfig scfg;
  scfg.max_resident_sessions = max_resident;
  // Aggressive eviction makes the resident set rotate over every queued
  // submission, so fair sharing acts globally across all tenants rather
  // than only inside one admission wave.
  scfg.min_steps_before_evict = min_steps_evict;
  // The headline gate is on per-tenant MACHINE-vtime share: the cluster is
  // the contended resource this bench schedules, while crowd spend is
  // already hard-capped by the per-tenant budget ledgers. With the default
  // weight the crowd-cost term dominates every step's charge, so per-seed
  // crowd-cost noise would surface as inverse machine-time spread even when
  // the scheduler equalizes its combined currency exactly. Pure machine-
  // time charging makes the scheduler optimize the quantity the gate reads.
  scfg.crowd_cost_vtime_weight = 0.0;
  EmService service(&cluster, scfg);
  for (const Job& job : jobs) {
    Status st = service.Submit(job.tenant, job.id, &job.data.a, &job.data.b,
                               job.crowd.get(), job.config);
    if (!st.ok()) {
      std::fprintf(stderr, "submit %s: %s\n", job.id.c_str(),
                   st.ToString().c_str());
      std::exit(1);
    }
  }
  auto counts = TenantCounts(jobs);

  std::mutex mu;
  std::vector<double> step_ms;
  FairnessSample fairness;
  auto worker = [&] {
    for (;;) {
      Result<StepEvent> event = service.StepOnce();
      if (!event.ok()) return;
      std::lock_guard<std::mutex> lock(mu);
      step_ms.push_back(event->wall_ms);
      if (std::getenv("FALCON_BENCH_TRACE") != nullptr) {
        std::fprintf(stderr,
                     "step %zu %s %s stage=%d charge=%.2f wall=%.0fms%s\n",
                     step_ms.size(), event->tenant.c_str(),
                     event->session_id.c_str(),
                     static_cast<int>(event->stage), event->charged_vtime_s,
                     event->wall_ms, event->session_done ? " DONE" : "");
      }
      // Fairness is sampled while EVERY tenant still has a live session:
      // once a tenant retires, the work-conserving scheduler hands the
      // freed capacity to whoever still has demand, so later cumulative
      // ratios measure work conservation, not unfairness.
      double min_mt = 1e300, max_mt = 0.0, min_vr = 1e300, max_vr = 0.0;
      std::string min_tenant, max_tenant;
      bool contended = true;
      for (const auto& [tenant, submitted] : counts) {
        auto ts = service.tenant_stats(tenant);
        if (!ts.ok() || ts->completed + ts->failed >= submitted) {
          contended = false;
          break;
        }
        if (ts->machine_vtime_s < min_mt) {
          min_mt = ts->machine_vtime_s;
          min_tenant = tenant;
        }
        if (ts->machine_vtime_s > max_mt) {
          max_mt = ts->machine_vtime_s;
          max_tenant = tenant;
        }
        min_vr = std::min(min_vr, ts->vruntime_s);
        max_vr = std::max(max_vr, ts->vruntime_s);
      }
      if (contended && min_mt > 0.0 && min_vr > 0.0) {
        fairness.machine_ratio = max_mt / min_mt;
        fairness.vruntime_ratio = max_vr / min_vr;
        fairness.machine_min_s = min_mt;
        fairness.machine_max_s = max_mt;
        fairness.valid = true;
        if (std::getenv("FALCON_BENCH_TRACE") != nullptr) {
          std::fprintf(stderr,
                       "trace step=%zu min=%s %.2fs max=%s %.2fs ratio=%.2f\n",
                       step_ms.size(), min_tenant.c_str(), min_mt,
                       max_tenant.c_str(), max_mt, max_mt / min_mt);
        }
      }
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int i = 0; i < workers; ++i) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  const auto t1 = std::chrono::steady_clock::now();

  ServiceOutcome out;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.fairness = fairness;
  out.stats = service.stats();
  std::sort(step_ms.begin(), step_ms.end());
  if (!step_ms.empty()) {
    out.p50_ms = step_ms[step_ms.size() / 2];
    out.p99_ms = step_ms[static_cast<size_t>(
        static_cast<double>(step_ms.size() - 1) * 0.99)];
  }
  for (const auto& id : service.failed_sessions()) {
    std::fprintf(stderr, "session failed: %s: %s\n", id.c_str(),
                 service.FinalStatus(id)->ToString().c_str());
  }
  return out;
}

/// The pre-service baseline: every session resident at once (no admission
/// cap bounds memory) and stepped round-robin over *sessions*, one Step()
/// each per sweep — a heavy tenant's extra sessions buy it a
/// proportionally larger share of the cluster.
struct BaselineOutcome {
  double wall_s = 0.0;
  FairnessSample fairness;
  size_t resident = 0;
};

BaselineOutcome RunBaseline(const std::deque<Job>& jobs, int threads) {
  ClusterConfig ccfg = BenchClusterConfig(threads);
  // Same cluster timing as the service lane, so the two fairness ratios
  // compare like for like.
  ccfg.job_startup = VDuration::Seconds(0.5);
  ccfg.task_overhead = VDuration::Seconds(0.01);
  Cluster cluster(ccfg);
  struct Run {
    std::unique_ptr<WorkflowSession> session;
    const Job* job;
    double watermark_s = 0.0;
    bool failed = false;
  };
  std::deque<Run> runs;
  for (const Job& job : jobs) {
    Run& r = runs.emplace_back();
    // Fresh crowd state per lane: reuse the platform but restart accounting
    // so the baseline's answer stream matches a fresh submission's.
    r.job = &job;
    r.session = std::make_unique<WorkflowSession>(
        job.id, &job.data.a, &job.data.b, job.crowd.get(), &cluster,
        job.config);
  }
  auto counts = TenantCounts(jobs);
  std::vector<double> tenant_vtime(counts.size(), 0.0);
  std::vector<uint64_t> tenant_done(counts.size(), 0);
  auto tenant_index = [&](const std::string& name) {
    for (size_t i = 0; i < counts.size(); ++i) {
      if (counts[i].first == name) return i;
    }
    return counts.size();
  };

  BaselineOutcome out;
  out.resident = runs.size();
  FairnessSample fairness;
  const auto t0 = std::chrono::steady_clock::now();
  bool active = true;
  while (active) {
    active = false;
    for (Run& r : runs) {
      if (r.failed || r.session->done()) continue;
      active = true;
      Status st = r.session->Step();
      const size_t ti = tenant_index(r.job->tenant);
      const double machine =
          r.session->pipeline().state().out.metrics.machine_time.seconds;
      tenant_vtime[ti] += machine - r.watermark_s;
      r.watermark_s = machine;
      if (!st.ok()) {
        std::fprintf(stderr, "baseline %s: %s\n", r.job->id.c_str(),
                     st.ToString().c_str());
        r.failed = true;
      }
      if (r.session->done() || r.failed) ++tenant_done[ti];
      // The baseline has no admission queue, so its window is the closest
      // analogue: every tenant still has a live session.
      bool all_live = true;
      double min_mt = 1e300, max_mt = 0.0;
      for (size_t i = 0; i < counts.size(); ++i) {
        if (tenant_done[i] >= counts[i].second) {
          all_live = false;
          break;
        }
        min_mt = std::min(min_mt, tenant_vtime[i]);
        max_mt = std::max(max_mt, tenant_vtime[i]);
      }
      if (all_live && min_mt > 0.0) {
        fairness.machine_ratio = max_mt / min_mt;
        fairness.valid = true;
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.fairness = fairness;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool smoke = std::getenv("FALCON_BENCH_SMOKE") != nullptr;
  const int tenants =
      static_cast<int>(flags.GetInt("tenants", smoke ? 6 : 32));
  // Fair-share convergence is bounded by one step's charge — and the
  // session layer's checkpoint boundaries are coarse (the al_matcher step
  // carries most of a session's machine time in one quantum) — so every
  // tenant needs enough queued work that its total spans many quanta while
  // all tenants are still live: three sessions per light tenant, twelve for
  // the heavy one (keeping the 4x session-count skew the baseline exposes).
  const int heavy =
      static_cast<int>(flags.GetInt("heavy-sessions", smoke ? 2 : 12));
  const int light =
      static_cast<int>(flags.GetInt("light-sessions", smoke ? 1 : 3));
  const int workers = static_cast<int>(flags.GetInt("workers", smoke ? 2 : 4));
  const size_t max_resident =
      static_cast<size_t>(flags.GetInt("max-resident", smoke ? 3 : 8));
  const int threads = static_cast<int>(flags.GetInt("threads", 1));
  const size_t rows_a =
      static_cast<size_t>(flags.GetInt("rows-a", 30));
  const size_t min_steps_evict =
      static_cast<size_t>(flags.GetInt("min-steps-evict", 1));

  std::printf(
      "=== Multi-tenant service scheduler: %d tenants (tenant-00 x%d), "
      "%d workers, admission cap %zu ===\n",
      tenants, heavy, workers, max_resident);
  BenchReport report("service");
  report.Add("tenants", static_cast<int64_t>(tenants));
  report.Add("heavy_sessions", static_cast<int64_t>(heavy));
  report.Add("light_sessions", static_cast<int64_t>(light));
  report.Add("workers", static_cast<int64_t>(workers));
  report.Add("max_resident", static_cast<int64_t>(max_resident));
  report.Add("rows_a", static_cast<int64_t>(rows_a));
  report.Add("min_steps_before_evict",
             static_cast<int64_t>(min_steps_evict));
  report.Add("smoke", static_cast<int64_t>(smoke ? 1 : 0));

  std::deque<Job> jobs = MakeJobs(tenants, heavy, light, rows_a);
  const size_t sessions = jobs.size();
  report.Add("sessions", static_cast<int64_t>(sessions));

  ServiceOutcome svc =
      RunService(jobs, workers, max_resident, min_steps_evict, threads);
  const double sessions_per_hour =
      svc.wall_s > 0.0 ? static_cast<double>(svc.stats.completed) /
                             (svc.wall_s / 3600.0)
                       : 0.0;
  report.Add("service/wall_s", svc.wall_s);
  report.Add("service/sessions_per_hour", sessions_per_hour);
  report.Add("service/step_p50_ms", svc.p50_ms);
  report.Add("service/step_p99_ms", svc.p99_ms);
  report.Add("service/steps", static_cast<int64_t>(svc.stats.steps));
  report.Add("service/completed", static_cast<int64_t>(svc.stats.completed));
  report.Add("service/failed", static_cast<int64_t>(svc.stats.failed));
  report.Add("service/evictions", static_cast<int64_t>(svc.stats.evictions));
  report.Add("service/resumes", static_cast<int64_t>(svc.stats.resumes));
  report.Add("service/peak_resident",
             static_cast<int64_t>(svc.stats.peak_resident));
  report.Add("service/machine_vtime_ratio", svc.fairness.machine_ratio);
  report.Add("service/vruntime_ratio", svc.fairness.vruntime_ratio);

  // Baseline runs the same mix through bare sessions, round-robin.
  for (const Job& job : jobs) job.crowd->ResetAccounting();
  BaselineOutcome base = RunBaseline(jobs, threads);
  report.Add("baseline/wall_s", base.wall_s);
  report.Add("baseline/resident_sessions",
             static_cast<int64_t>(base.resident));
  report.Add("baseline/machine_vtime_ratio", base.fairness.machine_ratio);

  std::printf("service : %zu sessions in %.1f s (%.0f sessions/hour), "
              "step p50 %.1f ms p99 %.1f ms\n",
              sessions, svc.wall_s, sessions_per_hour, svc.p50_ms,
              svc.p99_ms);
  std::printf("service : peak resident %zu (cap %zu), %llu evictions, "
              "%llu resumes, %llu failed\n",
              svc.stats.peak_resident, max_resident,
              static_cast<unsigned long long>(svc.stats.evictions),
              static_cast<unsigned long long>(svc.stats.resumes),
              static_cast<unsigned long long>(svc.stats.failed));
  std::printf("fairness: service max/min tenant machine-vtime %.2fx "
              "(%.1fs/%.1fs, vruntime %.2fx); baseline round-robin %.2fx "
              "with all %zu sessions resident\n",
              svc.fairness.machine_ratio, svc.fairness.machine_max_s,
              svc.fairness.machine_min_s, svc.fairness.vruntime_ratio,
              base.fairness.machine_ratio, base.resident);

  bool ok = true;
  if (svc.stats.peak_resident > max_resident) {
    std::fprintf(stderr, "FAIL: peak resident %zu exceeded admission cap\n",
                 svc.stats.peak_resident);
    ok = false;
  }
  if (svc.stats.failed != 0) {
    std::fprintf(stderr, "FAIL: %llu sessions failed\n",
                 static_cast<unsigned long long>(svc.stats.failed));
    ok = false;
  }
  // The fairness gate is only meaningful at scale: tiny smoke runs finish
  // sessions before shares settle.
  if (!smoke && tenants >= 32) {
    if (!svc.fairness.valid || svc.fairness.machine_ratio > 1.5) {
      std::fprintf(stderr, "FAIL: service fairness ratio %.2f > 1.5\n",
                   svc.fairness.machine_ratio);
      ok = false;
    }
    if (base.fairness.valid &&
        base.fairness.machine_ratio < 2.0 * svc.fairness.machine_ratio) {
      std::fprintf(stderr,
                   "FAIL: baseline ratio %.2f not >= 2x service ratio %.2f\n",
                   base.fairness.machine_ratio, svc.fairness.machine_ratio);
      ok = false;
    }
  }
  report.Add("acceptance/resident_le_cap",
             static_cast<int64_t>(svc.stats.peak_resident <= max_resident));
  report.Add("acceptance/fair_ratio_le_1_5",
             static_cast<int64_t>(svc.fairness.valid &&
                                  svc.fairness.machine_ratio <= 1.5));
  report.Write();
  return ok ? 0 : 1;
}
