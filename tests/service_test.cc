// Multi-tenant service scheduler suite (session/service.h): admission
// control, fair-share stepping, tenant budget ledgers, and evict/resume
// determinism — plus regression tests for the bugfix sweep that shipped with
// the service layer (the Cluster::total_machine_time data race, failed
// sessions named in their status, em_service argument parsing). The race
// regressions are meant to run under TSan (the CI `tsan` lane).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../examples/em_service_args.h"
#include "crowd/faulty_crowd.h"
#include "crowd/resilient_crowd.h"
#include "session/service.h"
#include "session_harness.h"

namespace falcon {
namespace {

// Scheduling-logic tests step many sessions; a minimal matcher-only run
// keeps each one cheap while still exercising every crowd operator.
FalconConfig TinyConfig(uint64_t seed) {
  FalconConfig cfg;
  cfg.al_max_iterations = 3;
  cfg.deterministic_rule_cost = true;
  cfg.estimate_accuracy = false;
  cfg.seed = seed;
  return cfg;
}

GeneratedDataset TinyData(uint64_t seed) {
  WorkloadOptions opt;
  opt.size_a = 40;
  opt.size_b = 80;
  opt.seed = seed;
  return GenerateProducts(opt);
}

// ---------------------------------------------------------------------------
// TenantLedger / LedgeredCrowd units
// ---------------------------------------------------------------------------

TEST(TenantLedgerTest, ReserveCommitReleaseKeepsCapInvariant) {
  TenantLedger ledger(1.00);
  // Reserves the longest affordable prefix, not the whole request.
  TenantLedger::Reservation r1 =
      ledger.ReservePrefix({0.30, 0.30, 0.30, 0.30});
  EXPECT_EQ(r1.questions, 3u);
  EXPECT_NEAR(r1.amount, 0.90, 1e-12);
  EXPECT_NEAR(ledger.reserved(), 0.90, 1e-12);

  // A concurrent reservation sees only the unreserved remainder.
  TenantLedger::Reservation r2 = ledger.ReservePrefix({0.30});
  EXPECT_EQ(r2.questions, 0u);
  ledger.Release(r2);

  // Commit settles at actual cost and frees the reserved headroom.
  ledger.Commit(r1, 0.50);
  EXPECT_NEAR(ledger.spent(), 0.50, 1e-12);
  EXPECT_NEAR(ledger.reserved(), 0.0, 1e-12);
  EXPECT_NEAR(ledger.remaining(), 0.50, 1e-12);

  TenantLedger::Reservation r3 = ledger.ReservePrefix({0.30, 0.30});
  EXPECT_EQ(r3.questions, 1u);
  ledger.Release(r3);
  EXPECT_NEAR(ledger.remaining(), 0.50, 1e-12);
}

TEST(TenantLedgerTest, ExactCapBatchFits) {
  TenantLedger ledger(0.06);
  TenantLedger::Reservation r = ledger.ReservePrefix({0.06});
  EXPECT_EQ(r.questions, 1u);  // epsilon mirrors BudgetLedger::Charge
  ledger.Commit(r, 0.06);
  EXPECT_EQ(ledger.ReservePrefix({0.06}).questions, 0u);
}

TEST(LedgeredCrowdTest, TruncatesBatchToAffordablePrefix) {
  // $0.18 at 2 cents/answer affords exactly 3 majority-3 questions
  // (worst case 3 answers each); questions 4 and 5 must come back
  // unanswered with the batch flagged truncated.
  TenantLedger ledger(0.18);
  SimulatedCrowdConfig scfg;
  scfg.error_rate = 0.0;
  scfg.seed = 3;
  SimulatedCrowd sim(scfg, [](RowId a, RowId b) { return a == b; });
  LedgeredCrowd crowd(&sim, &ledger, 0.02);

  std::vector<PairQuestion> pairs;
  for (RowId i = 0; i < 5; ++i) pairs.emplace_back(i, i);
  auto res = crowd.LabelPairs(pairs, VoteScheme::kMajority3);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->truncated);
  ASSERT_EQ(res->labels.size(), 5u);
  ASSERT_EQ(res->answers_per_question.size(), 5u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(res->labels[i]) << i;
    EXPECT_TRUE(res->Answered(i)) << i;
  }
  for (size_t i = 3; i < 5; ++i) {
    EXPECT_FALSE(res->labels[i]) << i;  // no prior votes: provisional false
    EXPECT_EQ(res->answers_per_question[i], 0u) << i;
  }
  EXPECT_EQ(crowd.truncated_batches(), 1u);
  EXPECT_EQ(sim.total_questions(), 3u);
  EXPECT_GT(ledger.spent(), 0.0);
  EXPECT_LE(ledger.spent(), 0.18 + 1e-9);
  EXPECT_NEAR(ledger.reserved(), 0.0, 1e-12);
}

TEST(LedgeredCrowdTest, RefusesBatchWhenNothingIsAffordable) {
  TenantLedger ledger(0.01);  // cannot cover even one worst-case question
  SimulatedCrowdConfig scfg;
  scfg.seed = 3;
  SimulatedCrowd sim(scfg, [](RowId, RowId) { return true; });
  LedgeredCrowd crowd(&sim, &ledger, 0.02);

  auto res = crowd.LabelPairs({{0, 0}, {1, 1}}, VoteScheme::kMajority3);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(crowd.refused_batches(), 1u);
  EXPECT_EQ(sim.total_questions(), 0u);  // the platform was never contacted
  EXPECT_NEAR(ledger.spent(), 0.0, 1e-12);
  EXPECT_NEAR(ledger.reserved(), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// EmService API basics
// ---------------------------------------------------------------------------

TEST(ServiceApiTest, SubmitAndTakeResultEdgeCases) {
  Cluster cluster(FastCluster(1));
  EmService service(&cluster);
  EXPECT_TRUE(service.RegisterTenant("t").ok());
  EXPECT_FALSE(service.RegisterTenant("t").ok());  // duplicate tenant

  GeneratedDataset data = TinyData(7);
  CrowdChain chain = PlainCrowd(7, data.truth.MakeOracle());
  ASSERT_TRUE(
      service.Submit("t", "s", &data.a, &data.b, chain.top, TinyConfig(7))
          .ok());
  // Duplicate session id.
  EXPECT_FALSE(
      service.Submit("t", "s", &data.a, &data.b, chain.top, TinyConfig(7))
          .ok());

  EXPECT_EQ(service.TakeResult("nope").status().code(), StatusCode::kNotFound);
  // Still queued: the result is not available and the session not terminal.
  EXPECT_EQ(service.TakeResult("s").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(service.FinalStatus("s").has_value());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queued, 1u);
  EXPECT_EQ(stats.resident, 0u);
}

// The service owns every session it admits and every snapshot it evicts to;
// destroying it mid-run must release a resident session, an evicted
// session's snapshot and a never-admitted submission alike (the CI ASan
// lane's LeakSanitizer checks that nothing outlives its owner).
TEST(ServiceApiTest, DestroyWithQueuedEvictedAndResidentSessions) {
  Cluster cluster(FastCluster(1));
  GeneratedDataset data = TinyData(7);
  std::deque<CrowdChain> chains;
  ServiceConfig scfg;
  scfg.max_resident_sessions = 1;
  scfg.min_steps_before_evict = 1;
  EmService service(&cluster, scfg);
  for (int i = 0; i < 3; ++i) {
    const std::string tenant = "t" + std::to_string(i);
    chains.push_back(PlainCrowd(500 + i, data.truth.MakeOracle()));
    ASSERT_TRUE(service
                    .Submit(tenant, tenant + "/job", &data.a, &data.b,
                            chains.back().top, TinyConfig(500 + i))
                    .ok());
  }
  // Turn one admits and steps t0's session; turn two evicts it to make room
  // for t1's, which it steps, leaving t2's submission still queued.
  ASSERT_TRUE(service.StepOnce().ok());
  ASSERT_TRUE(service.StepOnce().ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(stats.queued, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.admissions, 2u);
  EXPECT_EQ(stats.resumes, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(ServiceTest, AdmissionCapHoldsUnderConcurrentSubmitsAndWorkers) {
  Cluster cluster(FastCluster(1));
  ServiceConfig scfg;
  scfg.max_resident_sessions = 2;
  scfg.min_steps_before_evict = 2;
  EmService service(&cluster, scfg);

  GeneratedDataset data = TinyData(7);
  constexpr int kSessions = 6;
  std::deque<CrowdChain> chains;
  for (int i = 0; i < kSessions; ++i) {
    chains.push_back(PlainCrowd(100 + i, data.truth.MakeOracle()));
  }

  // Three tenants submit two sessions each, concurrently.
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      for (int j = 0; j < 2; ++j) {
        const int i = t * 2 + j;
        std::string tenant(1, static_cast<char>('a' + t));
        Status st = service.Submit(tenant, tenant + "/" + std::to_string(j),
                                   &data.a, &data.b, chains[i].top,
                                   TinyConfig(200 + i));
        EXPECT_TRUE(st.ok()) << st.ToString();
        (void)service.stats();  // concurrent reads must be safe
      }
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(service.stats().queued, static_cast<size_t>(kSessions));

  // Drain with two workers while a monitor polls the resident count.
  std::atomic<bool> stop{false};
  size_t max_seen = 0;
  std::thread monitor([&] {
    while (!stop.load()) {
      max_seen = std::max(max_seen, service.stats().resident);
      std::this_thread::yield();
    }
  });
  ASSERT_TRUE(service.Drain(2).ok());
  stop.store(true);
  monitor.join();

  ServiceStats stats = service.stats();
  EXPECT_LE(max_seen, scfg.max_resident_sessions);
  EXPECT_LE(stats.peak_resident, scfg.max_resident_sessions);
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.admissions, static_cast<uint64_t>(kSessions));
  // Every evicted session was eventually resumed and finished.
  EXPECT_EQ(stats.resumes, stats.evictions);
  EXPECT_GT(stats.evictions, 0u);  // 6 sessions through 2 slots must thrash
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.queued, 0u);
  for (int t = 0; t < 3; ++t) {
    for (int j = 0; j < 2; ++j) {
      std::string id =
          std::string(1, static_cast<char>('a' + t)) + "/" + std::to_string(j);
      auto result = service.TakeResult(id);
      EXPECT_TRUE(result.ok()) << id << ": " << result.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Fair-share scheduling
// ---------------------------------------------------------------------------

TEST(ServiceTest, FairSharePickKeepsEqualTenantsConverged) {
  Cluster cluster(FastCluster(1));
  ServiceConfig scfg;
  scfg.max_resident_sessions = 4;  // everyone resident: pure DRR picking
  EmService service(&cluster, scfg);

  // Four equal tenants with identical workloads (same data, config, and
  // crowd seed) so any sustained vruntime gap is a scheduler bug.
  GeneratedDataset data = TinyData(7);
  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3"};
  std::deque<CrowdChain> chains;
  for (const auto& t : tenants) {
    chains.push_back(PlainCrowd(7, data.truth.MakeOracle()));
    ASSERT_TRUE(service
                    .Submit(t, t + "/job", &data.a, &data.b,
                            chains.back().top, TinyConfig(7))
                    .ok());
  }

  // Deficit-round-robin invariant: stepping always serves the min-vruntime
  // tenant, so while every tenant is live the vruntime spread can never
  // exceed the largest single-step charge seen so far.
  double max_charge = 0.0;
  for (;;) {
    auto event = service.StepOnce();
    if (!event.ok()) {
      EXPECT_EQ(event.status().code(), StatusCode::kNotFound);
      break;
    }
    max_charge = std::max(max_charge, event->charged_vtime_s);
    ServiceStats stats = service.stats();
    if (stats.completed > 0 || stats.failed > 0) continue;
    double min_vr = 0.0, max_vr = 0.0;
    for (size_t i = 0; i < tenants.size(); ++i) {
      auto ts = service.tenant_stats(tenants[i]);
      ASSERT_TRUE(ts.ok());
      min_vr = i == 0 ? ts->vruntime_s : std::min(min_vr, ts->vruntime_s);
      max_vr = i == 0 ? ts->vruntime_s : std::max(max_vr, ts->vruntime_s);
    }
    EXPECT_LE(max_vr - min_vr, max_charge + 1e-6);
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, tenants.size());
  EXPECT_EQ(stats.failed, 0u);

  // Equal tenants end with (near-)equal cumulative shares.
  double min_vr = 0.0, max_vr = 0.0, min_mt = 0.0, max_mt = 0.0;
  for (size_t i = 0; i < tenants.size(); ++i) {
    auto ts = service.tenant_stats(tenants[i]);
    ASSERT_TRUE(ts.ok());
    min_vr = i == 0 ? ts->vruntime_s : std::min(min_vr, ts->vruntime_s);
    max_vr = i == 0 ? ts->vruntime_s : std::max(max_vr, ts->vruntime_s);
    min_mt = i == 0 ? ts->machine_vtime_s
                    : std::min(min_mt, ts->machine_vtime_s);
    max_mt = i == 0 ? ts->machine_vtime_s
                    : std::max(max_mt, ts->machine_vtime_s);
  }
  ASSERT_GT(min_vr, 0.0);
  ASSERT_GT(min_mt, 0.0);
  EXPECT_LE(max_vr / min_vr, 1.5);
  EXPECT_LE(max_mt / min_mt, 1.5);
}

// Three tenants submit two tiny sessions each through two resident slots,
// and one caller steps the service until it is drained. Returns each turn
// as "<session> <stage it ran>", with " done" appended to a session's last.
//
// A step's charge includes measured CPU seconds, so tenants with equal
// weights and equal work tie up to timing noise. Weights 1, 10 and 100 keep
// every cross-tenant comparison apart by far more than that noise, which
// makes the schedule a pure function of the scheduling rules.
std::vector<std::string> SingleCallerSchedule(size_t min_steps_before_evict) {
  Cluster cluster(FastCluster(1));
  ServiceConfig scfg;
  scfg.max_resident_sessions = 2;
  scfg.min_steps_before_evict = min_steps_before_evict;
  EmService service(&cluster, scfg);
  for (const auto& [tenant, weight] :
       {std::pair{"a", 1.0}, std::pair{"b", 10.0}, std::pair{"c", 100.0}}) {
    TenantConfig tc;
    tc.weight = weight;
    EXPECT_TRUE(service.RegisterTenant(tenant, tc).ok());
  }
  GeneratedDataset data = TinyData(7);
  std::deque<CrowdChain> chains;
  for (int i = 0; i < 6; ++i) {
    const std::string tenant(1, static_cast<char>('a' + i / 2));
    chains.push_back(PlainCrowd(600 + i, data.truth.MakeOracle()));
    EXPECT_TRUE(service
                    .Submit(tenant, tenant + "/" + std::to_string(i % 2),
                            &data.a, &data.b, chains.back().top,
                            TinyConfig(600 + i))
                    .ok());
  }
  std::vector<std::string> turns;
  for (;;) {
    Result<StepEvent> event = service.StepOnce();
    if (!event.ok()) {
      EXPECT_EQ(event.status().code(), StatusCode::kNotFound);
      break;
    }
    EXPECT_FALSE(event->session_failed) << event->session_id;
    turns.push_back(event->session_id + " " +
                    PipelineStageName(event->stage) +
                    (event->session_done ? " done" : ""));
  }
  EXPECT_EQ(service.stats().completed, 6u);
  return turns;
}

// Building a session on its first step, outside the service lock, must not
// change one scheduling decision: both golden lists were recorded with the
// scheduler that still built sessions at admission, under the lock. At
// min_steps_before_evict 0 a session can be evicted before it was ever
// stepped, so that list also covers requeuing a session that was never
// built.
TEST(ServiceTest, SingleCallerScheduleMatchesParent) {
  const std::vector<std::string> evict_after_one = {
      "a/0 init",
      "b/0 init",
      "c/0 init",
      "c/1 init",
      "c/0 al_matcher(matcher)",
      "b/1 init",
      "b/0 al_matcher(matcher)",
      "a/1 init",
      "a/0 al_matcher(matcher)",
      "c/1 al_matcher(matcher)",
      "c/0 apply_matcher",
      "c/1 apply_matcher",
      "c/0 estimate_accuracy done",
      "c/1 estimate_accuracy done",
      "b/1 al_matcher(matcher)",
      "b/0 apply_matcher",
      "b/1 apply_matcher",
      "b/0 estimate_accuracy done",
      "b/1 estimate_accuracy done",
      "a/1 al_matcher(matcher)",
      "a/1 apply_matcher",
      "a/1 estimate_accuracy done",
      "a/0 apply_matcher",
      "a/0 estimate_accuracy done",
  };
  EXPECT_EQ(SingleCallerSchedule(1), evict_after_one);

  const std::vector<std::string> evict_anytime = {
      "a/0 init",
      "b/0 init",
      "c/0 init",
      "c/1 init",
      "c/0 al_matcher(matcher)",
      "b/1 init",
      "b/1 al_matcher(matcher)",
      "a/1 init",
      "a/1 al_matcher(matcher)",
      "c/0 apply_matcher",
      "c/0 estimate_accuracy done",
      "c/1 al_matcher(matcher)",
      "c/1 apply_matcher",
      "c/1 estimate_accuracy done",
      "b/1 apply_matcher",
      "b/0 al_matcher(matcher)",
      "b/1 estimate_accuracy done",
      "b/0 apply_matcher",
      "b/0 estimate_accuracy done",
      "a/0 al_matcher(matcher)",
      "a/0 apply_matcher",
      "a/0 estimate_accuracy done",
      "a/1 apply_matcher",
      "a/1 estimate_accuracy done",
  };
  EXPECT_EQ(SingleCallerSchedule(0), evict_anytime);
}

// ---------------------------------------------------------------------------
// Budget isolation
// ---------------------------------------------------------------------------

struct RetryChain {
  std::unique_ptr<SimulatedCrowd> sim;
  std::unique_ptr<FaultyCrowd> faulty;
  std::unique_ptr<ResilientCrowd> resilient;
};

RetryChain MakeRetryChain(uint64_t seed, TruthOracle oracle) {
  RetryChain c;
  SimulatedCrowdConfig scfg;
  scfg.error_rate = 0.03;
  scfg.seed = seed;
  c.sim = std::make_unique<SimulatedCrowd>(scfg, std::move(oracle));
  FaultyCrowdConfig fcfg;
  fcfg.transient_error_rate = 0.1;
  fcfg.hit_expiry_rate = 0.1;
  fcfg.abandon_rate = 0.15;
  fcfg.spammer_rate = 0.1;
  fcfg.seed = seed + 1;
  c.faulty = std::make_unique<FaultyCrowd>(fcfg, c.sim.get());
  c.resilient =
      std::make_unique<ResilientCrowd>(ResilientCrowdConfig{}, c.faulty.get());
  return c;
}

TEST(ServiceTest, TenantLedgerNeverOverspendsUnderResilientRetries) {
  Cluster cluster(FastCluster(1));
  ServiceConfig scfg;
  scfg.max_resident_sessions = 4;
  EmService service(&cluster, scfg);

  // The two sessions demand ~$7.20 unconstrained; a $4.00 cap bites midway
  // through active learning (after both seed batches, ~$1.20 each, fit), so
  // the runs must degrade gracefully rather than fail outright.
  TenantConfig tc;
  tc.budget_cap = 4.00;
  tc.cost_per_answer = 0.02;
  ASSERT_TRUE(service.RegisterTenant("capped", tc).ok());

  // Two sessions of the capped tenant labeling concurrently, through a
  // retry/requeue stack whose faults multiply the platform calls — the
  // reservation-commit ledger must hold the cap regardless.
  GeneratedDataset d1 = TinyData(7);
  GeneratedDataset d2 = TinyData(11);
  RetryChain c1 = MakeRetryChain(21, d1.truth.MakeOracle());
  RetryChain c2 = MakeRetryChain(33, d2.truth.MakeOracle());
  ASSERT_TRUE(service
                  .Submit("capped", "capped/0", &d1.a, &d1.b,
                          c1.resilient.get(), TinyConfig(5))
                  .ok());
  ASSERT_TRUE(service
                  .Submit("capped", "capped/1", &d2.a, &d2.b,
                          c2.resilient.get(), TinyConfig(6))
                  .ok());
  ASSERT_TRUE(service.Drain(2).ok());

  auto ts = service.tenant_stats("capped");
  ASSERT_TRUE(ts.ok());
  // The invariant under test: spend never exceeds the cap, even transiently
  // reserved amounts settled above it.
  EXPECT_LE(ts->budget_spent, tc.budget_cap + 1e-6);
  EXPECT_GT(ts->budget_spent, 3.0);  // the cap was actually contended
  // Every committed dollar corresponds to answers the platform really drew.
  EXPECT_NEAR(ts->budget_spent, c1.sim->total_cost() + c2.sim->total_cost(),
              1e-6);
  // The faults did force the resilient layer to work.
  EXPECT_GT(c1.resilient->total_retries() + c2.resilient->total_retries() +
                c1.resilient->total_requeued_questions() +
                c2.resilient->total_requeued_questions(),
            0u);
  // Sessions end cleanly at the cap (the C_max contract), not with errors.
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed + stats.failed, 2u);
  EXPECT_EQ(stats.failed, 0u) << [&] {
    std::string msg;
    for (const auto& id : service.failed_sessions()) {
      msg += id + ": " + service.FinalStatus(id)->ToString() + "; ";
    }
    return msg;
  }();
  // At least one run hit the cap and recorded it (demand >> cap).
  auto r0 = service.TakeResult("capped/0");
  auto r1 = service.TakeResult("capped/1");
  ASSERT_TRUE(r0.ok() && r1.ok());
  EXPECT_TRUE(r0->metrics.budget_exhausted || r1->metrics.budget_exhausted);
}

// ---------------------------------------------------------------------------
// Evict / resume determinism
// ---------------------------------------------------------------------------

MatchResult SoloRun(const GeneratedDataset& data, const ClusterConfig& ccfg,
                    const FalconConfig& cfg) {
  Cluster cluster(ccfg);
  CrowdChain chain = PlainCrowd(cfg.seed, data.truth.MakeOracle());
  WorkflowSession session("solo", &data.a, &data.b, chain.top, &cluster, cfg);
  Status st = session.RunToCompletion();
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto r = session.TakeResult();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : MatchResult{};
}

// With an admission cap of one and eviction allowed after every step, two
// tenants' sessions ping-pong through snapshots on every scheduler turn;
// both must still finish byte-identical to uninterrupted solo runs.
void CheckEvictResume(GeneratedDataset (*make_data)(uint64_t),
                      FalconConfig (*make_config)(uint64_t), int threads) {
  SCOPED_TRACE(std::string("threads=") + std::to_string(threads));
  GeneratedDataset dx = make_data(7);
  GeneratedDataset dy = make_data(8);
  FalconConfig cfg_x = make_config(7);
  FalconConfig cfg_y = make_config(8);
  MatchResult ref_x = SoloRun(dx, FastCluster(threads), cfg_x);
  MatchResult ref_y = SoloRun(dy, FastCluster(threads), cfg_y);

  Cluster cluster(FastCluster(threads));
  ServiceConfig scfg;
  scfg.max_resident_sessions = 1;
  scfg.min_steps_before_evict = 1;
  EmService service(&cluster, scfg);
  CrowdChain cx = PlainCrowd(cfg_x.seed, dx.truth.MakeOracle());
  CrowdChain cy = PlainCrowd(cfg_y.seed, dy.truth.MakeOracle());
  ASSERT_TRUE(service.Submit("alice", "x", &dx.a, &dx.b, cx.top, cfg_x).ok());
  ASSERT_TRUE(service.Submit("bob", "y", &dy.a, &dy.b, cy.top, cfg_y).ok());
  ASSERT_TRUE(service.Drain(1).ok());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.peak_resident, 1u);  // memory stayed bounded by the cap
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.completed, 2u);
  ASSERT_EQ(stats.failed, 0u) << [&] {
    std::string msg;
    for (const auto& id : service.failed_sessions()) {
      msg += id + ": " + service.FinalStatus(id)->ToString() + "; ";
    }
    return msg;
  }();

  auto rx = service.TakeResult("x");
  ASSERT_TRUE(rx.ok()) << rx.status().ToString();
  ExpectSameOutcome(ref_x, *rx, "evicted/resumed session x");
  auto ry = service.TakeResult("y");
  ASSERT_TRUE(ry.ok()) << ry.status().ToString();
  ExpectSameOutcome(ref_y, *ry, "evicted/resumed session y");
}

TEST(ServiceEvictTest, MatcherOnlyPlanResumesByteIdentical) {
  for (int threads : {1, 4}) {
    CheckEvictResume(&MatcherOnlyData, &MatcherOnlyConfig, threads);
  }
}

TEST(ServiceEvictTest, BlockingPlanResumesByteIdentical) {
  for (int threads : {1, 4}) {
    CheckEvictResume(&BlockingData, &BlockingConfig, threads);
  }
}

// A SimulatedCrowd whose state restore, the crowd's part of
// WorkflowSession::Resume, either fails or, the first time it runs, waits
// until the test thread calls Release(). The wait gives up after about ten
// seconds, so a scheduler that resumes while holding its lock fails the test
// instead of hanging it.
class GatedRestoreCrowd : public SimulatedCrowd {
 public:
  GatedRestoreCrowd(uint64_t seed, TruthOracle oracle, bool fail)
      : SimulatedCrowd(CrowdConfig(seed), std::move(oracle)), fail_(fail) {}

  /// Waits until the first restore has begun; false on timeout.
  bool WaitForRestore() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kTimeout, [&] { return restoring_; });
  }
  /// Lets the waiting restore continue.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  /// Whether the restore was released before its wait timed out.
  bool released_in_time() const {
    std::lock_guard<std::mutex> lock(mu_);
    return released_in_time_;
  }

 protected:
  Status RestoreDerivedState(BinaryReader* r) override {
    if (fail_) return Status::IoError("injected restore failure");
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!restoring_) {
        restoring_ = true;
        cv_.notify_all();
        released_in_time_ =
            cv_.wait_for(lock, kTimeout, [&] { return released_; });
      }
    }
    return SimulatedCrowd::RestoreDerivedState(r);
  }

 private:
  static constexpr std::chrono::seconds kTimeout{10};
  const bool fail_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool restoring_ = false;
  bool released_ = false;
  bool released_in_time_ = false;
};

// One slot, eviction after every step, and x submitted by alice and y by
// bob. alice's weight of 2 halves her charges, so after one step each she is
// the less served: turn one steps x, turn two evicts x to step y, and turn
// three evicts y and resumes x.
void SubmitEvictionPair(EmService* service, const GeneratedDataset& data,
                        CrowdPlatform* x_crowd, CrowdPlatform* y_crowd) {
  TenantConfig alice;
  alice.weight = 2.0;
  ASSERT_TRUE(service->RegisterTenant("alice", alice).ok());
  ASSERT_TRUE(
      service->Submit("alice", "x", &data.a, &data.b, x_crowd, TinyConfig(7))
          .ok());
  ASSERT_TRUE(
      service->Submit("bob", "y", &data.a, &data.b, y_crowd, TinyConfig(8))
          .ok());
}

ServiceConfig EvictEveryStep() {
  ServiceConfig scfg;
  scfg.max_resident_sessions = 1;
  scfg.min_steps_before_evict = 1;
  return scfg;
}

// The resume at turn three must not hold the service lock: stats() answers
// while it is in progress, and the resuming submission already holds the
// slot.
TEST(ServiceEvictTest, ResumeRunsOutsideTheServiceLock) {
  Cluster cluster(FastCluster(1));
  EmService service(&cluster, EvictEveryStep());
  GeneratedDataset data = TinyData(7);
  GatedRestoreCrowd gated(7, data.truth.MakeOracle(), /*fail=*/false);
  CrowdChain plain = PlainCrowd(8, data.truth.MakeOracle());
  SubmitEvictionPair(&service, data, &gated, plain.top);
  ASSERT_FALSE(HasFatalFailure());

  std::thread drain([&] { EXPECT_TRUE(service.Drain(1).ok()); });
  EXPECT_TRUE(gated.WaitForRestore());
  const ServiceStats during = service.stats();
  gated.Release();
  drain.join();

  EXPECT_TRUE(gated.released_in_time())
      << "stats() waited for the resume to finish";
  EXPECT_EQ(during.resident, 1u);
  EXPECT_EQ(during.queued, 1u);
  EXPECT_EQ(during.steps, 2u);
  EXPECT_EQ(during.evictions, 2u);
  EXPECT_EQ(during.resumes, 1u);
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.completed, 2u);
  EXPECT_EQ(after.failed, 0u);
  EXPECT_EQ(after.resident, 0u);
}

// A resume that fails settles like a failed step: the submission fails with
// its id in the status, its slot is freed, and the other session finishes.
TEST(ServiceEvictTest, FailedResumeFreesItsSlot) {
  Cluster cluster(FastCluster(1));
  EmService service(&cluster, EvictEveryStep());
  GeneratedDataset data = TinyData(7);
  GatedRestoreCrowd broken(7, data.truth.MakeOracle(), /*fail=*/true);
  CrowdChain plain = PlainCrowd(8, data.truth.MakeOracle());
  SubmitEvictionPair(&service, data, &broken, plain.top);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_TRUE(service.Drain(2).ok());

  EXPECT_EQ(service.failed_sessions(), std::vector<std::string>{"x"});
  std::optional<Status> x = service.FinalStatus("x");
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(x->code(), StatusCode::kIoError);
  EXPECT_EQ(x->message().rfind("session 'x': ", 0), 0u) << x->ToString();
  EXPECT_TRUE(service.TakeResult("y").ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_GE(stats.resumes, 1u);
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.queued, 0u);
  Result<TenantStats> alice = service.tenant_stats("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_EQ(alice->failed, 1u);
  EXPECT_EQ(alice->waiting, 0u);
}

// ---------------------------------------------------------------------------
// Bugfix regressions: cluster ledger race (run under TSan), failing-session
// id, arg parsing
// ---------------------------------------------------------------------------

TEST(ClusterRaceTest, TotalMachineTimeReadableDuringConcurrentJobs) {
  Cluster cluster(FastCluster(2));
  EmService service(&cluster);
  GeneratedDataset data = TinyData(7);
  std::deque<CrowdChain> chains;
  for (int i = 0; i < 2; ++i) {
    chains.push_back(PlainCrowd(400 + i, data.truth.MakeOracle()));
    ASSERT_TRUE(service
                    .Submit("t" + std::to_string(i), "s" + std::to_string(i),
                            &data.a, &data.b, chains.back().top,
                            TinyConfig(400 + i))
                    .ok());
  }
  // Pre-fix, total_machine_time() returned the accumulator without taking
  // mu_ while RecordJob wrote it from pool threads.
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      volatile double s = cluster.total_machine_time().seconds;
      (void)s;
      std::this_thread::yield();
    }
  });
  Status st = service.Drain(2);
  stop.store(true);
  poller.join();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(service.stats().completed, 2u);
  EXPECT_GT(cluster.total_machine_time().seconds, 0.0);
}

// The two SessionManagerTest regressions keep the names they had when
// SessionManager ran multi-session workloads; EmService now does, so they
// drive it. A failed session's FinalStatus keeps the error's code and is
// prefixed with "session '<id>': ", so a caller draining many sessions can
// tell which one died; a completed session's status stays OK.
TEST(SessionManagerTest, AnnotateSessionStatusPrefixesIdAndKeepsCode) {
  Cluster cluster(FastCluster(1));
  EmService service(&cluster);
  GeneratedDataset data = TinyData(7);
  // An invalid crowd config makes every labeling call fail, so the session
  // errors out mid-pipeline.
  SimulatedCrowdConfig bad = CrowdConfig(7);
  bad.questions_per_hit = 0;
  const Status cause = ValidateSimulatedCrowdConfig(bad);
  ASSERT_FALSE(cause.ok());
  SimulatedCrowd bad_crowd(bad, data.truth.MakeOracle());
  CrowdChain good_crowd = PlainCrowd(8, data.truth.MakeOracle());
  ASSERT_TRUE(service
                  .Submit("t", "doomed", &data.a, &data.b, &bad_crowd,
                          TinyConfig(7))
                  .ok());
  ASSERT_TRUE(service
                  .Submit("t", "fine", &data.a, &data.b, good_crowd.top,
                          TinyConfig(8))
                  .ok());
  ASSERT_TRUE(service.Drain(1).ok());

  std::optional<Status> doomed = service.FinalStatus("doomed");
  ASSERT_TRUE(doomed.has_value());
  EXPECT_EQ(doomed->code(), cause.code());
  EXPECT_EQ(doomed->message().rfind("session 'doomed': ", 0), 0u)
      << doomed->ToString();
  EXPECT_EQ(service.TakeResult("doomed").status().code(), cause.code());

  std::optional<Status> fine = service.FinalStatus("fine");
  ASSERT_TRUE(fine.has_value());
  EXPECT_TRUE(fine->ok()) << fine->ToString();
  EXPECT_TRUE(service.TakeResult("fine").ok());
}

// Same failure with the sessions stepped from two worker threads: the
// failing session is still the one named, and the healthy one completes.
TEST(SessionManagerTest, RunAllThreadedErrorNamesTheFailingSession) {
  Cluster cluster(FastCluster(1));
  EmService service(&cluster);
  GeneratedDataset data = TinyData(7);
  SimulatedCrowdConfig bad = CrowdConfig(7);
  bad.questions_per_hit = 0;
  SimulatedCrowd bad_crowd(bad, data.truth.MakeOracle());
  CrowdChain good_crowd = PlainCrowd(8, data.truth.MakeOracle());
  ASSERT_TRUE(service
                  .Submit("t0", "fine", &data.a, &data.b, good_crowd.top,
                          TinyConfig(8))
                  .ok());
  ASSERT_TRUE(service
                  .Submit("t1", "doomed", &data.a, &data.b, &bad_crowd,
                          TinyConfig(7))
                  .ok());
  Status st = service.Drain(2);
  ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_EQ(service.failed_sessions(), std::vector<std::string>{"doomed"});
  std::optional<Status> doomed = service.FinalStatus("doomed");
  ASSERT_TRUE(doomed.has_value());
  ASSERT_FALSE(doomed->ok());
  EXPECT_NE(doomed->message().find("session 'doomed'"), std::string::npos)
      << doomed->ToString();
  EXPECT_EQ(service.stats().completed, 1u);
  EXPECT_EQ(service.stats().failed, 1u);
}

Result<ServiceArgs> Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "em_service";
  argv.push_back(prog.data());
  for (auto& a : args) argv.push_back(a.data());
  return ParseServiceArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(ServiceArgsTest, ValueFlagAtEndOfArgvFails) {
  // Pre-fix, a trailing `--budget` silently parsed as $0.00.
  auto parsed = Parse({"--demo", "--budget"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("requires a value"),
            std::string::npos);
}

TEST(ServiceArgsTest, UnknownFlagFails) {
  // Pre-fix, typos like `--bugdet 12` were silently dropped.
  auto parsed = Parse({"--demo", "--bugdet", "12"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("unknown flag: --bugdet"),
            std::string::npos);
}

TEST(ServiceArgsTest, NonNumericValueFails) {
  EXPECT_FALSE(Parse({"--budget", "lots"}).ok());
  EXPECT_FALSE(Parse({"--tenants", "four"}).ok());
}

TEST(ServiceArgsTest, RangeAndModeChecks) {
  EXPECT_FALSE(Parse({"--tenants", "-1"}).ok());
  EXPECT_FALSE(Parse({"--tenants", "4", "--workers", "0"}).ok());
  EXPECT_FALSE(Parse({"--tenants", "4", "--interactive"}).ok());
  EXPECT_FALSE(Parse({"--tenants", "4", "--a", "left.csv"}).ok());
}

TEST(ServiceArgsTest, ValidInvocationsRoundTrip) {
  auto demo = Parse({"--demo", "--budget", "12.5", "--out", "m.csv"});
  ASSERT_TRUE(demo.ok()) << demo.status().ToString();
  EXPECT_TRUE(demo->demo);
  EXPECT_DOUBLE_EQ(demo->budget, 12.5);
  EXPECT_EQ(demo->out_path, "m.csv");

  auto multi =
      Parse({"--tenants", "8", "--workers", "3", "--max-resident", "2"});
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  EXPECT_EQ(multi->tenants, 8);
  EXPECT_EQ(multi->workers, 3);
  EXPECT_EQ(multi->max_resident, 2);
}

}  // namespace
}  // namespace falcon
