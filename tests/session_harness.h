// Shared helpers for the session-resume test suites (session_test.cc and
// crowd_faults_test.cc): small deterministic workloads, the two plan
// templates' configurations, reference runs that snapshot at every operator
// boundary, and the kill-and-resume sweep. The crowd platform a run uses is
// pluggable (a CrowdFactory), so the same sweep drives both the plain
// SimulatedCrowd and the fault-injecting decorator stack (NoisyFaultyChain).
#ifndef FALCON_TESTS_SESSION_HARNESS_H_
#define FALCON_TESTS_SESSION_HARNESS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crowd/faulty_crowd.h"
#include "crowd/resilient_crowd.h"
#include "session/snapshot.h"
#include "session/workflow_session.h"
#include "workload/generator.h"
#include "workload/quality.h"

namespace falcon {

inline ClusterConfig FastCluster(int threads = 1) {
  ClusterConfig c;
  c.job_startup = VDuration::Seconds(0.5);
  c.task_overhead = VDuration::Seconds(0.01);
  c.local_threads = threads;
  return c;
}

// Byte-identical resume needs a reproducible plan, so the deterministic
// rule-cost proxy replaces measured per-rule CPU times.
inline FalconConfig BlockingConfig(uint64_t seed = 7) {
  FalconConfig cfg;
  cfg.sample_size = 4000;
  cfg.sample_y = 40;
  cfg.al_max_iterations = 8;
  cfg.max_rules_to_eval = 8;
  cfg.max_rules_exhaustive = 8;
  cfg.pair_selection_mask_threshold = 1000;
  cfg.matcher_only_max_bytes = 256 * 1024;  // force the Blocker+Matcher plan
  cfg.deterministic_rule_cost = true;
  cfg.seed = seed;
  return cfg;
}

inline FalconConfig MatcherOnlyConfig(uint64_t seed = 7) {
  FalconConfig cfg;
  cfg.al_max_iterations = 8;
  cfg.deterministic_rule_cost = true;
  cfg.estimate_accuracy = true;  // cover the optional operator
  cfg.accuracy.sample_per_stratum = 25;
  cfg.seed = seed;
  return cfg;
}

inline GeneratedDataset BlockingData(uint64_t seed = 7) {
  WorkloadOptions opt;
  opt.size_a = 200;
  opt.size_b = 600;
  opt.seed = seed;
  return GenerateProducts(opt);
}

inline GeneratedDataset MatcherOnlyData(uint64_t seed = 7) {
  WorkloadOptions opt;
  opt.size_a = 80;
  opt.size_b = 150;
  opt.seed = seed;
  return GenerateProducts(opt);
}

inline SimulatedCrowdConfig CrowdConfig(uint64_t seed = 7) {
  SimulatedCrowdConfig c;
  c.error_rate = 0.03;
  c.seed = seed;
  return c;
}

/// A crowd platform chain handed to a session: `top` is the outermost
/// platform (what the session labels through), `sim` the innermost
/// SimulatedCrowd (accounting assertions read it). `owned` keeps the whole
/// chain alive, innermost first.
struct CrowdChain {
  std::vector<std::unique_ptr<CrowdPlatform>> owned;
  CrowdPlatform* top = nullptr;
  SimulatedCrowd* sim = nullptr;
};

/// Builds the chain for one run; called once for the reference run and once
/// per resume, always with the same seed, so resumed chains start fresh and
/// take their state from the snapshot.
using CrowdFactory = std::function<CrowdChain(uint64_t seed, TruthOracle)>;

inline CrowdChain PlainCrowd(uint64_t seed, TruthOracle oracle) {
  CrowdChain chain;
  auto sim =
      std::make_unique<SimulatedCrowd>(CrowdConfig(seed), std::move(oracle));
  chain.sim = sim.get();
  chain.top = sim.get();
  chain.owned.push_back(std::move(sim));
  return chain;
}

/// Every fault class at once, seeded per run.
inline FaultyCrowdConfig SweepFaults(uint64_t seed) {
  FaultyCrowdConfig f;
  f.transient_error_rate = 0.08;
  f.hit_expiry_rate = 0.12;
  f.abandon_rate = 0.20;
  f.spammer_rate = 0.08;
  f.straggler_rate = 0.10;
  f.straggler_multiplier = 4.0;
  f.seed = seed * 0x9E3779B97F4A7C15ull + 1;
  return f;
}

inline ResilientCrowdConfig SweepResilience() {
  ResilientCrowdConfig r;
  r.max_retries = 12;
  r.max_requeues = 20;
  return r;
}

/// ResilientCrowd over FaultyCrowd over a SimulatedCrowd whose workers err
/// at the harness default rate: the decorated stack of the resume sweeps.
inline CrowdChain NoisyFaultyChain(uint64_t seed, TruthOracle oracle) {
  CrowdChain chain;
  auto sim =
      std::make_unique<SimulatedCrowd>(CrowdConfig(seed), std::move(oracle));
  auto faulty = std::make_unique<FaultyCrowd>(SweepFaults(seed), sim.get());
  auto resilient =
      std::make_unique<ResilientCrowd>(SweepResilience(), faulty.get());
  chain.sim = sim.get();
  chain.top = resilient.get();
  chain.owned.push_back(std::move(sim));
  chain.owned.push_back(std::move(faulty));
  chain.owned.push_back(std::move(resilient));
  return chain;
}

/// The reference run: execute to completion, snapshotting at EVERY operator
/// boundary — before Start(), before each Step(), and after the last one.
struct ReferenceRun {
  std::vector<std::pair<PipelineStage, std::string>> snapshots;
  MatchResult result;
  std::string wal;                ///< full crowd journal
  size_t platform_questions = 0;  ///< questions the real platform answered
};

inline ReferenceRun RunWithCheckpoints(
    const GeneratedDataset& data, const ClusterConfig& ccfg,
    const FalconConfig& cfg, const CrowdFactory& make_crowd = PlainCrowd) {
  ReferenceRun out;
  Cluster cluster(ccfg);
  CrowdChain chain = make_crowd(cfg.seed, data.truth.MakeOracle());
  WorkflowSession session("ref", &data.a, &data.b, chain.top, &cluster, cfg);
  out.snapshots.emplace_back(PipelineStage::kInit, session.SaveSnapshot());
  Status st = session.Start();
  EXPECT_TRUE(st.ok()) << st.ToString();
  while (!session.done()) {
    out.snapshots.emplace_back(session.next_stage(), session.SaveSnapshot());
    st = session.Step();
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) return out;
  }
  out.snapshots.emplace_back(PipelineStage::kDone, session.SaveSnapshot());
  out.wal = session.ExportJournal();
  out.platform_questions = chain.sim->total_questions();
  auto r = session.TakeResult();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) out.result = std::move(r).value();
  return out;
}

/// Byte-identical-outcome comparison. Machine-time metrics are excluded on
/// purpose: per-task seconds are measured CPU times and inherently vary
/// between runs; determinism is promised for everything the user pays for
/// or acts on.
inline void ExpectSameOutcome(const MatchResult& ref, const MatchResult& got,
                              const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(got.matches, ref.matches);
  EXPECT_EQ(got.candidates, ref.candidates);
  ASSERT_EQ(got.sequence.rules.size(), ref.sequence.rules.size());
  for (size_t i = 0; i < ref.sequence.rules.size(); ++i) {
    EXPECT_EQ(CanonicalKey(got.sequence.rules[i]),
              CanonicalKey(ref.sequence.rules[i]));
  }
  EXPECT_DOUBLE_EQ(got.sequence.selectivity, ref.sequence.selectivity);
  EXPECT_EQ(got.matcher.num_trees(), ref.matcher.num_trees());
  EXPECT_EQ(got.metrics.questions, ref.metrics.questions);
  EXPECT_DOUBLE_EQ(got.metrics.cost, ref.metrics.cost);
  EXPECT_DOUBLE_EQ(got.metrics.crowd_time.seconds,
                   ref.metrics.crowd_time.seconds);
  EXPECT_EQ(got.metrics.candidate_size, ref.metrics.candidate_size);
  EXPECT_EQ(got.metrics.used_blocking, ref.metrics.used_blocking);
  EXPECT_EQ(got.metrics.budget_exhausted, ref.metrics.budget_exhausted);
  EXPECT_EQ(got.metrics.has_accuracy_estimate,
            ref.metrics.has_accuracy_estimate);
  if (ref.metrics.has_accuracy_estimate) {
    EXPECT_DOUBLE_EQ(got.metrics.accuracy.precision,
                     ref.metrics.accuracy.precision);
    EXPECT_DOUBLE_EQ(got.metrics.accuracy.recall,
                     ref.metrics.accuracy.recall);
  }
}

/// Kills-and-resumes at every boundary: each snapshot is loaded into a fresh
/// world (fresh copies of the tables regenerated from the workload seed,
/// fresh crowd chain whose state comes from the snapshot) and handed to
/// `check`. A run of the wrong plan template fails the boundary count:
/// kInit + one per executed operator + kDone.
inline void ResumeEveryBoundary(
    const FalconConfig& cfg, const ClusterConfig& ccfg,
    GeneratedDataset (*make_data)(uint64_t), uint64_t data_seed,
    size_t expect_boundaries, const CrowdFactory& make_crowd,
    const std::function<void(const ReferenceRun&, const std::string& blob,
                             WorkflowSession*, const CrowdChain&)>& check) {
  GeneratedDataset data = make_data(data_seed);
  ReferenceRun ref = RunWithCheckpoints(data, ccfg, cfg, make_crowd);
  ASSERT_EQ(ref.snapshots.size(), expect_boundaries);

  for (const auto& [stage, blob] : ref.snapshots) {
    SCOPED_TRACE(std::string("boundary=") + PipelineStageName(stage));
    GeneratedDataset fresh = make_data(data_seed);
    Cluster cluster(ccfg);
    CrowdChain chain = make_crowd(cfg.seed, fresh.truth.MakeOracle());
    auto resumed = WorkflowSession::Resume(blob, &fresh.a, &fresh.b,
                                           chain.top, &cluster, cfg);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    check(ref, blob, resumed->get(), chain);
  }
}

/// Every resumed session runs to the uninterrupted run's outcome.
inline void SweepAllBoundaries(const FalconConfig& cfg,
                               const ClusterConfig& ccfg,
                               GeneratedDataset (*make_data)(uint64_t),
                               uint64_t data_seed, size_t expect_boundaries,
                               const CrowdFactory& make_crowd = PlainCrowd) {
  ResumeEveryBoundary(
      cfg, ccfg, make_data, data_seed, expect_boundaries, make_crowd,
      [](const ReferenceRun& ref, const std::string&,
         WorkflowSession* session, const CrowdChain& chain) {
        EXPECT_EQ(session->id(), "ref");
        Status st = session->RunToCompletion();
        ASSERT_TRUE(st.ok()) << st.ToString();
        auto r = session->TakeResult();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ExpectSameOutcome(ref.result, r.value(), "resumed run");
        // The resumed platform's total question count equals the
        // uninterrupted run's: nothing was re-asked, nothing was skipped.
        EXPECT_EQ(chain.sim->total_questions(), ref.platform_questions);
      });
}

/// Every resumed session saves back the very bytes it resumed from, so the
/// decoder reads every durable field the writer wrote.
inline void ExpectResaveByteIdentical(const FalconConfig& cfg,
                                      const ClusterConfig& ccfg,
                                      GeneratedDataset (*make_data)(uint64_t),
                                      uint64_t data_seed,
                                      size_t expect_boundaries,
                                      const CrowdFactory& make_crowd) {
  ResumeEveryBoundary(
      cfg, ccfg, make_data, data_seed, expect_boundaries, make_crowd,
      [](const ReferenceRun&, const std::string& blob,
         WorkflowSession* resumed, const CrowdChain&) {
        const std::string resaved = resumed->SaveSnapshot();
        // Not EXPECT_EQ: a failure would print two snapshots in full.
        auto diff = std::mismatch(blob.begin(), blob.end(), resaved.begin(),
                                  resaved.end());
        EXPECT_TRUE(resaved == blob)
            << "first differing byte " << (diff.first - blob.begin())
            << " of " << blob.size() << " (re-saved " << resaved.size()
            << ")";
      });
}

}  // namespace falcon

#endif  // FALCON_TESTS_SESSION_HARNESS_H_
