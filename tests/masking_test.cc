// Integration tests for the crowd-time masking semantics (Section 10.2):
// the Table-5 ordering invariants and the per-operator accounting rules.
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "workload/generator.h"
#include "workload/quality.h"

namespace falcon {
namespace {

ClusterConfig FastCluster() {
  ClusterConfig c;
  c.job_startup = VDuration::Seconds(0.5);
  c.task_overhead = VDuration::Seconds(0.01);
  return c;
}

FalconConfig BaseConfig() {
  FalconConfig cfg;
  cfg.sample_size = 5000;
  cfg.al_max_iterations = 10;
  cfg.max_rules_to_eval = 8;
  cfg.matcher_only_max_bytes = 1 << 20;
  cfg.seed = 7;
  return cfg;
}

RunMetrics RunWith(bool masking, bool o1, bool o2, bool o3) {
  WorkloadOptions opt;
  opt.size_a = 250;
  opt.size_b = 750;
  opt.seed = 7;
  auto data = GenerateProducts(opt);
  Cluster cluster(FastCluster());
  SimulatedCrowdConfig ccfg;
  ccfg.error_rate = 0.02;
  ccfg.seed = 7;
  SimulatedCrowd crowd(ccfg, data.truth.MakeOracle());
  FalconConfig cfg = BaseConfig();
  cfg.enable_masking = masking;
  cfg.mask_index_building = o1;
  cfg.mask_speculative_execution = o2;
  cfg.mask_pair_selection = o3;
  FalconPipeline pipeline(&data.a, &data.b, &crowd, &cluster, cfg);
  auto r = pipeline.Run();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r->metrics : RunMetrics{};
}

TEST(MaskingTest, Table5OrderingInvariants) {
  RunMetrics u = RunWith(false, false, false, false);
  RunMetrics o = RunWith(true, true, true, true);
  // Full masking never exceeds the unmasked critical path. (Virtual times
  // carry some measurement noise; allow a small tolerance.)
  double slack = 0.1 * u.machine_unmasked.seconds + 2.0;
  EXPECT_LE(o.machine_unmasked.seconds, u.machine_unmasked.seconds + slack);
  // With everything off, no machine time is hidden.
  EXPECT_NEAR(u.machine_unmasked.seconds, u.machine_time.seconds,
              1e-6 * u.machine_time.seconds + 1e-6);
  // With masking on, some machine work was actually hidden.
  EXPECT_LT(o.machine_unmasked.seconds, o.machine_time.seconds);
}

TEST(MaskingTest, AblationsLieBetween) {
  RunMetrics u = RunWith(false, false, false, false);
  RunMetrics o1_off = RunWith(true, false, true, true);
  // An ablated run still masks (other optimizations run), so it cannot be
  // better than... it CAN tie full masking if the ablated optimization had
  // nothing to hide; it must not exceed the fully unmasked time by more
  // than noise.
  double slack = 0.15 * u.machine_unmasked.seconds + 2.0;
  EXPECT_LE(o1_off.machine_unmasked.seconds,
            u.machine_unmasked.seconds + slack);
  EXPECT_LE(o1_off.machine_unmasked.seconds,
            o1_off.machine_time.seconds + 1e-9);
}

TEST(MaskingTest, OperatorRowsAccounting) {
  RunMetrics m = RunWith(true, true, true, true);
  ASSERT_FALSE(m.operators.empty());
  std::map<std::string, int> seen;
  VDuration sum_raw;
  VDuration sum_unmasked;
  for (const auto& op : m.operators) {
    ++seen[op.name];
    EXPECT_LE(op.unmasked.seconds, op.raw.seconds + 1e-9) << op.name;
    if (!op.is_crowd) {
      sum_raw += op.raw;
      sum_unmasked += op.unmasked;
    }
  }
  // The canonical plan stages all appear exactly once.
  for (const char* required :
       {"sample_pairs", "gen_fvs", "al_matcher(blocker)", "get_block_rules",
        "eval_rules", "sel_opt_seq", "apply_block_rules", "gen_fvs(C)",
        "al_matcher(matcher)", "apply_matcher"}) {
    EXPECT_EQ(seen[required], 1) << required;
  }
  // Machine rows account for all machine time except the al_matcher rows'
  // embedded machine parts (selection/training live inside crowd rows).
  EXPECT_LE(sum_unmasked.seconds, m.machine_unmasked.seconds + 1e-6);
  EXPECT_LE(sum_raw.seconds, m.machine_time.seconds + 1e-6);
  // Index building appeared as masked work.
  EXPECT_GE(seen["index_build(generic,masked)"] +
                seen["index_build(rules,masked)"],
            1);
}

TEST(MaskingTest, MaskedIndexBuildFullyHiddenUnderAmpleCrowdTime) {
  // At MTurk-scale latency the crowd bank dwarfs index-build time, so the
  // masked index rows should show (near-)zero unmasked time.
  RunMetrics m = RunWith(true, true, true, true);
  for (const auto& op : m.operators) {
    if (op.name.rfind("index_build(generic", 0) == 0 ||
        op.name.rfind("index_build(rules", 0) == 0) {
      EXPECT_LT(op.unmasked.seconds, op.raw.seconds * 0.5 + 0.5) << op.name;
    }
  }
}

TEST(MaskingTest, SpeculativeExecutionReusedUnderAmpleCrowdTime) {
  // With MTurk-scale crowd latency the mask window comfortably covers
  // speculative execution of every candidate rule, and the selected
  // sequence's rules are a subset of those candidates — so Algorithm 2 must
  // find a completed output to reuse.
  RunMetrics m = RunWith(true, true, true, true);
  EXPECT_GT(m.speculated_rules, 0);
  EXPECT_TRUE(m.spec_rule_reused);
  // And the reuse keeps apply_block_rules' unmasked cost below its raw
  // fresh-execution cost recorded in the unmasked run.
  RunMetrics u = RunWith(false, false, false, false);
  VDuration masked_apply;
  VDuration unmasked_apply;
  for (const auto& op : m.operators) {
    if (op.name == "apply_block_rules") masked_apply = op.unmasked;
  }
  for (const auto& op : u.operators) {
    if (op.name == "apply_block_rules") unmasked_apply = op.unmasked;
  }
  EXPECT_GT(unmasked_apply.seconds, 0.0);
  EXPECT_LE(masked_apply.seconds, unmasked_apply.seconds * 3.0 + 2.0);
}

TEST(MaskingTest, TotalsAreConsistentAcrossConfigs) {
  for (bool masking : {false, true}) {
    RunMetrics m = RunWith(masking, masking, masking, masking);
    EXPECT_NEAR(m.total_time.seconds,
                m.crowd_time.seconds + m.machine_unmasked.seconds, 1e-6);
    EXPECT_LE(m.machine_unmasked.seconds, m.machine_time.seconds + 1e-9);
    EXPECT_GT(m.crowd_time.seconds, 0.0);
  }
}

// --- speculation keeps only what Algorithm 2 reads -------------------------

// Fixed job and task costs dwarf measured CPU time here, and the crowd's HIT
// latency has no jitter: each speculative job takes 130 virtual seconds
// (100 s startup, 20 s map, 10 s reduce) and the mask bank is a fixed
// multiple of the HIT latency, so the latency alone sets where the mask
// window closes. On this workload get_block_rules proposes 5 rules and
// sel_opt_seq selects the first.
struct HeldOutput {
  std::string key;
  bool completed = false;
  size_t pairs = 0;
};

struct SpeculationRun {
  std::vector<HeldOutput> after_eval;  ///< speculative jobs after eval_rules
  std::set<std::string> sequence;      ///< keys of the selected sequence
  size_t jobs_after_apply = 0;
  MatchResult result;
};

SpeculationRun RunSpeculation(double hit_latency_s, bool speculate) {
  WorkloadOptions opt;
  opt.size_a = 200;
  opt.size_b = 600;
  opt.seed = 7;
  auto data = GenerateProducts(opt);
  ClusterConfig ccfg;
  ccfg.job_startup = VDuration::Seconds(100);
  ccfg.task_overhead = VDuration::Seconds(10);
  ccfg.local_threads = 1;
  Cluster cluster(ccfg);
  SimulatedCrowdConfig crowd_cfg;
  crowd_cfg.error_rate = 0.03;
  crowd_cfg.hit_latency_mean = VDuration::Seconds(hit_latency_s);
  crowd_cfg.latency_sigma = 0.0;
  crowd_cfg.seed = 7;
  SimulatedCrowd crowd(crowd_cfg, data.truth.MakeOracle());
  FalconConfig cfg;
  cfg.sample_size = 4000;
  cfg.sample_y = 40;
  cfg.al_max_iterations = 8;
  cfg.max_rules_to_eval = 8;
  cfg.max_rules_exhaustive = 8;
  cfg.pair_selection_mask_threshold = 1000;
  cfg.matcher_only_max_bytes = 256 * 1024;
  cfg.deterministic_rule_cost = true;
  cfg.mask_speculative_execution = speculate;
  cfg.seed = 7;
  FalconPipeline pipeline(&data.a, &data.b, &crowd, &cluster, cfg);
  SpeculationRun run;
  Status st = pipeline.Start();
  while (st.ok() && !pipeline.done()) {
    const PipelineStage stage = pipeline.state().next;
    st = pipeline.Step();
    if (stage == PipelineStage::kEvalRules) {
      for (const auto& job : pipeline.speculative_jobs()) {
        run.after_eval.push_back(
            {job.key, job.completed, job.result.pairs.size()});
      }
    } else if (stage == PipelineStage::kSelectSeq) {
      for (const auto& rule : pipeline.state().out.sequence.rules) {
        run.sequence.insert(CanonicalKey(rule));
      }
    } else if (stage == PipelineStage::kApplyRules) {
      run.jobs_after_apply = pipeline.speculative_jobs().size();
    }
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (st.ok()) run.result = std::move(pipeline.TakeResult()).value();
  return run;
}

// Every job whose rule is in the selected sequence keeps its (non-empty)
// output; every other job keeps none; apply_block_rules releases them all.
// Returns how many jobs were dropped.
size_t ExpectOnlySelectedOutputsHeld(const SpeculationRun& run) {
  EXPECT_FALSE(run.sequence.empty());
  size_t dropped = 0;
  for (const HeldOutput& job : run.after_eval) {
    if (run.sequence.contains(job.key)) {
      EXPECT_GT(job.pairs, 0u) << job.key;
    } else {
      EXPECT_EQ(job.pairs, 0u) << job.key;
      ++dropped;
    }
  }
  EXPECT_EQ(run.jobs_after_apply, 0u);
  return dropped;
}

// Without speculation apply_block_rules runs the sequence fresh; Algorithm 2
// must reach the same candidates, and so the same matches.
void ExpectSameOutputsAsFreshApply(const SpeculationRun& run) {
  static const SpeculationRun fresh = RunSpeculation(1000, false);
  ASSERT_FALSE(fresh.result.candidates.empty());
  EXPECT_FALSE(fresh.result.metrics.spec_rule_reused);
  EXPECT_EQ(run.result.candidates, fresh.result.candidates);
  EXPECT_EQ(run.result.matches, fresh.result.matches);
}

TEST(SpeculationRetentionTest, AmpleWindowKeepsOnlySelectedOutputs) {
  SpeculationRun run = RunSpeculation(1000, true);
  const RunMetrics& m = run.result.metrics;
  ASSERT_EQ(run.after_eval.size(), 5u);
  for (const HeldOutput& job : run.after_eval) EXPECT_TRUE(job.completed);
  EXPECT_EQ(m.speculated_rules, 5);
  EXPECT_EQ(m.num_candidate_rules, 5u);
  EXPECT_EQ(ExpectOnlySelectedOutputsHeld(run), 4u);
  EXPECT_TRUE(m.spec_rule_reused);
  ExpectSameOutputsAsFreshApply(run);
}

// The bank covers the first (selected) job and runs out inside the second,
// whose rule is not selected: its output is dropped, and Algorithm 2 reuses
// the completed one.
TEST(SpeculationRetentionTest, UnselectedInFlightOutputIsDropped) {
  SpeculationRun run = RunSpeculation(90, true);
  const RunMetrics& m = run.result.metrics;
  ASSERT_EQ(run.after_eval.size(), 2u);
  EXPECT_TRUE(run.after_eval[0].completed);
  EXPECT_FALSE(run.after_eval[1].completed);
  EXPECT_FALSE(run.sequence.contains(run.after_eval[1].key));
  EXPECT_EQ(m.speculated_rules, 1);
  EXPECT_EQ(ExpectOnlySelectedOutputsHeld(run), 1u);
  EXPECT_TRUE(m.spec_rule_reused);
  ExpectSameOutputsAsFreshApply(run);
}

// The bank runs out inside the reduce phase of the first job, whose rule is
// selected: the in-flight job keeps its output, and Algorithm 2 steers it
// (lines 12-27) instead of applying the sequence fresh.
TEST(SpeculationRetentionTest, SelectedInFlightOutputIsSteered) {
  SpeculationRun run = RunSpeculation(71.4, true);
  const RunMetrics& m = run.result.metrics;
  ASSERT_EQ(run.after_eval.size(), 1u);
  EXPECT_FALSE(run.after_eval[0].completed);
  EXPECT_TRUE(run.sequence.contains(run.after_eval[0].key));
  EXPECT_EQ(m.speculated_rules, 0);
  EXPECT_EQ(ExpectOnlySelectedOutputsHeld(run), 0u);
  EXPECT_TRUE(m.spec_rule_reused);
  ExpectSameOutputsAsFreshApply(run);
}

}  // namespace
}  // namespace falcon
