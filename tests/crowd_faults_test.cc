// Unreliable-crowd robustness tests (ctest label "crowd-faults").
//
// Exercises the two crowd decorators — FaultyCrowd (seeded fault injection:
// transient platform errors, expired HITs, worker abandonment, spam-rejected
// answers, straggler latency) and ResilientCrowd (retry with exponential
// backoff, partial-batch requeue with vote merging, graceful budget
// degradation) — in isolation and composed under the full pipeline: a fault
// sweep across both plan templates must converge to the same final match
// set as the fault-free run, budget exhaustion must terminate runs cleanly
// with the labels already paid for, and every session-resume boundary must
// stay byte-identical with the decorator stack installed.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crowd/faulty_crowd.h"
#include "crowd/resilient_crowd.h"
#include "session_harness.h"

namespace falcon {
namespace {

TruthOracle AllMatch() {
  return [](RowId, RowId) { return true; };
}

std::vector<PairQuestion> MakePairs(size_t n) {
  std::vector<PairQuestion> pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.emplace_back(static_cast<RowId>(i), static_cast<RowId>(i + 1));
  }
  return pairs;
}

SimulatedCrowdConfig PerfectConfig(uint64_t seed = 7) {
  SimulatedCrowdConfig c;
  c.error_rate = 0.0;
  c.latency_sigma = 0.0;
  c.seed = seed;
  return c;
}

// ---------------------------------------------------------------------------
// FaultyCrowd fault classes
// ---------------------------------------------------------------------------

TEST(FaultyCrowdTest, TransientErrorFailsBeforeTouchingThePlatform) {
  SimulatedCrowd sim(PerfectConfig(), AllMatch());
  FaultyCrowdConfig fc;
  fc.transient_error_rate = 1.0;
  FaultyCrowd faulty(fc, &sim);
  auto r = faulty.LabelPairs(MakePairs(10), VoteScheme::kMajority3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(faulty.counters().transient_errors, 1u);
  // Side-effect-free below the decorator: no answers drawn, nothing charged.
  EXPECT_EQ(sim.total_answers(), 0u);
  EXPECT_DOUBLE_EQ(sim.ledger().spent(), 0.0);
}

TEST(FaultyCrowdTest, ExpiredHitsComeBackUnanswered) {
  SimulatedCrowd sim(PerfectConfig(), AllMatch());
  FaultyCrowdConfig fc;
  fc.hit_expiry_rate = 1.0;
  fc.questions_per_hit = 10;
  FaultyCrowd faulty(fc, &sim);
  auto r = faulty.LabelPairs(MakePairs(25), VoteScheme::kMajority3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(faulty.counters().expired_hits, 3u);  // ceil(25 / 10)
  EXPECT_EQ(r->num_answers, 0u);
  EXPECT_DOUBLE_EQ(r->cost, 0.0);
  ASSERT_EQ(r->answers_per_question.size(), 25u);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(r->answers_per_question[i], 0u);
    EXPECT_FALSE(r->Answered(i));
  }
  EXPECT_EQ(sim.total_answers(), 0u);
}

TEST(FaultyCrowdTest, AbandonmentEndsQuestionsBelowQuorum) {
  SimulatedCrowd sim(PerfectConfig(), AllMatch());
  FaultyCrowdConfig fc;
  fc.abandon_rate = 1.0;
  FaultyCrowd faulty(fc, &sim);
  auto r = faulty.LabelPairs(MakePairs(40), VoteScheme::kMajority3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(faulty.counters().abandoned_questions, 40u);
  for (size_t i = 0; i < 40; ++i) {
    // The delivered cap is drawn strictly below the 3-answer quorum.
    EXPECT_LT(r->answers_per_question[i], 3u);
  }
  EXPECT_LT(r->num_answers, 3u * 40u);
}

TEST(FaultyCrowdTest, SpamRejectionsConsumeAssignmentSlots) {
  SimulatedCrowd sim(PerfectConfig(), AllMatch());
  FaultyCrowdConfig fc;
  fc.spammer_rate = 1.0;  // every posted assignment is a rejected spammer
  FaultyCrowd faulty(fc, &sim);
  auto r = faulty.LabelPairs(MakePairs(20), VoteScheme::kMajority3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(faulty.counters().spam_answers, 3u * 20u);  // full 3-slot quota
  EXPECT_EQ(r->num_answers, 0u);
  EXPECT_DOUBLE_EQ(r->cost, 0.0);  // rejected answers are not paid for
  for (size_t i = 0; i < 20; ++i) EXPECT_FALSE(r->Answered(i));
}

TEST(FaultyCrowdTest, StragglersStretchBatchLatency) {
  SimulatedCrowd sim(PerfectConfig(), AllMatch());
  FaultyCrowdConfig fc;
  fc.straggler_rate = 1.0;
  fc.straggler_multiplier = 8.0;
  FaultyCrowd faulty(fc, &sim);
  auto r = faulty.LabelPairs(MakePairs(10), VoteScheme::kMajority3);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(faulty.counters().straggler_hits, 1u);
  // No jitter in the inner platform: exactly mean * multiplier.
  EXPECT_NEAR(r->latency.seconds, 90.0 * 8.0, 1e-6);
  // Labels themselves are unaffected.
  EXPECT_EQ(r->num_answers, 30u);
}

TEST(FaultyCrowdTest, DeterministicAndStateRoundTrips) {
  FaultyCrowdConfig fc;
  fc.transient_error_rate = 0.1;
  fc.hit_expiry_rate = 0.2;
  fc.abandon_rate = 0.3;
  fc.spammer_rate = 0.1;
  fc.straggler_rate = 0.2;
  fc.seed = 99;
  SimulatedCrowdConfig sc = PerfectConfig(42);
  sc.error_rate = 0.1;
  sc.latency_sigma = 0.25;

  auto run_batches = [&](FaultyCrowd* f, int from, int to) {
    std::vector<std::string> out;
    for (int b = from; b < to; ++b) {
      auto r = f->LabelPairs(MakePairs(17), VoteScheme::kMajority3);
      if (!r.ok()) {
        out.push_back(std::string("err:") + r.status().ToString());
        continue;
      }
      std::string s;
      for (size_t i = 0; i < r->labels.size(); ++i) {
        s += r->labels[i] ? '1' : '0';
        s += 'a' + static_cast<char>(r->answers_per_question[i] % 8);
      }
      s += ':';
      s += std::to_string(r->latency.seconds);
      out.push_back(s);
    }
    return out;
  };

  // Same seeds => identical fault/answer streams.
  SimulatedCrowd sim1(sc, AllMatch());
  FaultyCrowd f1(fc, &sim1);
  SimulatedCrowd sim2(sc, AllMatch());
  FaultyCrowd f2(fc, &sim2);
  EXPECT_EQ(run_batches(&f1, 0, 6), run_batches(&f2, 0, 6));

  // Snapshot mid-stream, restore into a FRESH stack: the continuation
  // matches, including the wrapped platform's state and the counters.
  std::string blob = f1.SaveState();
  SimulatedCrowd sim3(sc, AllMatch());
  FaultyCrowd f3(fc, &sim3);
  ASSERT_TRUE(f3.RestoreState(blob).ok());
  EXPECT_EQ(f3.counters().transient_errors, f1.counters().transient_errors);
  EXPECT_EQ(f3.counters().abandoned_questions,
            f1.counters().abandoned_questions);
  EXPECT_EQ(run_batches(&f1, 6, 12), run_batches(&f3, 6, 12));
  EXPECT_EQ(sim3.total_answers(), sim1.total_answers());

  // State blobs are type-tagged: a decorator blob cannot restore into a
  // bare platform.
  SimulatedCrowd bare(sc, AllMatch());
  EXPECT_FALSE(bare.RestoreState(blob).ok());
}

TEST(FaultyCrowdTest, ConfigValidationRejectsBadValues) {
  FaultyCrowdConfig fc;
  fc.abandon_rate = -0.5;
  EXPECT_FALSE(ValidateFaultyCrowdConfig(fc).ok());
  fc = FaultyCrowdConfig{};
  fc.questions_per_hit = 0;
  EXPECT_FALSE(ValidateFaultyCrowdConfig(fc).ok());
  fc = FaultyCrowdConfig{};
  fc.straggler_multiplier = 0.5;
  EXPECT_FALSE(ValidateFaultyCrowdConfig(fc).ok());
  EXPECT_TRUE(ValidateFaultyCrowdConfig(FaultyCrowdConfig{}).ok());
}

// ---------------------------------------------------------------------------
// ResilientCrowd: retry, requeue, degrade
// ---------------------------------------------------------------------------

TEST(ResilientCrowdTest, RetriesTransientErrorsThenGivesUp) {
  SimulatedCrowd sim(PerfectConfig(), AllMatch());
  FaultyCrowdConfig fc;
  fc.transient_error_rate = 1.0;  // the platform never recovers
  FaultyCrowd faulty(fc, &sim);
  ResilientCrowdConfig rc;
  rc.max_retries = 3;
  ResilientCrowd resilient(rc, &faulty);
  auto r = resilient.LabelPairs(MakePairs(5), VoteScheme::kMajority3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(resilient.total_retries(), 3u);
  EXPECT_EQ(faulty.counters().transient_errors, 4u);  // initial try + retries
}

TEST(ResilientCrowdTest, RetryBackoffIsChargedToLatency) {
  SimulatedCrowd sim(PerfectConfig(), AllMatch());
  FaultyCrowdConfig fc;
  fc.transient_error_rate = 0.5;
  fc.seed = 3;
  FaultyCrowd faulty(fc, &sim);
  ResilientCrowdConfig rc;
  rc.max_retries = 20;
  rc.initial_backoff = VDuration::Seconds(30.0);
  ResilientCrowd resilient(rc, &faulty);
  // Flaky platform, generous retry budget: every batch eventually succeeds.
  VDuration total;
  for (int b = 0; b < 20; ++b) {
    auto r = resilient.LabelPairs(MakePairs(10), VoteScheme::kMajority3);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->num_answers, 30u);
    total += r->latency;
  }
  EXPECT_GT(resilient.total_retries(), 0u);
  // Each retry waited at least the initial backoff.
  EXPECT_GE(total.seconds,
            20 * 90.0 + 30.0 * static_cast<double>(resilient.total_retries()));
}

TEST(ResilientCrowdTest, RequeuesUnderQuorumQuestionsAndMergesVotes) {
  SimulatedCrowd sim(PerfectConfig(), AllMatch());
  FaultyCrowdConfig fc;
  fc.abandon_rate = 0.35;
  fc.hit_expiry_rate = 0.2;
  fc.seed = 11;
  FaultyCrowd faulty(fc, &sim);
  ResilientCrowdConfig rc;
  rc.max_requeues = 16;
  ResilientCrowd resilient(rc, &faulty);

  auto r = resilient.LabelPairs(MakePairs(30), VoteScheme::kMajority3);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(resilient.total_requeued_questions(), 0u);
  EXPECT_EQ(resilient.under_quorum_questions(), 0u);
  for (size_t i = 0; i < 30; ++i) {
    // A zero-error crowd answers unanimously, so the merged quorum is
    // exactly three yes votes — partial progress across requeue rounds
    // accumulates instead of starting over.
    EXPECT_TRUE(r->labels[i]);
    EXPECT_EQ(r->answers_per_question[i], 3u);
    EXPECT_EQ(r->yes_votes[i], 3u);
  }
  EXPECT_EQ(r->num_answers, 90u);  // no answer was collected twice
  // Strong majority under the same faults: exactly the 4-vote sweep.
  auto rs = resilient.LabelPairs(MakePairs(20), VoteScheme::kStrongMajority7);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(resilient.under_quorum_questions(), 0u);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(rs->answers_per_question[i], 4u);
    EXPECT_EQ(rs->yes_votes[i], 4u);
  }
}

TEST(ResilientCrowdTest, BudgetExhaustionDegradesToTruncatedPartialBatch) {
  SimulatedCrowdConfig sc = PerfectConfig();
  sc.budget_cap = 0.31;  // affords 15 answers = 5 majority-3 questions
  SimulatedCrowd sim(sc, AllMatch());
  ResilientCrowd resilient(ResilientCrowdConfig{}, &sim);

  auto r = resilient.LabelPairs(MakePairs(20), VoteScheme::kMajority3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->truncated);
  EXPECT_EQ(resilient.truncated_batches(), 1u);
  // The posting window was bisected down to the 5 questions the budget
  // affords; their labels are fully paid for, the rest went unposted.
  EXPECT_EQ(r->num_answers, 15u);
  EXPECT_NEAR(r->cost, 0.30, 1e-9);
  size_t answered = 0;
  for (size_t i = 0; i < 20; ++i) {
    if (r->Answered(i)) {
      ++answered;
      EXPECT_TRUE(r->labels[i]);
      EXPECT_EQ(r->answers_per_question[i], 3u);
    }
  }
  EXPECT_EQ(answered, 5u);
  EXPECT_NEAR(sim.ledger().spent(), 0.30, 1e-9);

  // A follow-up batch cannot afford a single question: everything is
  // truncated away, nothing is charged.
  auto r2 = resilient.LabelPairs(MakePairs(4), VoteScheme::kMajority3);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->truncated);
  EXPECT_EQ(r2->num_answers, 0u);
}

TEST(ResilientCrowdTest, BudgetErrorPropagatesWhenDegradeDisabled) {
  SimulatedCrowdConfig sc = PerfectConfig();
  sc.budget_cap = 0.10;
  SimulatedCrowd sim(sc, AllMatch());
  ResilientCrowdConfig rc;
  rc.degrade_on_budget_exhausted = false;
  ResilientCrowd resilient(rc, &sim);
  auto r = resilient.LabelPairs(MakePairs(20), VoteScheme::kMajority3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted);
}

TEST(ResilientCrowdTest, ConfigValidationRejectsBadValues) {
  ResilientCrowdConfig rc;
  rc.max_retries = -1;
  EXPECT_FALSE(ValidateResilientCrowdConfig(rc).ok());
  rc = ResilientCrowdConfig{};
  rc.initial_backoff = VDuration::Seconds(0.0);
  EXPECT_FALSE(ValidateResilientCrowdConfig(rc).ok());
  rc = ResilientCrowdConfig{};
  rc.backoff_multiplier = 0.9;
  EXPECT_FALSE(ValidateResilientCrowdConfig(rc).ok());
  EXPECT_TRUE(ValidateResilientCrowdConfig(ResilientCrowdConfig{}).ok());
}

TEST(ResilientCrowdTest, StateRoundTripsAcrossTheDecoratorStack) {
  SimulatedCrowdConfig sc = PerfectConfig(5);
  sc.error_rate = 0.1;
  FaultyCrowdConfig fc;
  fc.abandon_rate = 0.3;
  fc.transient_error_rate = 0.1;
  fc.seed = 13;

  SimulatedCrowd sim1(sc, AllMatch());
  FaultyCrowd f1(fc, &sim1);
  ResilientCrowd r1(ResilientCrowdConfig{}, &f1);
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(r1.LabelPairs(MakePairs(12), VoteScheme::kMajority3).ok());
  }
  std::string blob = r1.SaveState();

  SimulatedCrowd sim2(sc, AllMatch());
  FaultyCrowd f2(fc, &sim2);
  ResilientCrowd r2(ResilientCrowdConfig{}, &f2);
  ASSERT_TRUE(r2.RestoreState(blob).ok());
  EXPECT_EQ(r2.total_retries(), r1.total_retries());
  EXPECT_EQ(r2.total_requeued_questions(), r1.total_requeued_questions());
  EXPECT_EQ(sim2.total_answers(), sim1.total_answers());
  auto a = r1.LabelPairs(MakePairs(12), VoteScheme::kStrongMajority7);
  auto b = r2.LabelPairs(MakePairs(12), VoteScheme::kStrongMajority7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_EQ(a->answers_per_question, b->answers_per_question);
  EXPECT_DOUBLE_EQ(a->latency.seconds, b->latency.seconds);
}

// ---------------------------------------------------------------------------
// Pipeline integration: fault sweep, budget cap, decorated resume
// ---------------------------------------------------------------------------

/// sim(error_rate = 0) only: the fault-free baseline of the sweep.
CrowdChain PerfectChain(uint64_t seed, TruthOracle oracle) {
  CrowdChain chain;
  auto sim =
      std::make_unique<SimulatedCrowd>(PerfectConfig(seed), std::move(oracle));
  chain.sim = sim.get();
  chain.top = sim.get();
  chain.owned.push_back(std::move(sim));
  return chain;
}

/// Passes every call through and checks the result's shape on its own,
/// apart from the library's checks: one label, answer count and yes count
/// per pair, and never more yes votes than answers.
class ShapeCheckedCrowd : public CrowdDecorator {
 public:
  explicit ShapeCheckedCrowd(CrowdPlatform* inner) : CrowdDecorator(inner) {}

  Result<LabelResult> LabelBatch(const LabelRequest& request) override {
    Result<LabelResult> r = inner_->LabelBatch(request);
    if (!r.ok()) return r;
    ++checked_;
    const size_t n = request.pairs.size();
    EXPECT_EQ(r->labels.size(), n);
    EXPECT_EQ(r->answers_per_question.size(), n);
    EXPECT_EQ(r->yes_votes.size(), n);
    if (r->answers_per_question.size() == n && r->yes_votes.size() == n) {
      for (size_t i = 0; i < n; ++i) {
        EXPECT_LE(r->yes_votes[i], r->answers_per_question[i]) << i;
      }
    }
    Record(*r);
    return r;
  }

  size_t checked() const { return checked_; }

 protected:
  uint32_t StateKind() const override { return 100; }
  void SaveOwnState(BinaryWriter* w) const override { (void)w; }
  Status RestoreOwnState(BinaryReader* r) override {
    (void)r;
    return Status::OK();
  }

 private:
  size_t checked_ = 0;
};

/// sim(error_rate = 0) -> FaultyCrowd(all fault classes) -> ResilientCrowd,
/// each layer's results checked by a ShapeCheckedCrowd right above it.
CrowdChain PerfectFaultyChain(uint64_t seed, TruthOracle oracle) {
  CrowdChain chain;
  auto push = [&chain](std::unique_ptr<CrowdPlatform> layer) {
    chain.owned.push_back(std::move(layer));
    chain.owned.push_back(
        std::make_unique<ShapeCheckedCrowd>(chain.owned.back().get()));
    chain.top = chain.owned.back().get();
  };
  auto sim =
      std::make_unique<SimulatedCrowd>(PerfectConfig(seed), std::move(oracle));
  chain.sim = sim.get();
  push(std::move(sim));
  push(std::make_unique<FaultyCrowd>(SweepFaults(seed), chain.top));
  push(std::make_unique<ResilientCrowd>(SweepResilience(), chain.top));
  return chain;
}

MatchResult RunPipeline(const FalconConfig& cfg, const ClusterConfig& ccfg,
                        GeneratedDataset (*make_data)(uint64_t),
                        uint64_t data_seed, const CrowdFactory& make_crowd,
                        uint64_t* under_quorum = nullptr) {
  GeneratedDataset data = make_data(data_seed);
  Cluster cluster(ccfg);
  CrowdChain chain = make_crowd(cfg.seed, data.truth.MakeOracle());
  WorkflowSession session("sweep", &data.a, &data.b, chain.top, &cluster, cfg);
  Status st = session.RunToCompletion();
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (const auto& layer : chain.owned) {
    auto* resilient = dynamic_cast<ResilientCrowd*>(layer.get());
    if (resilient != nullptr && under_quorum != nullptr) {
      *under_quorum = resilient->under_quorum_questions();
    }
    if (auto* check = dynamic_cast<ShapeCheckedCrowd*>(layer.get())) {
      EXPECT_GT(check->checked(), 0u) << "a layer's results went unchecked";
    }
  }
  auto r = session.TakeResult();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : MatchResult{};
}

/// With a zero-error worker pool every vote is truth, so retried/requeued
/// collection converges to the exact labels — and the exact per-question
/// answer counts, hence cost — of the fault-free run.
void ExpectFaultSweepConverges(const FalconConfig& cfg,
                               const ClusterConfig& ccfg,
                               GeneratedDataset (*make_data)(uint64_t),
                               uint64_t data_seed) {
  MatchResult clean =
      RunPipeline(cfg, ccfg, make_data, data_seed, PerfectChain);
  uint64_t under_quorum = ~0ull;
  MatchResult faulted = RunPipeline(cfg, ccfg, make_data, data_seed,
                                    PerfectFaultyChain, &under_quorum);
  // Every faulted question eventually reached its quorum via requeues...
  EXPECT_EQ(under_quorum, 0u);
  // ...so the run bought the same labels for the same money and produced
  // the same final match set. (Crowd time legitimately differs: stragglers,
  // backoff waits, and extra requeue rounds stretch it.)
  EXPECT_EQ(faulted.matches, clean.matches);
  EXPECT_EQ(faulted.candidates, clean.candidates);
  ASSERT_EQ(faulted.sequence.rules.size(), clean.sequence.rules.size());
  for (size_t i = 0; i < clean.sequence.rules.size(); ++i) {
    EXPECT_EQ(CanonicalKey(faulted.sequence.rules[i]),
              CanonicalKey(clean.sequence.rules[i]));
  }
  EXPECT_EQ(faulted.metrics.questions, clean.metrics.questions);
  // Same answers bought; only the per-round accumulation order of the
  // ledger differs, so compare with an epsilon rather than bit-exactly.
  EXPECT_NEAR(faulted.metrics.cost, clean.metrics.cost, 1e-6);
  EXPECT_FALSE(faulted.metrics.budget_exhausted);
  EXPECT_GE(faulted.metrics.crowd_time.seconds,
            clean.metrics.crowd_time.seconds);
}

TEST(FaultSweepTest, BlockingPlanConvergesToFaultFreeMatches) {
  ExpectFaultSweepConverges(BlockingConfig(), FastCluster(1), &BlockingData,
                            7);
}

TEST(FaultSweepTest, MatcherOnlyPlanConvergesToFaultFreeMatches) {
  ExpectFaultSweepConverges(MatcherOnlyConfig(), FastCluster(1),
                            &MatcherOnlyData, 11);
}

TEST(FaultSweepTest, BlockingPlanConvergesWithFourLocalThreads) {
  ExpectFaultSweepConverges(BlockingConfig(), FastCluster(4), &BlockingData,
                            7);
}

// Lower the cap mid-run: the remaining crowd operators degrade to the
// labels already paid for, every call site ends its loop cleanly, and the
// run completes with metrics.budget_exhausted surfaced to the user.
TEST(FaultSweepTest, BudgetCapLoweredMidRunTerminatesCleanly) {
  GeneratedDataset data = MatcherOnlyData(11);
  FalconConfig cfg = MatcherOnlyConfig();
  Cluster cluster{FastCluster(1)};
  CrowdChain chain = PerfectFaultyChain(cfg.seed, data.truth.MakeOracle());
  WorkflowSession session("cap", &data.a, &data.b, chain.top, &cluster, cfg);
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(session.Step().ok());  // gen_fvs(C); next = al_matcher
  ASSERT_EQ(session.next_stage(), PipelineStage::kMatcherAl);

  // The service operator cuts the budget: one and a half dollars from here.
  double spent = chain.sim->ledger().spent();
  chain.sim->ledger() = BudgetLedger(spent + 1.50);
  chain.sim->ledger().RestoreSpent(spent);

  Status st = session.RunToCompletion();
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto r = session.TakeResult();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->metrics.budget_exhausted);
  EXPECT_FALSE(r->candidates.empty());
  // Whatever was bought stayed within the lowered cap.
  EXPECT_LE(chain.sim->ledger().spent(), spent + 1.50 + 1e-9);
  // The matcher still trained (on the labels already paid for) and produced
  // a final prediction for every candidate.
  EXPECT_GT(r->matcher.num_trees(), 0u);
}

// With no resilient decorator and a cap too low for even the seed batch,
// the run terminates with a clean BudgetExhausted status (not a crash, not
// a partial-state Internal error).
TEST(FaultSweepTest, CapBelowSeedBatchSurfacesBudgetExhausted) {
  GeneratedDataset data = MatcherOnlyData(11);
  FalconConfig cfg = MatcherOnlyConfig();
  Cluster cluster{FastCluster(1)};
  SimulatedCrowdConfig sc = PerfectConfig(cfg.seed);
  sc.budget_cap = 0.10;  // five answers: below one labeling batch
  SimulatedCrowd sim(sc, data.truth.MakeOracle());
  WorkflowSession session("tiny", &data.a, &data.b, &sim, &cluster, cfg);
  Status st = session.RunToCompletion();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kBudgetExhausted);
}

// The 13 blocking-plan + 6 matcher-only operator boundaries must stay
// byte-identical on kill-and-resume with the full decorator stack installed:
// decorator state (fault RNG, counters, retry totals) rides in the snapshot,
// and journal replay never re-asks a paid question.
TEST(DecoratedResumeTest, BlockingPlanByteIdenticalAtEveryBoundary) {
  SweepAllBoundaries(BlockingConfig(), FastCluster(1), &BlockingData, 7, 13,
                     NoisyFaultyChain);
}

TEST(DecoratedResumeTest, MatcherOnlyPlanByteIdenticalAtEveryBoundary) {
  SweepAllBoundaries(MatcherOnlyConfig(), FastCluster(1), &MatcherOnlyData,
                     11, 6, NoisyFaultyChain);
}

TEST(DecoratedResumeTest, BlockingPlanByteIdenticalWithFourLocalThreads) {
  SweepAllBoundaries(BlockingConfig(), FastCluster(4), &BlockingData, 7, 13,
                     NoisyFaultyChain);
}

}  // namespace
}  // namespace falcon
