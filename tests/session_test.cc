// Fault-injection tests of the checkpoint/recovery subsystem: kill the
// pipeline at every operator boundary of both plan templates, resume from
// the snapshot in a fresh "process" (fresh tables, fresh crowd platform),
// and require byte-identical outcomes — same matches, same candidates, same
// rule sequence, same crowd question count and cost, and zero re-asked
// (re-paid) crowd questions. Shared helpers live in session_harness.h;
// crowd_faults_test.cc re-runs the same sweeps under a fault-injecting
// crowd decorator stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "session/service.h"
#include "session_harness.h"

namespace falcon {
namespace {

// The Blocker+Matcher plan visits all 11 operators: kInit + 11 + kDone.
TEST(SessionResumeTest, BlockingPlanByteIdenticalAtEveryBoundary) {
  SweepAllBoundaries(BlockingConfig(), FastCluster(1), &BlockingData, 7, 13);
}

TEST(SessionResumeTest, BlockingPlanByteIdenticalWithFourLocalThreads) {
  SweepAllBoundaries(BlockingConfig(), FastCluster(4), &BlockingData, 7, 13);
}

// The Matcher-only plan: kInit + {gen_fvs(C), al_matcher, apply_matcher,
// estimate_accuracy} + kDone.
TEST(SessionResumeTest, MatcherOnlyPlanByteIdenticalAtEveryBoundary) {
  SweepAllBoundaries(MatcherOnlyConfig(), FastCluster(1), &MatcherOnlyData,
                     11, 6);
}

TEST(SessionResumeTest, ResumeRebuildTimeIsReportedNotCharged) {
  GeneratedDataset data = BlockingData(7);
  FalconConfig cfg = BlockingConfig();
  ReferenceRun ref = RunWithCheckpoints(data, FastCluster(1), cfg);
  // Pick the apply_block_rules boundary: indexes + token stores must be
  // rebuilt there.
  const std::string* blob = nullptr;
  for (const auto& [stage, snap] : ref.snapshots) {
    if (stage == PipelineStage::kApplyRules) blob = &snap;
  }
  ASSERT_NE(blob, nullptr);
  GeneratedDataset fresh = BlockingData(7);
  Cluster cluster{FastCluster(1)};
  SimulatedCrowd crowd(CrowdConfig(cfg.seed), fresh.truth.MakeOracle());
  auto resumed = WorkflowSession::Resume(*blob, &fresh.a, &fresh.b, &crowd,
                                         &cluster, cfg);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GT((*resumed)->resume_rebuild_time().seconds, 0.0);
  ASSERT_TRUE((*resumed)->RunToCompletion().ok());
  auto r = (*resumed)->TakeResult();
  ASSERT_TRUE(r.ok());
  ExpectSameOutcome(ref.result, r.value(), "apply boundary");
}

// From gen_fvs(C) on no stage probes a blocking index, and
// FeatureSet::Prepare builds the token views features read, so a session
// resumed at those boundaries rebuilds nothing and still finishes with the
// uninterrupted run's outcome.
TEST(SessionRehydrateTest, NothingIsRebuiltAfterBlocking) {
  GeneratedDataset data = BlockingData(7);
  FalconConfig cfg = BlockingConfig();
  ReferenceRun ref = RunWithCheckpoints(data, FastCluster(1), cfg);
  size_t resumed_at = 0;
  for (const auto& [stage, blob] : ref.snapshots) {
    if (stage != PipelineStage::kGenFvsCand &&
        stage != PipelineStage::kApplyMatcher &&
        stage != PipelineStage::kEstimateAccuracy) {
      continue;
    }
    SCOPED_TRACE(PipelineStageName(stage));
    ++resumed_at;
    GeneratedDataset fresh = BlockingData(7);
    Cluster cluster{FastCluster(1)};
    SimulatedCrowd crowd(CrowdConfig(cfg.seed), fresh.truth.MakeOracle());
    auto resumed = WorkflowSession::Resume(blob, &fresh.a, &fresh.b, &crowd,
                                           &cluster, cfg);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ((*resumed)->resume_rebuild_time().seconds, 0.0);
    ASSERT_TRUE((*resumed)->RunToCompletion().ok());
    auto r = (*resumed)->TakeResult();
    ASSERT_TRUE(r.ok());
    ExpectSameOutcome(ref.result, r.value(), "resumed run");
  }
  EXPECT_EQ(resumed_at, 3u);
}

TEST(SessionSnapshotTest, MetaReadbackAndIdentityChecks) {
  GeneratedDataset data = MatcherOnlyData(11);
  FalconConfig cfg = MatcherOnlyConfig();
  Cluster cluster{FastCluster(1)};
  SimulatedCrowd crowd(CrowdConfig(cfg.seed), data.truth.MakeOracle());
  WorkflowSession session("meta-test", &data.a, &data.b, &crowd, &cluster,
                          cfg);
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(session.Step().ok());
  std::string blob = session.SaveSnapshot();

  auto meta = ReadSnapshotMeta(blob);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->session_id, "meta-test");
  EXPECT_EQ(meta->next, PipelineStage::kMatcherAl);
  EXPECT_FALSE(meta->used_blocking);
  EXPECT_EQ(meta->seed, cfg.seed);
  EXPECT_EQ(meta->table_a_rows, data.a.num_rows());
  EXPECT_EQ(meta->table_a_hash, data.a.ContentHash());

  // Config drift is refused.
  FalconConfig drifted = cfg;
  drifted.score_gamma = 0.5;
  SimulatedCrowd crowd2(CrowdConfig(cfg.seed), data.truth.MakeOracle());
  auto r1 = WorkflowSession::Resume(blob, &data.a, &data.b, &crowd2, &cluster,
                                    drifted);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  // Table drift (different content hash) is refused.
  GeneratedDataset other = MatcherOnlyData(12);
  SimulatedCrowd crowd3(CrowdConfig(cfg.seed), other.truth.MakeOracle());
  auto r2 = WorkflowSession::Resume(blob, &other.a, &other.b, &crowd3,
                                    &cluster, cfg);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
}

// Snapshots carry ConfigFingerprint and resume only under an equal one, so
// the default config's fingerprint is pinned: a change to the fingerprinted
// fields or their encoding would orphan every snapshot already written.
TEST(SessionSnapshotTest, DefaultConfigFingerprintIsStable) {
  EXPECT_EQ(ConfigFingerprint(FalconConfig{}), 0xaf9e704bdd6c9697ull);
  EXPECT_EQ(kSnapshotVersion, 2u);
}

// The end-to-end bench's Blocker+Matcher config (bench/e2e BlockingConfig at
// scale 1, seed 100): a golden for a config that sets most of what callers
// vary, so the slots of settings that became constants stay pinned too.
TEST(SessionSnapshotTest, BenchBlockingConfigFingerprintIsStable) {
  FalconConfig cfg;
  cfg.seed = 100;
  cfg.sample_size = 6000;
  cfg.sample_y = 50;
  cfg.al_max_iterations = 15;
  cfg.max_rules_to_eval = 15;
  cfg.max_rules_exhaustive = 10;
  cfg.pair_selection_mask_threshold = 30000;
  cfg.matcher_only_max_bytes = size_t{8} * 1024 * 1024;
  cfg.deterministic_rule_cost = true;
  EXPECT_EQ(ConfigFingerprint(cfg), 0xcf1c712d6d74eec0ull);
}

TEST(SessionSnapshotTest, RejectsCorruptionTruncationAndFutureVersions) {
  GeneratedDataset data = MatcherOnlyData(11);
  FalconConfig cfg = MatcherOnlyConfig();
  Cluster cluster{FastCluster(1)};
  SimulatedCrowd crowd(CrowdConfig(cfg.seed), data.truth.MakeOracle());
  WorkflowSession session("sess", &data.a, &data.b, &crowd, &cluster, cfg);
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(session.Step().ok());
  std::string blob = session.SaveSnapshot();

  auto try_load = [&](const std::string& bytes) {
    GeneratedDataset fresh = MatcherOnlyData(11);
    Cluster c2{FastCluster(1)};
    SimulatedCrowd cr(CrowdConfig(cfg.seed), fresh.truth.MakeOracle());
    return WorkflowSession::Resume(bytes, &fresh.a, &fresh.b, &cr, &c2, cfg)
        .status();
  };

  // Pristine blob loads.
  EXPECT_TRUE(try_load(blob).ok()) << try_load(blob).ToString();

  // A flipped byte inside a section payload fails its CRC.
  std::string corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x5A;
  Status st = try_load(corrupt);
  ASSERT_FALSE(st.ok());

  std::string tail_corrupt = blob;
  tail_corrupt[tail_corrupt.size() - 5] ^= 0x01;
  st = try_load(tail_corrupt);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.ToString().find("CRC"), std::string::npos) << st.ToString();

  // Truncation is refused.
  st = try_load(blob.substr(0, blob.size() - 16));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);

  // A future format version is refused with a clean error.
  std::string future = blob;
  future[4] = 0x63;  // version u32 (little-endian) -> 99
  st = try_load(future);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("newer"), std::string::npos) << st.ToString();

  // Garbage is not a snapshot.
  EXPECT_FALSE(try_load("definitely not a snapshot").ok());
  EXPECT_FALSE(try_load("").ok());
}

// Saving a resumed session gives back the snapshot it resumed from, byte for
// byte, at every boundary of both plan templates and under both crowd stacks.
TEST(SessionSnapshotTest, ResaveOfResumedSnapshotIsByteIdentical) {
  const std::pair<const char*, CrowdFactory> stacks[] = {
      {"plain", PlainCrowd}, {"resilient over faulty", NoisyFaultyChain}};
  for (const auto& [name, make_crowd] : stacks) {
    SCOPED_TRACE(name);
    ExpectResaveByteIdentical(BlockingConfig(), FastCluster(1), &BlockingData,
                              7, 13, make_crowd);
    ExpectResaveByteIdentical(MatcherOnlyConfig(), FastCluster(1),
                              &MatcherOnlyData, 11, 6, make_crowd);
  }
}

// The crowd journal as a write-ahead log: resume from an EARLY snapshot but
// replay the full journal of the reference run — every crowd question after
// the boundary is answered from the journal, so the real platform (counted
// via its truth oracle) is never contacted and nothing is re-paid.
TEST(SessionJournalTest, FullJournalReplayAsksThePlatformNothing) {
  GeneratedDataset data = BlockingData(7);
  FalconConfig cfg = BlockingConfig();
  ReferenceRun ref = RunWithCheckpoints(data, FastCluster(1), cfg);

  auto journal = CrowdJournal::Parse(ref.wal);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_FALSE(journal->entries.empty());

  // Resume right before the blocker's active learning — nearly all crowd
  // work happens after this boundary.
  const std::string* blob = nullptr;
  for (const auto& [stage, snap] : ref.snapshots) {
    if (stage == PipelineStage::kBlockerAl) blob = &snap;
  }
  ASSERT_NE(blob, nullptr);

  GeneratedDataset fresh = BlockingData(7);
  size_t oracle_calls = 0;
  TruthOracle counting = [&](RowId a, RowId b) {
    ++oracle_calls;
    return fresh.truth.IsMatch(a, b);
  };
  Cluster cluster{FastCluster(1)};
  SimulatedCrowd crowd(CrowdConfig(cfg.seed), counting);
  auto resumed = WorkflowSession::Resume(*blob, &fresh.a, &fresh.b, &crowd,
                                         &cluster, cfg);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  WorkflowSession& session = **resumed;
  ASSERT_TRUE(session.ImportJournalTail(std::move(journal).value()).ok());

  Status st = session.RunToCompletion();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(oracle_calls, 0u) << "a journaled question was re-asked";
  EXPECT_GT(session.replayed_questions(), 0u);
  auto r = session.TakeResult();
  ASSERT_TRUE(r.ok());
  ExpectSameOutcome(ref.result, r.value(), "full-WAL replay");
}

TEST(SessionJournalTest, SerializedJournalRejectsCorruption) {
  GeneratedDataset data = MatcherOnlyData(11);
  FalconConfig cfg = MatcherOnlyConfig();
  Cluster cluster{FastCluster(1)};
  SimulatedCrowd crowd(CrowdConfig(cfg.seed), data.truth.MakeOracle());
  WorkflowSession session("j", &data.a, &data.b, &crowd, &cluster, cfg);
  ASSERT_TRUE(session.RunToCompletion().ok());
  std::string wal = session.ExportJournal();

  auto parsed = CrowdJournal::Parse(wal);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed->entries.empty());
  // Round-trip is stable.
  EXPECT_EQ(parsed->Serialize(), wal);

  std::string corrupt = wal;
  corrupt[corrupt.size() / 2] ^= 0x7;
  EXPECT_FALSE(CrowdJournal::Parse(corrupt).ok());
  EXPECT_FALSE(CrowdJournal::Parse(wal.substr(0, wal.size() - 3)).ok());
  std::string future = wal;
  future[4] = 0x40;  // version field
  auto st = CrowdJournal::Parse(future).status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("newer"), std::string::npos);
}

// A journal entry whose result vectors are not one per pair, or whose
// request vectors are neither empty nor one per pair, is hostile input: it
// must fail to decode from a journal file and from a snapshot's crowd state
// alike, instead of replaying into an out-of-bounds read.
TEST(SessionJournalTest, RejectsEntryNotParallelToItsPairs) {
  CrowdJournalEntry good;
  good.request.pairs = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  good.result.labels = {true, false, true, false};
  good.result.num_questions = 4;
  good.result.num_answers = 12;
  good.result.answers_per_question = {3, 3, 3, 3};
  good.result.yes_votes = {3, 0, 2, 1};
  CrowdJournal ok_journal;
  ok_journal.entries = {good};
  ASSERT_TRUE(CrowdJournal::Parse(ok_journal.Serialize()).ok());

  std::vector<std::pair<std::string, CrowdJournalEntry>> bad;
  bad.emplace_back("one answer count for four pairs", good);
  bad.back().second.result.answers_per_question = {3};
  bad.emplace_back("no answer counts", good);
  bad.back().second.result.answers_per_question.clear();
  bad.emplace_back("three yes votes", good);
  bad.back().second.result.yes_votes = {3, 0, 2};
  bad.emplace_back("more yes votes than answers", good);
  bad.back().second.result.yes_votes = {3, 4, 2, 1};
  bad.emplace_back("two priors", good);
  bad.back().second.request.prior = {{1, 0}, {0, 1}};
  bad.emplace_back("five caps", good);
  bad.back().second.request.max_new_answers = {1, 1, 1, 1, 1};
  for (const auto& [what, entry] : bad) {
    SCOPED_TRACE(what);
    CrowdJournal journal;
    journal.entries = {entry};
    auto parsed = CrowdJournal::Parse(journal.Serialize());
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);

    // The same entry inside a snapshot's crowd state blob.
    SimulatedCrowd sim(CrowdConfig(), [](RowId, RowId) { return true; });
    JournalingCrowd writer(&sim);
    ASSERT_TRUE(writer.LoadJournal(journal, 0).ok());
    SimulatedCrowd sim2(CrowdConfig(), [](RowId, RowId) { return true; });
    JournalingCrowd reader(&sim2);
    Status restored = reader.RestoreState(writer.SaveState());
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.code(), StatusCode::kIoError);
  }
}

// Two sessions sharing one cluster (and its thread pool) must each produce
// exactly what they produce alone — no cross-session leakage through the
// shared execution substrate, whether the service interleaves them step by
// step on one worker or steps them from two concurrent workers.
TEST(SharedClusterTest, ConcurrentSessionsMatchSoloRuns) {
  FalconConfig cfg1 = MatcherOnlyConfig(3);
  FalconConfig cfg2 = MatcherOnlyConfig(19);

  auto solo = [](uint64_t data_seed, const FalconConfig& cfg) {
    GeneratedDataset data = MatcherOnlyData(data_seed);
    Cluster cluster{FastCluster(2)};
    SimulatedCrowd crowd(CrowdConfig(cfg.seed), data.truth.MakeOracle());
    WorkflowSession session("solo", &data.a, &data.b, &crowd, &cluster, cfg);
    EXPECT_TRUE(session.RunToCompletion().ok());
    auto r = session.TakeResult();
    EXPECT_TRUE(r.ok());
    return r.ok() ? std::move(r).value() : MatchResult{};
  };
  MatchResult ref1 = solo(5, cfg1);
  MatchResult ref2 = solo(6, cfg2);

  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    GeneratedDataset d1 = MatcherOnlyData(5), d2 = MatcherOnlyData(6);
    Cluster cluster{FastCluster(2)};
    SimulatedCrowd c1(CrowdConfig(cfg1.seed), d1.truth.MakeOracle());
    SimulatedCrowd c2(CrowdConfig(cfg2.seed), d2.truth.MakeOracle());
    ServiceConfig scfg;
    scfg.max_resident_sessions = 2;  // both resident: nothing is evicted
    EmService service(&cluster, scfg);
    ASSERT_TRUE(service.Submit("a", "one", &d1.a, &d1.b, &c1, cfg1).ok());
    ASSERT_TRUE(service.Submit("b", "two", &d2.a, &d2.b, &c2, cfg2).ok());
    ASSERT_TRUE(service.Drain(workers).ok());
    EXPECT_EQ(service.stats().evictions, 0u);
    auto r1 = service.TakeResult("one");
    auto r2 = service.TakeResult("two");
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    ExpectSameOutcome(ref1, r1.value(), "session one");
    ExpectSameOutcome(ref2, r2.value(), "session two");
  }
}

// --- snapshot state validation ----------------------------------------------
//
// Section CRCs prove only that the bytes are the ones written. Each test
// mutates one field of a real state, writes it (CRCs stay valid) and
// requires the loader to refuse it, since a later stage indexes or sizes an
// allocation with that field unchecked.

/// A blocking-plan pipeline stepped to the boundary `stop`. At the default,
/// gen_fvs(C), the sample, blocker labels, rules with coverage, the selected
/// sequence and the candidates are all populated.
struct ValidationFixture {
  GeneratedDataset data = BlockingData(7);
  FalconConfig cfg = BlockingConfig();
  Cluster cluster{FastCluster(1)};
  SimulatedCrowd crowd{CrowdConfig(cfg.seed), data.truth.MakeOracle()};
  FalconPipeline pipeline{&data.a, &data.b, &crowd, &cluster, cfg};

  explicit ValidationFixture(PipelineStage stop = PipelineStage::kGenFvsCand) {
    EXPECT_TRUE(pipeline.Start().ok());
    while (pipeline.state().next != stop) {
      Status st = pipeline.Step();
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (!st.ok() || pipeline.done()) break;
    }
    const PipelineState& s = pipeline.state();
    EXPECT_EQ(s.next, stop);
    EXPECT_FALSE(s.sample.empty());
    EXPECT_FALSE(s.blocker_labeled_indices.empty());
    EXPECT_FALSE(s.candidate_rules.empty());
    if (stop > PipelineStage::kApplyRules) {
      EXPECT_FALSE(s.out.sequence.rules.empty());
      EXPECT_FALSE(s.out.candidates.empty());
    }
  }

  PipelineState& state() { return pipeline.state(); }

  std::string Write() {
    return WriteSnapshot("validate", pipeline, data.a, data.b, crowd, cfg);
  }

  /// Writes the (mutated) state and loads it into a fresh pipeline.
  Status Reload() { return Load(Write()); }

  Status Load(const std::string& blob) {
    Cluster fresh_cluster{FastCluster(1)};
    SimulatedCrowd fresh_crowd(CrowdConfig(cfg.seed), data.truth.MakeOracle());
    FalconPipeline fresh(&data.a, &data.b, &fresh_crowd, &fresh_cluster, cfg);
    return LoadSnapshot(blob, data.a, data.b, &fresh_crowd, &fresh, nullptr);
  }
};

TEST(SnapshotValidationTest, UnmutatedStateLoads) {
  ValidationFixture fx;
  Status st = fx.Reload();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(SnapshotValidationTest, RejectsSampleRowOutsideTable) {
  ValidationFixture fx;
  fx.state().sample[0].first = static_cast<RowId>(fx.data.a.num_rows());
  EXPECT_FALSE(fx.Reload().ok());
}

TEST(SnapshotValidationTest, RejectsCandidateRowOutsideTable) {
  ValidationFixture fx;
  fx.state().out.candidates.back().second =
      static_cast<RowId>(fx.data.b.num_rows());
  EXPECT_FALSE(fx.Reload().ok());
}

TEST(SnapshotValidationTest, RejectsBlockerLabelIndexOutsideSample) {
  ValidationFixture fx;
  fx.state().blocker_labeled_indices[0] =
      static_cast<uint32_t>(fx.state().sample.size());
  EXPECT_FALSE(fx.Reload().ok());
}

TEST(SnapshotValidationTest, RejectsBlockerLabelCountMismatch) {
  ValidationFixture fx;
  fx.state().blocker_labels.push_back(1);
  EXPECT_FALSE(fx.Reload().ok());
}

TEST(SnapshotValidationTest, RejectsPredicateFeatureIdOutsideFeatureSet) {
  ValidationFixture fx;
  fx.state().candidate_rules[0].predicates[0].feature_id =
      static_cast<int>(fx.pipeline.features().size());
  EXPECT_FALSE(fx.Reload().ok());
}

TEST(SnapshotValidationTest, RejectsPredicateFeaturePosOutsideLayout) {
  ValidationFixture fx;
  fx.state().out.sequence.rules[0].predicates[0].feature_pos =
      static_cast<int>(fx.pipeline.features().blocking_ids().size());
  EXPECT_FALSE(fx.Reload().ok());
}

TEST(SnapshotValidationTest, RejectsCoverageWidthOtherThanSample) {
  ValidationFixture fx;
  fx.state().candidate_coverage[0] = Bitmap(fx.state().sample.size() + 1);
  EXPECT_FALSE(fx.Reload().ok());
}

// The next three states each crashed a stage after the loader accepted them.
// Each test steps to the boundary of the stage that crashed.

// eval_rules reserves a rule's `coverage` slots for the sample pairs it
// drops: 2^62 of them threw std::length_error.
TEST(SnapshotValidationTest, RejectsCoverageOtherThanItsBitmapCount) {
  ValidationFixture fx(PipelineStage::kEvalRules);
  fx.state().candidate_rules[0].coverage = size_t{1} << 62;
  Status st = fx.Reload();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

// sel_opt_seq's greedy order divides by each rule's time per pair: with NaN
// times no gain beat the initial one, no rule was picked, and the order
// wrote past its bookkeeping (a heap-buffer-overflow under ASan).
TEST(SnapshotValidationTest, RejectsRuleTimeThatIsNotAFiniteNonNegative) {
  ValidationFixture fx(PipelineStage::kSelectSeq);
  for (Rule& rule : fx.state().retained_rules) {
    rule.time_per_pair = std::numeric_limits<double>::quiet_NaN();
  }
  Status st = fx.Reload();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

// The same overflow from an empty sample: every selectivity is 0/0. The
// state is otherwise consistent (zero-width coverage, no blocker labels),
// so only the sample check stands between it and sel_opt_seq.
TEST(SnapshotValidationTest, RejectsEmptySampleBeforeSequenceSelection) {
  ValidationFixture fx(PipelineStage::kSelectSeq);
  PipelineState& s = fx.state();
  s.sample.clear();
  s.blocker_labeled_indices.clear();
  s.blocker_labels.clear();
  for (auto* coverage : {&s.candidate_coverage, &s.retained_coverage}) {
    for (Bitmap& cov : *coverage) cov = Bitmap(0);
  }
  for (auto* rules : {&s.candidate_rules, &s.retained_rules}) {
    for (Rule& rule : *rules) rule.coverage = 0;
  }
  Status st = fx.Reload();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

/// Replaces the payload of section `tag` (snapshot.cc's SectionTag) with
/// `edit(payload)` and recomputes its CRC, so only the loader's semantic
/// checks stand between the edit and the pipeline.
std::string RewriteSection(
    const std::string& blob, uint32_t tag,
    const std::function<std::string(const std::string&)>& edit) {
  BinaryReader r(blob);
  BinaryWriter out;
  out.U32(r.U32());  // magic
  out.U32(r.U32());  // format version
  bool rewrote = false;
  while (r.ok() && r.remaining() > 0) {
    const uint32_t section = r.U32();
    auto framed = r.Framed("section");
    if (!framed.ok()) {
      ADD_FAILURE() << framed.status().ToString();
      break;
    }
    std::string payload(*framed);
    if (section == tag) {
      payload = edit(payload);
      rewrote = true;
    }
    out.U32(section);
    out.Framed(payload);
  }
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(rewrote);
  return out.Take();
}

// A bitmap header of 2^64-1 bits in 0 words, where (nbits + 63) / 64 wraps
// around to 0: the width check alone stands between it and a 2^64-1 entry
// prediction vector.
TEST(SnapshotValidationTest, RejectsBitmapWidthThatOverflowsItsWordCount) {
  ValidationFixture fx;
  std::string blob =
      RewriteSection(fx.Write(), 8, [](const std::string& payload) {
        // MATCHER: forest text, converged flag, prediction bitmap.
        BinaryReader pr(payload);
        BinaryWriter pw;
        pw.Str(pr.Str());
        pw.U8(pr.U8());
        pw.U64(UINT64_MAX);  // nbits
        pw.U64(0);           // nwords
        EXPECT_TRUE(pr.ok());
        return pw.Take();
      });
  EXPECT_FALSE(fx.Load(blob).ok());
}

// A forest written over a wider layout than the pipeline applies it with:
// every listed feature exists and its split is in range for the text, but
// the position is outside the blocking feature vector.
TEST(SnapshotValidationTest, RejectsForestLayoutOtherThanFeatureSet) {
  ValidationFixture fx;
  const FeatureSet& fs = fx.pipeline.features();
  const size_t width = fs.blocking_ids().size();
  std::string forest = "falcon-forest v1\nfeatures " +
                       std::to_string(width + 1) + "\n";
  for (size_t i = 0; i <= width; ++i) {
    forest += "f " + fs.feature(fs.blocking_ids()[0]).name + "\n";
  }
  forest += "trees 1\ntree 3\nsplit " + std::to_string(width) +
            " 0.5 1 1 2\nleaf 1 1.0 5\nleaf 0 1.0 5\nend\n";
  std::string blob =
      RewriteSection(fx.Write(), 5, [&](const std::string& payload) {
        // BLOCKER: forest text, then the crowd labels, kept as written.
        BinaryReader pr(payload);
        pr.Str();
        std::string labels = payload.substr(payload.size() - pr.remaining());
        BinaryWriter pw;
        pw.Str(forest);
        pw.Raw(labels.data(), labels.size());
        return pw.Take();
      });
  EXPECT_FALSE(fx.Load(blob).ok());
}

// Format version 1 ends METRICS before the two budget flags version 2
// appended. ReadSnapshotMeta reports the version the header names, and the
// loader still accepts the shorter section.
TEST(SessionSnapshotTest, ReadsVersionOneHeaderAndMetrics) {
  ValidationFixture fx;
  const std::string v2 = fx.Write();
  auto meta = ReadSnapshotMeta(v2);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->format_version, 2u);

  std::string v1 = RewriteSection(v2, 3, [](const std::string& payload) {
    return payload.substr(0, payload.size() - 2);
  });
  v1[4] = 1;  // version u32, little-endian
  meta = ReadSnapshotMeta(v1);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->format_version, 1u);
  Status st = fx.Load(v1);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace falcon
