// Plan generation, execution, and optimization (Section 10 of the paper).
//
// FalconPipeline turns an (A, B) matching task into one of the two plan
// templates of Figure 3 — Blocker+Matcher when the estimated feature-vector
// encoding of A x B exceeds memory, Matcher-only otherwise — and executes it
// with the three crowd-time-masking optimizations of Section 10.2:
//   O1  build indexes (generic, then per-candidate-rule) while al_matcher
//       and eval_rules crowdsource;
//   O2  speculatively execute the candidate blocking rules during
//       eval_rules, then reuse their outputs per Algorithm 2; speculatively
//       run apply_matcher during the matcher's active learning;
//   O3  mask al_matcher's pair-selection scans behind crowd labeling.
//
// Time accounting distinguishes crowd time t_c, total machine time t_m, and
// unmasked machine time t_u; the run's total time is t_c + t_u (Section 3.4).
#ifndef FALCON_CORE_PIPELINE_H_
#define FALCON_CORE_PIPELINE_H_

#include <string>
#include <vector>

#include "blocking/apply.h"
#include "blocking/filters.h"
#include "blocking/index_builder.h"
#include "common/bitmap.h"
#include "common/rng.h"
#include "core/config.h"
#include "crowd/crowd.h"
#include "learn/random_forest.h"
#include "mapreduce/cluster.h"
#include "rules/feature.h"
#include "rules/rule.h"

namespace falcon {

/// One row of the Table-4-style per-operator breakdown.
struct OperatorTiming {
  std::string name;
  /// Full duration of the operator's work (crowd latency for crowd
  /// operators; virtual machine time for machine operators).
  VDuration raw;
  /// Contribution to the run's critical path beyond crowd time (0 for fully
  /// masked machine work and for crowd operators).
  VDuration unmasked;
  bool is_crowd = false;
};

struct RunMetrics {
  size_t questions = 0;
  double cost = 0.0;
  VDuration crowd_time;         ///< t_c
  VDuration machine_time;       ///< t_m: every machine second, masked or not
  VDuration machine_unmasked;   ///< t_u
  VDuration total_time;         ///< t_c + t_u
  size_t candidate_size = 0;    ///< |C| surviving blocking
  bool used_blocking = false;
  ApplyMethod apply_method = ApplyMethod::kApplyAll;
  std::vector<OperatorTiming> operators;

  // Optimization diagnostics.
  int speculated_rules = 0;       ///< rules fully executed inside the mask
  bool spec_rule_reused = false;  ///< Algorithm 2 reused a speculated output
  bool spec_matcher_reused = false;
  size_t num_candidate_rules = 0;
  size_t num_retained_rules = 0;

  // Fused apply_matcher work counters (averages over the candidate pairs).
  // The fused stage computes features lazily and stops voting once the
  // majority is decided, so features-per-pair < vector width and
  // trees-per-pair < forest size; the virtual apply_matcher time above
  // already reflects that reduced work (map task seconds are measured).
  double matcher_features_per_pair = 0.0;
  double matcher_trees_per_pair = 0.0;

  /// Real heap allocations the instrumented hot-path stages performed
  /// (blocking apply, gen_fvs, fused matcher): task-arena page acquisitions
  /// plus the per-pair vectors gen_fvs materializes. Diagnostics only — the
  /// split of allocations across tasks depends on scheduling, so these are not
  /// part of the determinism contract and are never serialized (snapshots
  /// rebuild them on rehydrate like any other machine-side metric).
  uint64_t alloc_count = 0;
  uint64_t alloc_bytes = 0;

  /// Intersection-kernel activity across the MapReduce jobs of the
  /// apply_block_rules stage (text/intersect.h); other stages' jobs are not
  /// folded in. Counts which strategy the adaptive entry points resolved to,
  /// per call, plus threshold early exits and membership probes. A job
  /// counts only its own tasks' calls, so totals are the same at any thread
  /// count and under concurrent sessions; they depend on the workload, the
  /// build flavor and the Algorithm-2 reuse path. Diagnostics only — not
  /// part of the determinism contract and never serialized.
  uint64_t intersect_scalar = 0;
  uint64_t intersect_small = 0;
  uint64_t intersect_gallop = 0;
  uint64_t intersect_simd = 0;
  uint64_t intersect_early_exit = 0;
  uint64_t intersect_contains = 0;

  /// Crowd-estimated accuracy (filled when config.estimate_accuracy is on;
  /// in a real deployment there is no ground truth, so this estimate is
  /// what the user sees).
  bool has_accuracy_estimate = false;
  AccuracyEstimate accuracy;

  /// True if any crowd operator hit the budget cap and degraded (the
  /// paper's C_max contract): the run completed with the labels already
  /// paid for, so downstream quality may be reduced.
  bool budget_exhausted = false;
};

struct MatchResult {
  /// Final predicted matches.
  std::vector<CandidatePair> matches;
  /// Pairs that survived blocking (equals all pairs for the matcher-only
  /// plan).
  std::vector<CandidatePair> candidates;
  /// The executed blocking-rule sequence (empty for matcher-only).
  RuleSequence sequence;
  /// The learned matcher forest (lets callers re-apply the matching stage
  /// without rerunning active learning).
  RandomForest matcher;
  RunMetrics metrics;
};

/// Operator boundaries of the two plan templates. Each stage is one
/// operator of Figure 3; Step() runs exactly one stage, so `next` names the
/// checkpoint a session snapshot was taken at. The Blocker+Matcher plan
/// visits every stage; the Matcher-only plan jumps from kInit to
/// kGenFvsCand (which there enumerates A x B as the candidate set).
enum class PipelineStage : uint32_t {
  kInit = 0,
  kSamplePairs = 1,
  kGenFvsSample = 2,
  kBlockerAl = 3,
  kGetRules = 4,
  kEvalRules = 5,
  kSelectSeq = 6,
  kApplyRules = 7,
  kGenFvsCand = 8,
  kMatcherAl = 9,
  kApplyMatcher = 10,
  kEstimateAccuracy = 11,
  kDone = 12,
};

/// Stable operator name ("sample_pairs", "al_matcher(blocker)", ...).
const char* PipelineStageName(PipelineStage stage);

/// Every cross-stage value of a run, split into durable state (what a
/// snapshot persists) and transient caches (deterministically rebuilt on
/// resume — see FalconPipeline::Rehydrate). Owning this state explicitly,
/// rather than in RunBlockingPlan locals, is what makes the pipeline
/// checkpointable at operator boundaries.
struct PipelineState {
  // --- durable -----------------------------------------------------------
  PipelineStage next = PipelineStage::kInit;
  /// Accumulating result: metrics (incl. used_blocking = plan template),
  /// candidates, sequence, matcher, matches.
  MatchResult out;
  /// The run's single RNG stream (sampling, AL batches, crowd-side draws
  /// all advance it; byte-identical resume needs its full engine state).
  Rng rng;
  /// MaskBank credit: banked crowd latency not yet spent masking machine
  /// work (Section 10.2).
  VDuration bank_credit;
  /// Sample S, in sampling order (order is semantic: feature vectors,
  /// labels, and coverage bitmaps index into it).
  std::vector<PairQuestion> sample;
  /// Blocker forest M and its accumulated crowd labels (kGetRules input).
  RandomForest blocker;
  std::vector<uint32_t> blocker_labeled_indices;
  std::vector<char> blocker_labels;
  /// get_blocking_rules output (rank order) with coverage over S.
  std::vector<Rule> candidate_rules;
  std::vector<Bitmap> candidate_coverage;
  /// eval_rules survivors (input rank order).
  std::vector<Rule> retained_rules;
  std::vector<Bitmap> retained_coverage;
  /// Whether the matcher's active learning converged (gates the speculative
  /// apply_matcher reuse in kApplyMatcher).
  bool matcher_converged = false;
  /// apply_matcher predictions, parallel to out.candidates.
  std::vector<char> predictions;

  // --- transient (rebuilt, never serialized) -----------------------------
  /// Blocking-feature vectors of S (gen_fvs(S) output).
  std::vector<FeatureVec> sample_fvs;
  /// All-feature vectors of the candidates (gen_fvs(C) output).
  std::vector<FeatureVec> cand_fvs;
};

/// End-to-end hands-off crowdsourced EM.
///
/// Two driving modes:
///   Run()          — the original single-shot batch call.
///   Start()/Step() — explicit operator-boundary stepping; between Step()
///                    calls the full state of the run is in state() and can
///                    be serialized (src/session/). Run() is exactly
///                    Start() + Step() until done(), so both modes execute
///                    identical work.
class FalconPipeline {
 public:
  /// `a`, `b`, `crowd`, and `cluster` must outlive the pipeline.
  FalconPipeline(const Table* a, const Table* b, CrowdPlatform* crowd,
                 Cluster* cluster, FalconConfig config);

  /// Generates and executes the plan.
  Result<MatchResult> Run();

  /// Validates inputs and chooses the plan template; state().next becomes
  /// the first operator. No-op if already started.
  Status Start();

  /// Executes exactly one operator and advances state().next.
  /// Precondition: started and not done().
  Status Step();

  bool done() const { return state_.next == PipelineStage::kDone; }
  bool started() const { return state_.next != PipelineStage::kInit; }

  /// Moves the finished result out. Precondition: done().
  Result<MatchResult> TakeResult();

  /// The live cross-stage state (mutable so a snapshot loader can install
  /// imported state, which it validates; call Rehydrate() afterwards).
  PipelineState& state() { return state_; }
  const PipelineState& state() const { return state_; }

  /// Rebuilds the transient caches an imported state needs before its next
  /// stage can run, with the stages' own builders: feature vectors via
  /// gen_fvs, and — mirroring masking optimization O1, whose index builds
  /// the original run hid inside crowd windows — token stores and indexes.
  /// It validates nothing: LoadSnapshot already checked everything the
  /// next stage reads. The rebuild work is deliberately NOT charged to the
  /// run's metrics (the original run already accounted it); the returned
  /// time is session-level recovery cost instead.
  VDuration Rehydrate();

  /// The auto-generated feature set (valid after construction).
  const FeatureSet& features() const { return features_; }

  const FalconConfig& config() const { return config_; }

  /// True if the Blocker+Matcher template (Figure 3.a) was/would be chosen.
  bool NeedsBlocking() const;

 private:
  /// A speculatively executed candidate blocking rule (optimization O2a).
  /// Transient by design: losing it on resume only costs masked time.
  struct SpecJob {
    std::string key;
    ApplyResult result;
    bool completed = false;
    VDuration remaining;  ///< > 0 only for the in-flight job at the barrier
  };

  Status StageSamplePairs();
  Status StageGenFvsSample();
  Status StageBlockerAl();
  Status StageGetRules();
  Status StageEvalRules();
  Status StageSelectSeq();
  Status StageApplyRules();
  Status StageGenFvsCand();
  Status StageMatcherAl();
  Status StageApplyMatcher();
  Status StageEstimateAccuracy();

  // Work a stage does that Rehydrate repeats on resume; each returns the
  // time it took, which a stage charges and Rehydrate does not.
  /// gen_fvs(S) (job `name`) with its feature preparation, into sample_fvs.
  VDuration GenSampleFvs(const char* name);
  /// gen_fvs(C) (job `name`) with its feature preparation, into cand_fvs.
  VDuration GenCandidateFvs(const char* name);
  /// O1a: token stores and the rule-independent indexes.
  VDuration BuildGenericIndexes();
  /// O1b: the indexes of every candidate rule.
  VDuration BuildCandidateRuleIndexes();
  /// Token stores and the indexes of the selected sequence.
  VDuration BuildSequenceIndexes();

  /// Prepares the per-row inputs of the features in `ids` on A and B
  /// (FeatureSet::Prepare) and returns the measured seconds that took
  /// outside the cluster, which the calling stage charges like the
  /// driver-side training time of a matcher.
  VDuration PrepareFeatures(const std::vector<int>& ids);
  /// Appends a machine-operator timing row and accumulates t_m / t_u.
  void AddMachine(const std::string& name, VDuration raw, VDuration unmasked);
  /// MaskBank withdrawal: charges a maskable task, returns its unmasked part.
  VDuration MaskRun(VDuration d);
  /// Recomputes total_time after each stage (t_c + t_u).
  void RefreshTotalTime();

  const Table* a_;
  const Table* b_;
  CrowdPlatform* crowd_;
  Cluster* cluster_;
  FalconConfig config_;
  FeatureSet features_;

  PipelineState state_;
  IndexCatalog catalog_;
  IndexBuilder builder_;
  std::vector<SpecJob> spec_;
};

}  // namespace falcon

#endif  // FALCON_CORE_PIPELINE_H_
