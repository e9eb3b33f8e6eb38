// Crowdsourcing platforms.
//
// Falcon's crowd operators (al_matcher, eval_rules) post batches of tuple
// pairs as HITs (10 questions per HIT, 2 HITs per iteration, 2 cents per
// answer in the paper). This module simulates such a platform: workers answer
// with a configurable error rate (the "random worker model" the paper itself
// uses for its sensitivity studies, Section 11.4), answers are aggregated by
// majority voting (3 answers per question) or the strong-majority scheme of
// eval_rules (up to 7 answers), latency is drawn per HIT, and every answer is
// charged to a budget ledger.
//
// An OracleCrowd models the in-house "crowd of one" of the drug-matching
// deployment (Section 11.1): zero error, zero cost, sequential labeling.
#ifndef FALCON_CROWD_CROWD_H_
#define FALCON_CROWD_CROWD_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/vtime.h"
#include "table/table.h"

namespace falcon {

/// A question to the crowd: does A-row `a` match B-row `b`?
using PairQuestion = std::pair<RowId, RowId>;

/// Ground-truth oracle provided by the experiment harness. The EM pipeline
/// itself never sees this function; it only sees crowd answers.
using TruthOracle = std::function<bool(RowId a, RowId b)>;

/// How per-question worker answers are aggregated.
enum class VoteScheme {
  /// 3 answers, majority (al_matcher; v_m = 3 in the cost-cap formula).
  kMajority3,
  /// Answers are collected until one side holds 4 votes, up to 7 answers,
  /// then majority (eval_rules; v_e = 7).
  kStrongMajority7,
};

/// Tracks crowdsourcing spend against the C_max cap of Section 3.4.
class BudgetLedger {
 public:
  explicit BudgetLedger(double cap_dollars = 349.60) : cap_(cap_dollars) {}

  /// Charges `dollars`; fails without charging if the cap would be exceeded.
  Status Charge(double dollars);

  double spent() const { return spent_; }
  double cap() const { return cap_; }
  double remaining() const { return cap_ - spent_; }

  /// Reinstates a previously recorded spend (session snapshot restore); not
  /// subject to the cap check because the amount was already charged once.
  void RestoreSpent(double spent) { spent_ = spent; }

 private:
  double cap_;
  double spent_ = 0.0;
};

/// Computes the paper's closed-form crowd-cost cap
///   C_max = (2*n_m*v_m + k*n_e*v_e) * h * q * c
/// with the defaults of Section 3.4 yielding $349.60.
struct CostCapParams {
  int n_m = 29;  ///< max al_matcher iterations beyond the seed iteration
  int v_m = 3;   ///< answers per question in al_matcher
  int k = 20;    ///< rules evaluated by eval_rules
  int n_e = 5;   ///< max iterations per rule in eval_rules
  int v_e = 7;   ///< max answers per question in eval_rules
  int h = 2;     ///< HITs per iteration
  int q = 10;    ///< questions per HIT
  double c = 0.02;  ///< dollars per answer
};
double ComputeCostCap(const CostCapParams& params = {});

/// Votes a question already holds when it is (re-)posted. ResilientCrowd
/// requeues under-quorum questions with their accumulated counts so the
/// platform only collects the answers still missing, keeping merged totals
/// decisive (never an even split a fresh quorum could produce).
struct PriorVotes {
  uint32_t yes = 0;
  uint32_t no = 0;
  uint32_t total() const { return yes + no; }
  bool operator==(const PriorVotes& o) const {
    return yes == o.yes && no == o.no;
  }
};

/// Sentinel answer cap: the platform collects as many answers as the vote
/// scheme requires.
inline constexpr uint32_t kNoAnswerCap = 0xFFFFFFFFu;

/// One labeling request. `pairs` and `scheme` alone are a plain fresh batch
/// (what LabelPairs() builds); the robustness decorators refine it with
/// `prior` and `max_new_answers`, each either empty (no question is
/// refined) or one per pair. Read them per question through PriorFor() and
/// CapFor(), which supply the defaults of an empty vector.
struct LabelRequest {
  std::vector<PairQuestion> pairs;
  VoteScheme scheme = VoteScheme::kMajority3;
  /// Votes carried in from earlier attempts. Platforms resume collection
  /// from these counts instead of starting over.
  std::vector<PriorVotes> prior;
  /// Caps on NEW answers the platform may collect. FaultyCrowd lowers caps
  /// to model worker abandonment and spam-rejected assignments; a cap of 0
  /// means the question was posted but no valid answer came back.
  std::vector<uint32_t> max_new_answers;

  /// Votes question `i` already holds (none when `prior` is empty).
  PriorVotes PriorFor(size_t i) const {
    return prior.empty() ? PriorVotes{} : prior[i];
  }
  /// Cap on new answers to question `i` (kNoAnswerCap when uncapped).
  uint32_t CapFor(size_t i) const {
    return max_new_answers.empty() ? kNoAnswerCap : max_new_answers[i];
  }
  /// InvalidArgument unless `prior` and `max_new_answers` are each empty or
  /// one per pair.
  Status CheckShape() const;
  /// Empties `prior` if no question holds a vote and `max_new_answers` if no
  /// question is capped, so a request that refines nothing is posted (and
  /// journaled) as a plain fresh batch.
  void DropDefaults();

  bool operator==(const LabelRequest& o) const {
    return pairs == o.pairs && scheme == o.scheme && prior == o.prior &&
           max_new_answers == o.max_new_answers;
  }
};

/// Result of labeling one batch of pairs.
///
/// Shape contract: `labels`, `answers_per_question` and `yes_votes` hold
/// exactly one entry per requested pair, and no question holds more yes
/// votes than answers. Every platform fills them that way; a question that
/// ended without an answer carries its prior votes (zero when it had none)
/// and their majority as a provisional label. The contract is enforced
/// where results cross a boundary: CrowdPlatform::LabelPairs (the entry
/// point of the EM operators), CrowdDecorator::LabelInner (where a
/// decorator reads its wrapped platform's result) and the crowd journal's
/// decoder (where results come from outside bytes).
struct LabelResult {
  /// Aggregated label per input pair (true = match).
  std::vector<bool> labels;
  /// Questions that received at least one new answer in this call.
  size_t num_questions = 0;
  /// Total NEW worker answers consumed (cost unit; excludes prior votes).
  size_t num_answers = 0;
  double cost = 0.0;
  /// Virtual wall-clock latency of the batch.
  VDuration latency;
  /// Cumulative valid answers per question, prior votes included.
  std::vector<uint32_t> answers_per_question;
  /// Cumulative "match" votes per question, prior votes included.
  std::vector<uint32_t> yes_votes;
  /// True when the platform stopped mid-batch at the budget cap: labels of
  /// unanswered questions were never posted or charged. Callers should end
  /// their crowd loops cleanly (the paper's C_max contract) instead of
  /// treating the batch as complete.
  bool truncated = false;

  /// True when the result meets the shape contract for `num_pairs` pairs.
  bool ParallelTo(size_t num_pairs) const;
  /// Votes question `i` holds.
  PriorVotes VotesFor(size_t i) const {
    return {yes_votes[i], answers_per_question[i] - yes_votes[i]};
  }
  /// Appends a question holding `votes`, labeled by their majority.
  void Append(PriorVotes votes);
  /// True if question `i` received at least one valid answer.
  bool Answered(size_t i) const { return answers_per_question[i] > 0; }
};

/// Abstract crowd platform.
class CrowdPlatform {
 public:
  virtual ~CrowdPlatform() = default;

  /// Posts a labeling request to the crowd and returns aggregated labels.
  /// Accounting (questions, answers, cost, crowd time) accumulates on the
  /// platform.
  virtual Result<LabelResult> LabelBatch(const LabelRequest& request) = 0;

  /// Convenience entry point: a fresh batch with no priors or caps. This is
  /// what the EM operators call; a result that breaks the shape contract
  /// fails with kInternal.
  Result<LabelResult> LabelPairs(const std::vector<PairQuestion>& pairs,
                                 VoteScheme scheme);

  /// Whether `yes`/`no` accumulated votes decide a question under `scheme`
  /// on THIS platform. The default implements the multi-worker schemes
  /// (majority-of-3, strong-majority-of-7); single-labeler platforms
  /// override to one-answer-decides. Decorators forward to the wrapped
  /// platform so requeue logic matches the platform actually answering.
  virtual bool QuorumReached(VoteScheme scheme, uint32_t yes,
                             uint32_t no) const;

  /// Minimum further answers that could decide the question (0 when the
  /// quorum is already reached). FaultyCrowd uses it as the posted
  /// assignment quota when drawing abandonment/spam faults.
  virtual uint32_t MinAnswersToQuorum(VoteScheme scheme, uint32_t yes,
                                      uint32_t no) const;

  size_t total_questions() const { return total_questions_; }
  size_t total_answers() const { return total_answers_; }
  double total_cost() const { return total_cost_; }
  VDuration total_crowd_time() const { return total_crowd_time_; }
  BudgetLedger& ledger() { return ledger_; }

  void ResetAccounting();

  /// Serializes the platform's resumable state — accounting, budget spend,
  /// and (for stochastic platforms) the RNG engine state — to an opaque
  /// blob. RestoreState on a freshly constructed platform of the same type
  /// replays the exact answer/latency stream from the save point. Blobs are
  /// type-tagged: restoring into a different platform type fails cleanly.
  std::string SaveState() const;
  Status RestoreState(const std::string& blob);

 protected:
  /// Type tag written into state blobs (0 = accounting-only base state).
  virtual uint32_t StateKind() const { return 0; }
  /// Hooks for platform-specific state, appended after the base state.
  virtual void SaveDerivedState(BinaryWriter* w) const { (void)w; }
  virtual Status RestoreDerivedState(BinaryReader* r) {
    (void)r;
    return Status::OK();
  }

  /// Draws one answer to a question (true = match).
  using AnswerSource = std::function<Result<bool>(const PairQuestion&)>;
  /// A worker of the random worker model: the oracle's truth, flipped with
  /// probability `error_rate` by a draw from `rng`.
  static AnswerSource RandomWorker(const TruthOracle& oracle, Rng* rng,
                                   double error_rate);
  /// The answer loop of the platforms that answer questions themselves:
  /// checks the request's shape, asks `answer` for each question until this
  /// platform's quorum decides it or its cap is spent, and fills the
  /// per-question vectors, num_questions and num_answers. Cost and latency
  /// are left to the platform; a failed draw fails the call.
  Result<LabelResult> CollectAnswers(const LabelRequest& request,
                                     const AnswerSource& answer) const;

  void Record(const LabelResult& r);

  BudgetLedger ledger_;
  size_t total_questions_ = 0;
  size_t total_answers_ = 0;
  double total_cost_ = 0.0;
  VDuration total_crowd_time_;
};

/// A platform with one labeler (OracleCrowd, CliCrowd): one answer decides
/// a question under either scheme; only a tie among prior votes asks again.
class SingleLabelerCrowd : public CrowdPlatform {
 public:
  bool QuorumReached(VoteScheme, uint32_t yes, uint32_t no) const override {
    return yes != no;
  }
  uint32_t MinAnswersToQuorum(VoteScheme, uint32_t yes,
                              uint32_t no) const override {
    return yes != no ? 0 : 1;
  }
};

/// Base of the platform decorators (JournalingCrowd, LedgeredCrowd,
/// ResilientCrowd, FaultyCrowd). It holds the wrapped platform, whose quorum
/// rules it forwards, and lays out its state blob as the wrapped platform's
/// blob followed by the decorator's own fields, so snapshots capture a
/// decorator stack recursively. `inner` must outlive the decorator.
class CrowdDecorator : public CrowdPlatform {
 public:
  bool QuorumReached(VoteScheme scheme, uint32_t yes,
                     uint32_t no) const override {
    return inner_->QuorumReached(scheme, yes, no);
  }
  uint32_t MinAnswersToQuorum(VoteScheme scheme, uint32_t yes,
                              uint32_t no) const override {
    return inner_->MinAnswersToQuorum(scheme, yes, no);
  }

 protected:
  explicit CrowdDecorator(CrowdPlatform* inner) : inner_(inner) {}

  /// Labels `request` on the wrapped platform. A result that breaks the
  /// shape contract fails with kInternal.
  Result<LabelResult> LabelInner(const LabelRequest& request);

  void SaveDerivedState(BinaryWriter* w) const final;
  Status RestoreDerivedState(BinaryReader* r) final;
  /// The decorator's own state fields, after the wrapped platform's blob.
  virtual void SaveOwnState(BinaryWriter* w) const = 0;
  virtual Status RestoreOwnState(BinaryReader* r) = 0;

  CrowdPlatform* const inner_;
};

/// Configuration of the simulated Mechanical Turk crowd.
struct SimulatedCrowdConfig {
  /// Probability that a single worker answer is wrong.
  double error_rate = 0.05;
  /// Mean latency for one HIT (all its assignments) to complete. The paper's
  /// simulated-crowd experiments use 1.5 minutes per 10-question HIT.
  VDuration hit_latency_mean = VDuration::Minutes(1.5);
  /// Multiplicative jitter: latency = mean * exp(N(0, sigma^2)), clamped.
  double latency_sigma = 0.25;
  int questions_per_hit = 10;
  double cost_per_answer = 0.02;
  double budget_cap = 349.60;
  uint64_t seed = 1;
};

/// Validates a SimulatedCrowdConfig: positive questions_per_hit (it divides
/// the batch into HITs), error_rate in [0, 1], positive latency mean, and
/// non-negative cost/jitter. Called by the SimulatedCrowd constructor path;
/// an invalid config makes every LabelBatch call fail with this status.
Status ValidateSimulatedCrowdConfig(const SimulatedCrowdConfig& config);

/// Simulated crowd of random workers over a ground-truth oracle.
class SimulatedCrowd : public CrowdPlatform {
 public:
  SimulatedCrowd(SimulatedCrowdConfig config, TruthOracle oracle);

  Result<LabelResult> LabelBatch(const LabelRequest& request) override;

  const SimulatedCrowdConfig& config() const { return config_; }

 protected:
  uint32_t StateKind() const override { return 1; }
  void SaveDerivedState(BinaryWriter* w) const override;
  Status RestoreDerivedState(BinaryReader* r) override;

 private:
  SimulatedCrowdConfig config_;
  Status init_status_;
  TruthOracle oracle_;
  Rng rng_;
};

/// Configuration of an in-house expert "crowd of one".
struct OracleCrowdConfig {
  /// Time the expert spends per pair.
  VDuration seconds_per_pair = VDuration::Seconds(7.0);
  /// Experts can still err occasionally; default 0.
  double error_rate = 0.0;
  uint64_t seed = 1;
};

/// A single in-house labeler: sequential, free, (near-)perfect.
class OracleCrowd : public SingleLabelerCrowd {
 public:
  OracleCrowd(OracleCrowdConfig config, TruthOracle oracle);

  Result<LabelResult> LabelBatch(const LabelRequest& request) override;

 protected:
  uint32_t StateKind() const override { return 2; }
  void SaveDerivedState(BinaryWriter* w) const override;
  Status RestoreDerivedState(BinaryReader* r) override;

 private:
  OracleCrowdConfig config_;
  TruthOracle oracle_;
  Rng rng_;
};

}  // namespace falcon

#endif  // FALCON_CROWD_CROWD_H_
