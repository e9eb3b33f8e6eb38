#include "crowd/crowd.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace falcon {

Status BudgetLedger::Charge(double dollars) {
  if (spent_ + dollars > cap_ + 1e-9) {
    return Status::BudgetExhausted(
        "crowd budget cap $" + std::to_string(cap_) + " would be exceeded");
  }
  spent_ += dollars;
  return Status::OK();
}

double ComputeCostCap(const CostCapParams& p) {
  return (2.0 * p.n_m * p.v_m + static_cast<double>(p.k) * p.n_e * p.v_e) *
         p.h * p.q * p.c;
}

bool CrowdPlatform::QuorumReached(VoteScheme scheme, uint32_t yes,
                                  uint32_t no) const {
  uint32_t total = yes + no;
  if (scheme == VoteScheme::kMajority3) {
    // Three answers decide; merged re-ask totals can exceed three, in which
    // case a tie keeps the question open (one more answer breaks it).
    return total >= 3 && yes != no;
  }
  // Strong majority: one side holds 4 votes, or 7+ answers with a leader.
  return yes >= 4 || no >= 4 || (total >= 7 && yes != no);
}

uint32_t CrowdPlatform::MinAnswersToQuorum(VoteScheme scheme, uint32_t yes,
                                           uint32_t no) const {
  if (QuorumReached(scheme, yes, no)) return 0;
  uint32_t total = yes + no;
  if (scheme == VoteScheme::kMajority3) {
    return total >= 3 ? 1 : 3 - total;  // >= 3 and open means tied
  }
  uint32_t to_four = 4 - std::max(yes, no);  // leader < 4 when still open
  uint32_t to_seven = total >= 7 ? 1 : 7 - total;
  return std::min(to_four, to_seven);
}

Status LabelRequest::CheckShape() const {
  if ((!prior.empty() && prior.size() != pairs.size()) ||
      (!max_new_answers.empty() && max_new_answers.size() != pairs.size())) {
    return Status::InvalidArgument(
        "label request: priors and answer caps must each be empty or one "
        "per pair");
  }
  return Status::OK();
}

void LabelRequest::DropDefaults() {
  if (std::all_of(prior.begin(), prior.end(),
                  [](const PriorVotes& p) { return p.total() == 0; })) {
    prior.clear();
  }
  if (std::all_of(max_new_answers.begin(), max_new_answers.end(),
                  [](uint32_t cap) { return cap == kNoAnswerCap; })) {
    max_new_answers.clear();
  }
}

bool LabelResult::ParallelTo(size_t num_pairs) const {
  if (labels.size() != num_pairs ||
      answers_per_question.size() != num_pairs ||
      yes_votes.size() != num_pairs) {
    return false;
  }
  for (size_t i = 0; i < num_pairs; ++i) {
    if (yes_votes[i] > answers_per_question[i]) return false;
  }
  return true;
}

void LabelResult::Append(PriorVotes votes) {
  labels.push_back(votes.yes > votes.no);
  answers_per_question.push_back(votes.total());
  yes_votes.push_back(votes.yes);
}

namespace {

Result<LabelResult> CheckParallel(Result<LabelResult> result,
                                  size_t num_pairs) {
  if (result.ok() && !result->ParallelTo(num_pairs)) {
    return Status::Internal(
        "crowd platform returned a result that is not one label, answer "
        "count and yes count per pair (" +
        std::to_string(num_pairs) + " pairs)");
  }
  return result;
}

}  // namespace

Result<LabelResult> CrowdPlatform::LabelPairs(
    const std::vector<PairQuestion>& pairs, VoteScheme scheme) {
  LabelRequest req;
  req.pairs = pairs;
  req.scheme = scheme;
  return CheckParallel(LabelBatch(req), pairs.size());
}

CrowdPlatform::AnswerSource CrowdPlatform::RandomWorker(
    const TruthOracle& oracle, Rng* rng, double error_rate) {
  return [&oracle, rng, error_rate](const PairQuestion& q) -> Result<bool> {
    const bool truth = oracle(q.first, q.second);
    return rng->Bernoulli(error_rate) ? !truth : truth;
  };
}

Result<LabelResult> CrowdPlatform::CollectAnswers(
    const LabelRequest& request, const AnswerSource& answer) const {
  FALCON_RETURN_NOT_OK(request.CheckShape());
  const size_t n = request.pairs.size();
  LabelResult result;
  result.labels.reserve(n);
  result.answers_per_question.reserve(n);
  result.yes_votes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PriorVotes votes = request.PriorFor(i);
    const uint32_t cap = request.CapFor(i);
    // For a fresh question this reproduces the majority-of-3 /
    // strong-majority-of-7 draws; a fault-injected cap ends it early.
    uint32_t drawn = 0;
    while (drawn < cap && !QuorumReached(request.scheme, votes.yes, votes.no)) {
      FALCON_ASSIGN_OR_RETURN(bool match, answer(request.pairs[i]));
      (match ? votes.yes : votes.no)++;
      ++drawn;
    }
    result.num_answers += drawn;
    if (drawn > 0) ++result.num_questions;
    result.Append(votes);
  }
  return result;
}

Result<LabelResult> CrowdDecorator::LabelInner(const LabelRequest& request) {
  return CheckParallel(inner_->LabelBatch(request), request.pairs.size());
}

void CrowdDecorator::SaveDerivedState(BinaryWriter* w) const {
  w->Str(inner_->SaveState());
  SaveOwnState(w);
}

Status CrowdDecorator::RestoreDerivedState(BinaryReader* r) {
  std::string inner_blob = r->Str();
  if (!r->ok()) return Status::IoError("truncated crowd decorator state");
  FALCON_RETURN_NOT_OK(inner_->RestoreState(inner_blob));
  return RestoreOwnState(r);
}

void CrowdPlatform::Record(const LabelResult& r) {
  total_questions_ += r.num_questions;
  total_answers_ += r.num_answers;
  total_cost_ += r.cost;
  total_crowd_time_ += r.latency;
}

void CrowdPlatform::ResetAccounting() {
  total_questions_ = 0;
  total_answers_ = 0;
  total_cost_ = 0.0;
  total_crowd_time_ = VDuration::Zero();
}

std::string CrowdPlatform::SaveState() const {
  BinaryWriter w;
  w.U32(StateKind());
  w.U64(total_questions_);
  w.U64(total_answers_);
  w.F64(total_cost_);
  w.F64(total_crowd_time_.seconds);
  w.F64(ledger_.cap());
  w.F64(ledger_.spent());
  SaveDerivedState(&w);
  return w.Take();
}

Status CrowdPlatform::RestoreState(const std::string& blob) {
  BinaryReader r(blob);
  uint32_t kind = r.U32();
  if (!r.ok() || kind != StateKind()) {
    return Status::InvalidArgument(
        "crowd state blob of kind " + std::to_string(kind) +
        " does not match this platform (kind " +
        std::to_string(StateKind()) + ")");
  }
  total_questions_ = static_cast<size_t>(r.U64());
  total_answers_ = static_cast<size_t>(r.U64());
  total_cost_ = r.F64();
  total_crowd_time_ = VDuration::Seconds(r.F64());
  double cap = r.F64();
  double spent = r.F64();
  ledger_ = BudgetLedger(cap);
  ledger_.RestoreSpent(spent);
  FALCON_RETURN_NOT_OK(RestoreDerivedState(&r));
  if (!r.exhausted()) {
    return Status::IoError("crowd state blob has trailing or missing bytes");
  }
  return Status::OK();
}

Status ValidateSimulatedCrowdConfig(const SimulatedCrowdConfig& config) {
  if (config.questions_per_hit <= 0) {
    return Status::InvalidArgument(
        "simulated crowd: questions_per_hit must be positive (batches are "
        "divided into HITs of that size)");
  }
  if (!(config.error_rate >= 0.0 && config.error_rate <= 1.0)) {
    return Status::InvalidArgument(
        "simulated crowd: error_rate must lie in [0, 1]");
  }
  if (!(config.hit_latency_mean.seconds > 0.0)) {
    return Status::InvalidArgument(
        "simulated crowd: hit_latency_mean must be positive");
  }
  if (config.latency_sigma < 0.0) {
    return Status::InvalidArgument(
        "simulated crowd: latency_sigma must be non-negative");
  }
  if (config.cost_per_answer < 0.0) {
    return Status::InvalidArgument(
        "simulated crowd: cost_per_answer must be non-negative");
  }
  return Status::OK();
}

SimulatedCrowd::SimulatedCrowd(SimulatedCrowdConfig config, TruthOracle oracle)
    : config_(config),
      init_status_(ValidateSimulatedCrowdConfig(config)),
      oracle_(std::move(oracle)),
      rng_(config.seed) {
  ledger_ = BudgetLedger(config.budget_cap);
}

void SimulatedCrowd::SaveDerivedState(BinaryWriter* w) const {
  WriteRngState(rng_.SaveState(), w);
}

Status SimulatedCrowd::RestoreDerivedState(BinaryReader* r) {
  rng_.RestoreState(ReadRngState(r));
  return Status::OK();
}

Result<LabelResult> SimulatedCrowd::LabelBatch(const LabelRequest& request) {
  FALCON_RETURN_NOT_OK(init_status_);
  // A rejected batch must be side-effect-free: capture the RNG engine state
  // so the budget-failure path below can undo the answer draws (otherwise a
  // caller that retries a smaller batch would see a perturbed stream and
  // break the byte-identical resume guarantee).
  const RngState rng_at_entry = rng_.SaveState();
  FALCON_ASSIGN_OR_RETURN(
      LabelResult result,
      CollectAnswers(request,
                     RandomWorker(oracle_, &rng_, config_.error_rate)));
  result.cost =
      static_cast<double>(result.num_answers) * config_.cost_per_answer;
  if (Status charged = ledger_.Charge(result.cost); !charged.ok()) {
    rng_.RestoreState(rng_at_entry);
    return charged;
  }

  // Latency: HITs of `questions_per_hit` posted in parallel; the batch waits
  // for the slowest HIT. Extra strong-majority answers lengthen a HIT
  // proportionally (more assignments must come back); the strong-majority
  // baseline is 4 answers — the minimum that reaches a 4-vote majority — so
  // a unanimous batch is not stretched.
  const size_t n = request.pairs.size();
  if (n > 0) {
    const size_t qph = static_cast<size_t>(config_.questions_per_hit);
    const size_t num_hits = (n + qph - 1) / qph;
    double answers_per_question =
        static_cast<double>(result.num_answers) / static_cast<double>(n);
    double base_votes = request.scheme == VoteScheme::kMajority3 ? 3.0 : 4.0;
    double stretch = std::max(1.0, answers_per_question / base_votes);
    double slowest = 0.0;
    for (size_t h = 0; h < num_hits; ++h) {
      double jitter = std::exp(rng_.NextGaussian(0.0, config_.latency_sigma));
      slowest = std::max(slowest, jitter);
    }
    result.latency = VDuration::Seconds(config_.hit_latency_mean.seconds *
                                        slowest * stretch);
  }
  Record(result);
  return result;
}

OracleCrowd::OracleCrowd(OracleCrowdConfig config, TruthOracle oracle)
    : config_(config), oracle_(std::move(oracle)), rng_(config.seed) {
  ledger_ = BudgetLedger(std::numeric_limits<double>::infinity());
}

void OracleCrowd::SaveDerivedState(BinaryWriter* w) const {
  WriteRngState(rng_.SaveState(), w);
}

Status OracleCrowd::RestoreDerivedState(BinaryReader* r) {
  rng_.RestoreState(ReadRngState(r));
  return Status::OK();
}

Result<LabelResult> OracleCrowd::LabelBatch(const LabelRequest& request) {
  FALCON_ASSIGN_OR_RETURN(
      LabelResult result,
      CollectAnswers(request,
                     RandomWorker(oracle_, &rng_, config_.error_rate)));
  // Sequential labeling: the expert works through the batch pair by pair.
  result.latency = VDuration::Seconds(config_.seconds_per_pair.seconds *
                                      static_cast<double>(result.num_answers));
  Record(result);
  return result;
}

}  // namespace falcon
