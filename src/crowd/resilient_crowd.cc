#include "crowd/resilient_crowd.h"

#include <algorithm>
#include <limits>

namespace falcon {

Status ValidateResilientCrowdConfig(const ResilientCrowdConfig& config) {
  if (config.max_retries < 0 || config.max_requeues < 0) {
    return Status::InvalidArgument(
        "resilient crowd: retry/requeue budgets must be non-negative");
  }
  if (!(config.initial_backoff.seconds > 0.0)) {
    return Status::InvalidArgument(
        "resilient crowd: initial_backoff must be positive");
  }
  if (!(config.backoff_multiplier >= 1.0)) {
    return Status::InvalidArgument(
        "resilient crowd: backoff_multiplier must be >= 1");
  }
  return Status::OK();
}

ResilientCrowd::ResilientCrowd(ResilientCrowdConfig config,
                               CrowdPlatform* inner)
    : CrowdDecorator(inner),
      config_(config),
      init_status_(ValidateResilientCrowdConfig(config)) {}

Result<LabelResult> ResilientCrowd::LabelBatch(const LabelRequest& request) {
  FALCON_RETURN_NOT_OK(init_status_);
  FALCON_RETURN_NOT_OK(request.CheckShape());
  const size_t n = request.pairs.size();

  // Cumulative per-question vote state and remaining caller-imposed caps.
  std::vector<PriorVotes> votes(n);
  std::vector<uint32_t> cap_left(n);
  for (size_t i = 0; i < n; ++i) {
    votes[i] = request.PriorFor(i);
    cap_left[i] = request.CapFor(i);
  }
  std::vector<char> got_answer(n, 0);
  auto open = [&](size_t i) {
    return cap_left[i] > 0 &&
           !inner_->QuorumReached(request.scheme, votes[i].yes, votes[i].no);
  };

  LabelResult result;

  // Questions still needing answers, in request order.
  std::vector<size_t> pending;
  for (size_t i = 0; i < n; ++i) {
    if (open(i)) pending.push_back(i);
  }

  int retries_left = config_.max_retries;
  int requeues_left = config_.max_requeues;
  VDuration backoff = config_.initial_backoff;
  // Budget degradation: how many pending questions one attempt may post.
  // Halved on each BudgetExhausted rejection (the rejection itself is
  // side-effect-free on the platform), so the loop binary-searches the
  // largest affordable prefix; 0 means the budget cannot pay for a single
  // further question and the batch returns truncated.
  size_t post_limit = std::numeric_limits<size_t>::max();

  while (!pending.empty()) {
    size_t post_count = std::min(post_limit, pending.size());
    if (post_count == 0) {
      result.truncated = true;
      ++truncated_batches_;
      break;
    }
    LabelRequest attempt;
    attempt.scheme = request.scheme;
    for (size_t k = 0; k < post_count; ++k) {
      size_t i = pending[k];
      attempt.pairs.push_back(request.pairs[i]);
      attempt.prior.push_back(votes[i]);
      attempt.max_new_answers.push_back(cap_left[i]);
    }
    attempt.DropDefaults();

    auto attempted = LabelInner(attempt);
    if (!attempted.ok()) {
      if (attempted.status().code() == StatusCode::kIoError &&
          retries_left > 0) {
        --retries_left;
        ++total_retries_;
        // Exponential backoff: the wait is real (virtual) time the caller's
        // crowd window stretches by.
        result.latency += backoff;
        backoff = backoff * config_.backoff_multiplier;
        continue;
      }
      if (attempted.status().code() == StatusCode::kBudgetExhausted &&
          config_.degrade_on_budget_exhausted) {
        post_limit = post_count / 2;
        continue;
      }
      return attempted.status();
    }
    const LabelResult& got = *attempted;
    result.num_answers += got.num_answers;
    result.cost += got.cost;
    result.latency += got.latency;
    if (got.truncated) result.truncated = true;

    // Merge: the platform reports cumulative counts (priors included).
    for (size_t k = 0; k < post_count; ++k) {
      size_t i = pending[k];
      const uint32_t before = votes[i].total();
      votes[i] = got.VotesFor(k);
      const uint32_t total = votes[i].total();
      if (total > before) {
        got_answer[i] = 1;
        if (cap_left[i] != kNoAnswerCap) {
          uint32_t used = total - before;
          cap_left[i] = used >= cap_left[i] ? 0 : cap_left[i] - used;
        }
      }
    }

    // Next round: unposted tail plus the posted questions still open.
    std::vector<size_t> still_open;
    for (size_t k = 0; k < post_count; ++k) {
      if (open(pending[k])) still_open.push_back(pending[k]);
    }
    std::vector<size_t> next;
    if (!still_open.empty()) {
      if (requeues_left > 0) {
        --requeues_left;
        total_requeued_questions_ += still_open.size();
        next = std::move(still_open);
      }
      // else: requeue budget exhausted; the open questions keep their
      // provisional prior-majority labels (counted below).
    }
    next.insert(next.end(), pending.begin() + post_count, pending.end());
    pending = std::move(next);
  }

  for (size_t i = 0; i < n; ++i) {
    result.Append(votes[i]);
    if (got_answer[i]) ++result.num_questions;
    if (votes[i].total() > 0 &&
        !inner_->QuorumReached(request.scheme, votes[i].yes, votes[i].no)) {
      ++under_quorum_questions_;
    }
  }
  Record(result);
  return result;
}

void ResilientCrowd::SaveOwnState(BinaryWriter* w) const {
  w->U64(total_retries_);
  w->U64(total_requeued_questions_);
  w->U64(truncated_batches_);
  w->U64(under_quorum_questions_);
}

Status ResilientCrowd::RestoreOwnState(BinaryReader* r) {
  total_retries_ = r->U64();
  total_requeued_questions_ = r->U64();
  truncated_batches_ = r->U64();
  under_quorum_questions_ = r->U64();
  return Status::OK();
}

}  // namespace falcon
