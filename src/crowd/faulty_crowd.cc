#include "crowd/faulty_crowd.h"

#include <algorithm>

namespace falcon {

Status ValidateFaultyCrowdConfig(const FaultyCrowdConfig& config) {
  auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
  if (!rate_ok(config.transient_error_rate) ||
      !rate_ok(config.hit_expiry_rate) || !rate_ok(config.abandon_rate) ||
      !rate_ok(config.spammer_rate) || !rate_ok(config.straggler_rate)) {
    return Status::InvalidArgument(
        "faulty crowd: every fault rate must lie in [0, 1]");
  }
  if (config.questions_per_hit <= 0) {
    return Status::InvalidArgument(
        "faulty crowd: questions_per_hit must be positive");
  }
  if (!(config.straggler_multiplier >= 1.0)) {
    return Status::InvalidArgument(
        "faulty crowd: straggler_multiplier must be >= 1");
  }
  return Status::OK();
}

FaultyCrowd::FaultyCrowd(FaultyCrowdConfig config, CrowdPlatform* inner)
    : CrowdDecorator(inner),
      config_(config),
      init_status_(ValidateFaultyCrowdConfig(config)),
      rng_(config.seed) {}

Result<LabelResult> FaultyCrowd::LabelBatch(const LabelRequest& request) {
  FALCON_RETURN_NOT_OK(init_status_);
  FALCON_RETURN_NOT_OK(request.CheckShape());
  const size_t n = request.pairs.size();

  // Transient platform failure: fail before touching the wrapped platform,
  // so the call is side-effect-free below this decorator and a retry simply
  // redraws the faults.
  if (rng_.Bernoulli(config_.transient_error_rate)) {
    ++counters_.transient_errors;
    return Status::IoError("injected fault: transient crowd platform error");
  }

  // Per-HIT faults, drawn in HIT order (consecutive question groups).
  const size_t qph = static_cast<size_t>(config_.questions_per_hit);
  const size_t num_hits = n == 0 ? 0 : (n + qph - 1) / qph;
  std::vector<char> hit_expired(num_hits, 0);
  bool any_straggler = false;
  for (size_t h = 0; h < num_hits; ++h) {
    if (rng_.Bernoulli(config_.hit_expiry_rate)) {
      hit_expired[h] = 1;
      ++counters_.expired_hits;
    }
    if (rng_.Bernoulli(config_.straggler_rate)) {
      any_straggler = true;
      ++counters_.straggler_hits;
    }
  }

  // Per-question faults lower the delivered-answer cap; expired HITs drop
  // the question from the forwarded request entirely. Faulted answers are
  // therefore never drawn by (or charged to) the wrapped platform.
  LabelRequest fwd;
  fwd.scheme = request.scheme;
  for (size_t i = 0; i < n; ++i) {
    if (hit_expired[i / qph]) continue;
    const PriorVotes prior = request.PriorFor(i);
    uint32_t cap = request.CapFor(i);
    // Posted-assignment quota: the fewest answers that could decide the
    // question. Abandonment ends the question strictly below it; each
    // spam-rejected assignment lowers the valid-answer yield by one.
    uint32_t quota =
        inner_->MinAnswersToQuorum(request.scheme, prior.yes, prior.no);
    if (quota > 0 && rng_.Bernoulli(config_.abandon_rate)) {
      cap = std::min(cap, static_cast<uint32_t>(rng_.NextBelow(quota)));
      ++counters_.abandoned_questions;
    } else if (quota > 0) {
      uint32_t spam = 0;
      for (uint32_t s = 0; s < quota; ++s) {
        if (rng_.Bernoulli(config_.spammer_rate)) ++spam;
      }
      if (spam > 0) {
        counters_.spam_answers += spam;
        cap = std::min(cap, quota - spam);
      }
    }
    fwd.pairs.push_back(request.pairs[i]);
    fwd.prior.push_back(prior);
    fwd.max_new_answers.push_back(cap);
  }
  fwd.DropDefaults();

  // Errors (notably BudgetExhausted) propagate unchanged; the wrapped
  // platform's failure path is side-effect-free, so retrying is safe.
  LabelResult got;
  if (!fwd.pairs.empty()) {
    FALCON_ASSIGN_OR_RETURN(got, LabelInner(fwd));
  }
  // Forwarded questions take the wrapped platform's answers; expired ones
  // keep their prior votes.
  LabelResult result;
  for (size_t i = 0, k = 0; i < n; ++i) {
    if (hit_expired[i / qph]) {
      result.Append(request.PriorFor(i));
    } else {
      result.labels.push_back(got.labels[k]);
      result.answers_per_question.push_back(got.answers_per_question[k]);
      result.yes_votes.push_back(got.yes_votes[k]);
      ++k;
    }
  }
  result.num_questions = got.num_questions;
  result.num_answers = got.num_answers;
  result.cost = got.cost;
  result.latency = got.latency;
  result.truncated = got.truncated;
  if (any_straggler) {
    result.latency = result.latency * config_.straggler_multiplier;
  }
  Record(result);
  return result;
}

void FaultyCrowd::SaveOwnState(BinaryWriter* w) const {
  WriteRngState(rng_.SaveState(), w);
  w->U64(counters_.transient_errors);
  w->U64(counters_.expired_hits);
  w->U64(counters_.abandoned_questions);
  w->U64(counters_.spam_answers);
  w->U64(counters_.straggler_hits);
}

Status FaultyCrowd::RestoreOwnState(BinaryReader* r) {
  rng_.RestoreState(ReadRngState(r));
  counters_.transient_errors = r->U64();
  counters_.expired_hits = r->U64();
  counters_.abandoned_questions = r->U64();
  counters_.spam_answers = r->U64();
  counters_.straggler_hits = r->U64();
  return Status::OK();
}

}  // namespace falcon
