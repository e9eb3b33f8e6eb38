// Retry/requeue crowd platform decorator.
//
// ResilientCrowd wraps any CrowdPlatform and turns an unreliable platform
// back into a dependable one:
//   - transient call failures (kIoError) are retried with exponential
//     backoff, up to a retry budget; the backoff wait is charged to the
//     batch's virtual latency;
//   - questions that come back under-quorum (expired HITs, abandonment,
//     spam-rejected answers) are re-posted in partial batches carrying
//     their accumulated votes as priors, so the platform only collects the
//     answers still missing and merged totals stay decisive;
//   - BudgetExhausted from the wrapped platform degrades gracefully: the
//     posting window is halved (binary search for what the remaining budget
//     affords) and the call returns every label already paid for with
//     `LabelResult::truncated` set, instead of failing the batch — the
//     paper's C_max contract of Section 3.4: the run ends cleanly at the
//     cap with partial labels, it does not error out.
//
// The decorator holds no RNG; its retry loop is a deterministic function of
// the wrapped platform's behavior, so a decorated run snapshots/resumes
// exactly like a bare one (counters ride in its saved state).
#ifndef FALCON_CROWD_RESILIENT_CROWD_H_
#define FALCON_CROWD_RESILIENT_CROWD_H_

#include "crowd/crowd.h"

namespace falcon {

struct ResilientCrowdConfig {
  /// Transient-error retries per LabelBatch call.
  int max_retries = 6;
  /// Partial-batch requeue rounds per LabelBatch call.
  int max_requeues = 8;
  /// Wait before the first transient retry; doubles (by `backoff_multiplier`)
  /// per retry. Charged to the batch's virtual latency.
  VDuration initial_backoff = VDuration::Seconds(30.0);
  double backoff_multiplier = 2.0;
  /// On BudgetExhausted: shrink the batch and return the labels already
  /// paid for with `truncated` set (false = propagate the error).
  bool degrade_on_budget_exhausted = true;
};

/// max_retries/max_requeues >= 0, positive backoff, multiplier >= 1.
Status ValidateResilientCrowdConfig(const ResilientCrowdConfig& config);

/// CrowdPlatform decorator adding retry, partial-batch requeue with vote
/// merging, and graceful budget degradation. `inner` must outlive the
/// wrapper.
class ResilientCrowd : public CrowdDecorator {
 public:
  ResilientCrowd(ResilientCrowdConfig config, CrowdPlatform* inner);

  Result<LabelResult> LabelBatch(const LabelRequest& request) override;

  /// Transient-error retries performed (lifetime).
  uint64_t total_retries() const { return total_retries_; }
  /// Questions re-posted in partial batches (lifetime).
  uint64_t total_requeued_questions() const {
    return total_requeued_questions_;
  }
  /// Batches that returned truncated at the budget cap (lifetime).
  uint64_t truncated_batches() const { return truncated_batches_; }
  /// Questions that ended under quorum after exhausting the requeue budget
  /// (their labels are provisional prior-majority labels).
  uint64_t under_quorum_questions() const { return under_quorum_questions_; }

 protected:
  uint32_t StateKind() const override { return 5; }
  void SaveOwnState(BinaryWriter* w) const override;
  Status RestoreOwnState(BinaryReader* r) override;

 private:
  ResilientCrowdConfig config_;
  Status init_status_;
  uint64_t total_retries_ = 0;
  uint64_t total_requeued_questions_ = 0;
  uint64_t truncated_batches_ = 0;
  uint64_t under_quorum_questions_ = 0;
};

}  // namespace falcon

#endif  // FALCON_CROWD_RESILIENT_CROWD_H_
