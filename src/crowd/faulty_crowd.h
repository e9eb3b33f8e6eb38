// Fault-injecting crowd platform decorator.
//
// Real crowdsourcing platforms misbehave in ways the paper's random-worker
// model does not capture: requests to the platform fail transiently, whole
// HITs expire unanswered, individual workers abandon a question mid-quorum,
// spammers submit answers that fail quality screening (consuming assignment
// slots without contributing votes), and latency has a heavy straggler
// tail. FaultyCrowd wraps any CrowdPlatform and injects each of these fault
// classes at configurable, independently seeded rates. All faults are drawn
// from the decorator's own RNG, so a faulty run is exactly as deterministic
// and snapshot-able (SaveState/RestoreState) as a fault-free one.
//
// Fault semantics (all applied BEFORE the wrapped platform draws answers,
// so a faulted question consumes no worker answers and no budget):
//   - transient error:  the whole call fails with kIoError; the wrapped
//                       platform is never contacted (side-effect-free).
//   - expired HIT:      a whole HIT's questions are not forwarded at all;
//                       they come back with their prior votes only.
//   - abandonment:      a question's answer cap is drawn strictly below the
//                       quorum requirement, so it ends under-quorum.
//   - spammers:         spam answers among a question's posted assignments
//                       are rejected by quality control; each rejection
//                       lowers the delivered-answer cap by one.
//   - stragglers:       a slow HIT multiplies the batch latency (the batch
//                       waits for its slowest HIT).
#ifndef FALCON_CROWD_FAULTY_CROWD_H_
#define FALCON_CROWD_FAULTY_CROWD_H_

#include "common/rng.h"
#include "crowd/crowd.h"

namespace falcon {

struct FaultyCrowdConfig {
  /// Probability that a LabelBatch call fails outright with kIoError.
  double transient_error_rate = 0.0;
  /// Probability that a whole HIT expires (its questions return unanswered).
  double hit_expiry_rate = 0.0;
  /// Probability that a question's workers abandon it below quorum.
  double abandon_rate = 0.0;
  /// Probability that one posted assignment slot is filled by a spammer
  /// whose answer is rejected by quality screening.
  double spammer_rate = 0.0;
  /// Probability that a HIT straggles, stretching the batch latency.
  double straggler_rate = 0.0;
  /// Latency multiplier applied when at least one HIT straggles.
  double straggler_multiplier = 8.0;
  /// HIT grouping used for expiry/straggler draws (consecutive questions).
  int questions_per_hit = 10;
  uint64_t seed = 1;
};

/// Rates in [0, 1], positive questions_per_hit, multiplier >= 1.
Status ValidateFaultyCrowdConfig(const FaultyCrowdConfig& config);

/// Counts of injected faults (observability + test assertions).
struct FaultCounters {
  uint64_t transient_errors = 0;
  uint64_t expired_hits = 0;
  uint64_t abandoned_questions = 0;
  uint64_t spam_answers = 0;
  uint64_t straggler_hits = 0;
};

/// CrowdPlatform decorator injecting seeded faults ahead of the wrapped
/// platform. Quorum semantics are the wrapped platform's (faults change how
/// many answers arrive, not how votes are aggregated).
class FaultyCrowd : public CrowdDecorator {
 public:
  FaultyCrowd(FaultyCrowdConfig config, CrowdPlatform* inner);

  Result<LabelResult> LabelBatch(const LabelRequest& request) override;

  const FaultCounters& counters() const { return counters_; }

 protected:
  uint32_t StateKind() const override { return 4; }
  /// Own state = fault RNG + fault counters.
  void SaveOwnState(BinaryWriter* w) const override;
  Status RestoreOwnState(BinaryReader* r) override;

 private:
  FaultyCrowdConfig config_;
  Status init_status_;
  Rng rng_;
  FaultCounters counters_;
};

}  // namespace falcon

#endif  // FALCON_CROWD_FAULTY_CROWD_H_
