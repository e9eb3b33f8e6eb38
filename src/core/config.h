// Falcon configuration.
//
// FalconConfig holds what callers vary: sample sizes, iteration and rule
// caps, the cost mode, the masking toggles and the plan-choice budget. The
// paper's fixed operator parameters (Sections 3.4, 6, 9: P_min 0.95,
// epsilon_max 0.05, delta 0.95, 5 iterations per rule, 20 labeled pairs per
// iteration, 10-tree forests, select_opt_seq's alpha and beta) are defined
// once, as the defaults of their operators' options structs. Sizes scale:
// the paper samples |S| = 1M pairs and masks pair selection above
// |C'| = 50M; benches shrink both together with the data.
#ifndef FALCON_CORE_CONFIG_H_
#define FALCON_CORE_CONFIG_H_

#include <cstdint>

#include "core/accuracy_estimator.h"
#include "core/sample_pairs.h"

namespace falcon {

struct FalconConfig {
  // --- sample_pairs (Section 5) ---
  /// Target |S|. Paper default 1M; scaled down for bench-sized tables.
  size_t sample_size = 100000;
  /// y: tuples of A paired with each sampled B tuple (half by shared
  /// tokens, half random).
  int sample_y = 100;
  /// Section 5's token-biased sampler, or the naive uniform baseline
  /// (ablation only — uniform samples starve active learning of positives).
  SampleStrategy sample_strategy = SampleStrategy::kTokenBiased;

  // --- estimate_accuracy (extension; the Accuracy Estimator of Corleone) ---
  /// Run the crowd-based accuracy estimator after apply_matcher.
  bool estimate_accuracy = false;
  AccuracyEstimatorOptions accuracy;

  // --- al_matcher (Sections 9, 3.4) ---
  /// Iteration cap k (paper: 30, including the seed iteration).
  int al_max_iterations = 30;

  // --- get_blocking_rules and eval_rules (Sections 3.4, 9) ---
  /// Top-k rules sent to crowd evaluation (paper: 20).
  int max_rules_to_eval = 20;
  /// Score candidate rules with a deterministic per-pair cost proxy instead
  /// of measured CPU time. Measured times vary run to run, so select_opt_seq
  /// may pick different (equally valid) sequences on identical inputs; a
  /// resumable session that promises byte-identical resume turns this on so
  /// the plan itself is reproducible.
  bool deterministic_rule_cost = false;

  // --- select_opt_seq (Section 6) ---
  double score_gamma = 0.01;  ///< weight of run time (per-pair microsecs)
  /// Exhaustive subset enumeration cap; beyond this, only the top-ranked
  /// rules are enumerated.
  int max_rules_exhaustive = 12;

  // --- plan generation & optimization (Section 10) ---
  /// Masking master switch plus per-optimization toggles (Table 5 ablation).
  bool enable_masking = true;
  bool mask_index_building = true;        ///< O1
  bool mask_speculative_execution = true; ///< O2
  bool mask_pair_selection = true;        ///< O3
  /// |C'| above which pair-selection masking applies (paper: 50M).
  size_t pair_selection_mask_threshold = 200000;
  /// Choose the matcher-only plan when the estimated feature-vector encoding
  /// of A x B fits within this budget (Section 10.1's memory heuristic).
  size_t matcher_only_max_bytes = size_t{256} * 1024 * 1024;

  uint64_t seed = 1;
};

}  // namespace falcon

#endif  // FALCON_CORE_CONFIG_H_
