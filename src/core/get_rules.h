// Operator get_blocking_rules (Sections 3.2, 9): extracts candidate blocking
// rules from the learned random forest, computes their coverage/selectivity/
// per-pair run time on the sample S (as cluster jobs), ranks them, and keeps
// the top k for crowd evaluation.
#ifndef FALCON_CORE_GET_RULES_H_
#define FALCON_CORE_GET_RULES_H_

#include <vector>

#include "common/bitmap.h"
#include "learn/random_forest.h"
#include "mapreduce/cluster.h"
#include "rules/rule.h"

namespace falcon {

struct GetRulesOptions {
  /// Rules kept for crowd evaluation (paper: 20).
  int max_rules = 20;
  /// Minimum |cov(R,S)| / |S| for a rule to be worth evaluating.
  double min_coverage_fraction = 0.005;
  /// Replace the measured per-pair rule time with a deterministic proxy
  /// proportional to predicate count. Measured times make select_opt_seq's
  /// cost term — and hence the chosen sequence — vary run to run; resumable
  /// sessions need reproducible plans (see FalconConfig).
  bool deterministic_time = false;
};

struct RuleCandidates {
  /// Ranked candidate rules with coverage/selectivity/time metadata filled.
  std::vector<Rule> rules;
  /// cov(R_i, S) bitmaps, parallel to `rules` (Section 6).
  std::vector<Bitmap> coverage;
  VDuration time;
};

/// `sample_fvs` are the blocking feature vectors of S; `labeled_indices` /
/// `labels` are the crowd labels accumulated by al_matcher — rules that drop
/// known positives rank last (they visibly hurt recall). Rules whose keep-
/// complement admits index filters rank above unfilterable ones: a rule
/// that can only be executed by enumerating A x B is nearly useless for
/// blocking, so it should not crowd a filterable rule out of the top k.
RuleCandidates GetBlockingRules(const RandomForest& forest,
                                const std::vector<int>& feature_ids,
                                const FeatureSet& fs,
                                const std::vector<FeatureVec>& sample_fvs,
                                const std::vector<uint32_t>& labeled_indices,
                                const std::vector<char>& labels,
                                const GetRulesOptions& options,
                                Cluster* cluster);

}  // namespace falcon

#endif  // FALCON_CORE_GET_RULES_H_
