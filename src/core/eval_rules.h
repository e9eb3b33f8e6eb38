// Operator eval_rules (Sections 3.4, 9; Proposition 2).
//
// Estimates each candidate rule's precision with the crowd: per iteration,
// b pairs are drawn from cov(R, S), labeled under the strong-majority
// scheme, and the precision estimate P = n_-/n with error margin
//   epsilon = Z_{(1-delta)/2} * sqrt( P(1-P)/n * (m-n)/(m-1) )
// decides whether to retain (P >= P_min and epsilon <= eps_max), drop
// ((P + epsilon) < P_min, or epsilon <= eps_max with P < P_min), or iterate.
// Falcon additionally caps iterations per rule (default 5); Proposition 2
// shows the loop cannot exceed 20 iterations even uncapped.
#ifndef FALCON_CORE_EVAL_RULES_H_
#define FALCON_CORE_EVAL_RULES_H_

#include <vector>

#include "common/bitmap.h"
#include "common/rng.h"
#include "common/status.h"
#include "crowd/crowd.h"
#include "rules/rule.h"

namespace falcon {

struct EvalRulesOptions {
  int max_iterations_per_rule = 5;
  int pairs_per_iteration = 20;
  double precision_min = 0.95;
  double epsilon_max = 0.05;
  double delta = 0.95;
};

struct EvalRulesResult {
  /// Retained rules (precision metadata filled), in input rank order.
  std::vector<Rule> retained;
  /// Coverage bitmaps of the retained rules.
  std::vector<Bitmap> retained_coverage;
  VDuration crowd_time;
  size_t questions = 0;
  double cost = 0.0;
  /// True if the crowd budget cap ended rule evaluation early (C_max):
  /// rules already decided were decided on fully paid-for labels; rules not
  /// yet evaluated were dropped conservatively.
  bool budget_exhausted = false;
};

/// `coverage[i]` marks which of `sample_pairs` rule `rules[i]` drops.
Result<EvalRulesResult> EvalRules(const std::vector<Rule>& rules,
                                  const std::vector<Bitmap>& coverage,
                                  const std::vector<PairQuestion>& sample_pairs,
                                  CrowdPlatform* crowd,
                                  const EvalRulesOptions& options, Rng* rng);

/// The z-value Z_{(1-delta)/2} for the margin formula (1.96 at delta=0.95).
double ZValue(double delta);

}  // namespace falcon

#endif  // FALCON_CORE_EVAL_RULES_H_
