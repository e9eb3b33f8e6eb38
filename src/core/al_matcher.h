// Operator al_matcher (Sections 9 and 10.2-3 of the paper).
//
// Crowdsourced active learning of a random-forest matcher over a set of
// feature vectors: train, select the ~20 most controversial pairs (highest
// committee disagreement), have the crowd label them, retrain; stop on
// convergence or at the iteration cap (30), which bounds crowd time/cost.
//
// Pair selection runs as a cluster job (it scans every vector). With
// masking enabled (optimization 3), the first iteration selects a double
// batch and every subsequent selection overlaps the crowd's labeling of the
// previous batch, so selection time is hidden behind crowd latency at the
// cost of training on labels that lag one batch.
#ifndef FALCON_CORE_AL_MATCHER_H_
#define FALCON_CORE_AL_MATCHER_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "crowd/crowd.h"
#include "learn/random_forest.h"
#include "mapreduce/cluster.h"

namespace falcon {

struct AlMatcherOptions {
  int max_iterations = 30;
  int pairs_per_iteration = 20;
  int convergence_patience = 2;
  double convergence_threshold = 0.10;
  ForestOptions forest;
  /// Optimization 3: mask pair selection behind crowd labeling.
  bool mask_pair_selection = false;
};

struct AlMatcherResult {
  RandomForest matcher;
  /// Labeled training data accumulated by the crowd (indices into the input
  /// vectors, parallel labels).
  std::vector<uint32_t> labeled_indices;
  std::vector<char> labels;
  int iterations = 0;
  /// True if stopped by the convergence criterion (not the cap). The
  /// speculative apply_matcher optimization reuses its result only then.
  bool converged = false;
  /// True if the crowd budget cap ended labeling early (the paper's C_max
  /// contract): the matcher was trained on the labels already paid for and
  /// the active-learning loop stopped cleanly.
  bool budget_exhausted = false;

  // --- time accounting ---
  /// Sum of per-iteration crowd latencies.
  VDuration crowd_time;
  /// Raw machine time spent on pair selection (all iterations).
  VDuration selection_time;
  /// Selection time not hidden by crowd latency (== selection_time when
  /// masking is off).
  VDuration selection_unmasked;
  /// Machine time spent training forests (runs on the driver).
  VDuration training_time;

  size_t questions = 0;
  double cost = 0.0;
};

/// Runs active learning over `fvs` (feature vectors of `pairs`, parallel).
Result<AlMatcherResult> AlMatcher(const std::vector<FeatureVec>& fvs,
                                  const std::vector<PairQuestion>& pairs,
                                  CrowdPlatform* crowd,
                                  const AlMatcherOptions& options,
                                  Cluster* cluster, Rng* rng);

}  // namespace falcon

#endif  // FALCON_CORE_AL_MATCHER_H_
