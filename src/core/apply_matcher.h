// Operator apply_matcher (Section 9): applies a trained matcher to every
// candidate pair with a map-only job, fused with feature generation. Each
// map task evaluates features lazily (LazyPairFeatures) and votes with the
// forest's short-circuit RandomForest::PredictWith, so features no walked
// tree tests are never computed and no feature-vector array is
// materialized. Each pair counts the features it computed and the trees it
// walked (Counter::kFeaturesComputed, kTreesVoted), so the job's counters
// show the work the lazy evaluation and early voting saved. Predictions are
// byte-identical to RandomForest::Predict over the full ComputeVector of each
// pair.
#ifndef FALCON_CORE_APPLY_MATCHER_H_
#define FALCON_CORE_APPLY_MATCHER_H_

#include <cstdint>
#include <vector>

#include "common/counters.h"
#include "crowd/crowd.h"
#include "learn/random_forest.h"
#include "mapreduce/cluster.h"
#include "rules/feature.h"

namespace falcon {

struct ApplyMatcherFusedResult {
  /// Parallel to the input pairs; 1 = predicted match.
  std::vector<char> predictions;
  VDuration time;
  /// The job's counters: lazy feature evaluations (kFeaturesComputed) and
  /// trees voted before the early exit (kTreesVoted) over all pairs, plus
  /// the arena pages the engine charged (task arenas make these page
  /// acquisitions, not per-pair vectors). Virtual time already reflects the
  /// reduced work because map task seconds are measured, not modeled.
  CounterSet counters;
};

/// Applies `forest` to every pair without materializing feature vectors.
/// `feature_ids` defines the vector layout the forest was trained on
/// (position -> FeatureSet id), exactly as passed to GenFvs for training.
ApplyMatcherFusedResult ApplyMatcherFused(
    const Table& a, const Table& b, const std::vector<PairQuestion>& pairs,
    const FeatureSet& fs, const std::vector<int>& feature_ids,
    const RandomForest& forest, Cluster* cluster,
    const char* job_name = "apply_matcher(fused)");

}  // namespace falcon

#endif  // FALCON_CORE_APPLY_MATCHER_H_
