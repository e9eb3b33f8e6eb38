// Operator gen_fvs (Section 8): converts tuple pairs into feature vectors
// with a map-only job. Each materialized vector is a heap allocation the
// job's task arenas cannot see, so the map function counts it
// (Counter::kAllocCount, kAllocBytes) beside the engine's arena pages.
#ifndef FALCON_CORE_GEN_FVS_H_
#define FALCON_CORE_GEN_FVS_H_

#include <vector>

#include "common/counters.h"
#include "crowd/crowd.h"
#include "learn/decision_tree.h"
#include "mapreduce/cluster.h"
#include "rules/feature.h"

namespace falcon {

struct GenFvsResult {
  std::vector<FeatureVec> fvs;  ///< parallel to the input pairs
  VDuration time;
  /// The job's counters. Its allocation counters cover the engine's arena
  /// pages plus one allocation per materialized vector.
  CounterSet counters;
};

/// Computes the features `feature_ids` (positions define the vector layout)
/// for every pair.
GenFvsResult GenFvs(const Table& a, const Table& b,
                    const std::vector<PairQuestion>& pairs,
                    const FeatureSet& fs, const std::vector<int>& feature_ids,
                    Cluster* cluster, const char* job_name = "gen_fvs");

}  // namespace falcon

#endif  // FALCON_CORE_GEN_FVS_H_
