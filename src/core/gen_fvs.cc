#include "core/gen_fvs.h"

#include "mapreduce/job.h"

namespace falcon {

GenFvsResult GenFvs(const Table& a, const Table& b,
                    const std::vector<PairQuestion>& pairs,
                    const FeatureSet& fs, const std::vector<int>& feature_ids,
                    Cluster* cluster, const char* job_name) {
  GenFvsResult result;
  result.fvs.resize(pairs.size());
  // Compute reads whatever the caller prepared beforehand
  // (FeatureSet::Prepare): set-based features read the bound stores'
  // interned views, Monge-Elkan and TF/IDF features read per-row word lists
  // and TF/IDF vectors. Unprepared features take the string path; values
  // are bitwise equal either way, so this job needs no special handling.
  // Input items are indices so output order matches input order even though
  // map tasks run per split.
  std::vector<size_t> idx(pairs.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  auto job = RunMapOnly<size_t, int>(
      cluster, idx, {.name = job_name},
      [&](const size_t& i, TaskVector<int>*) {
        result.fvs[i] = fs.ComputeVector(feature_ids, a, pairs[i].first, b,
                                         pairs[i].second);
        // Each materialized FeatureVec is one heap vector the engine's
        // task-arena accounting cannot see (it lands in caller-owned
        // result.fvs, not task scratch); count it so eager-vs-fused alloc
        // comparisons stay honest.
        Count(Counter::kAllocCount);
        Count(Counter::kAllocBytes, feature_ids.size() * sizeof(double));
      });
  result.time = job.stats.Total();
  result.counters = job.stats.counters;
  return result;
}

}  // namespace falcon
