#include "core/gen_fvs.h"

#include "mapreduce/job.h"

namespace falcon {
namespace {

// Interned once; the map function runs per pair.
const std::string kAllocCount = "alloc/count";
const std::string kAllocBytes = "alloc/bytes";

}  // namespace

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
      [&](const size_t& i, TaskVector<int>*, Counters* counters) {
        result.fvs[i] = fs.ComputeVector(feature_ids, a, pairs[i].first, b,
                                         pairs[i].second);
        // Each materialized FeatureVec is one heap vector the engine's
        // task-arena accounting cannot see (it lands in caller-owned
        // result.fvs, not task scratch); count it so eager-vs-fused alloc
        // comparisons stay honest.
        (*counters)[kAllocCount] += 1;
        (*counters)[kAllocBytes] +=
            static_cast<int64_t>(feature_ids.size() * sizeof(double));
      });
  result.time = job.stats.Total();
  if (auto it = job.stats.counters.find(kAllocCount);
      it != job.stats.counters.end()) {
    result.alloc_count = static_cast<uint64_t>(it->second);
  }
  if (auto it = job.stats.counters.find(kAllocBytes);
      it != job.stats.counters.end()) {
    result.alloc_bytes = static_cast<uint64_t>(it->second);
  }
  return result;
}

}  // namespace falcon
