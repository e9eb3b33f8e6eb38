#include "core/apply_matcher.h"

#include "mapreduce/job.h"

namespace falcon {

ApplyMatcherFusedResult ApplyMatcherFused(
    const Table& a, const Table& b, const std::vector<PairQuestion>& pairs,
    const FeatureSet& fs, const std::vector<int>& feature_ids,
    const RandomForest& forest, Cluster* cluster, const char* job_name) {
  ApplyMatcherFusedResult result;
  result.predictions.resize(pairs.size(), 0);

  std::vector<size_t> idx(pairs.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  auto job = RunMapOnly<size_t, int>(
      cluster, idx, {.name = job_name},
      [&](const size_t& i, TaskVector<int>*) {
        // One lazy evaluator per thread (map splits never share one), with
        // buffers reused across pairs — the RuleApplier scratch pattern.
        // Writes to result.predictions are disjoint per input index.
        thread_local LazyPairFeatures lazy;
        lazy.Begin(&fs, &feature_ids, &a, pairs[i].first, &b,
                   pairs[i].second);
        int voted = 0;
        // `lazy` has thread storage duration, so the lambda names it
        // without a capture.
        bool match =
            forest.PredictWith([](int pos) { return lazy.Get(pos); }, &voted);
        result.predictions[i] = match ? 1 : 0;
        Count(Counter::kFeaturesComputed,
              static_cast<uint64_t>(lazy.computed_count()));
        Count(Counter::kTreesVoted, static_cast<uint64_t>(voted));
      });
  result.time = job.stats.Total();
  result.counters = job.stats.counters;
  return result;
}

}  // namespace falcon
