#include "core/apply_matcher.h"

#include "mapreduce/job.h"

namespace falcon {

namespace {

// Counter keys interned once: the fused map function runs per pair, and a
// std::string construction per increment would dominate small-tree pairs.
const std::string kFeaturesComputed = "matcher/features_computed";
const std::string kTreesVoted = "matcher/trees_voted";
const std::string kAllocCount = "alloc/count";
const std::string kAllocBytes = "alloc/bytes";

}  // namespace

ApplyMatcherFusedResult ApplyMatcherFused(
    const Table& a, const Table& b, const std::vector<PairQuestion>& pairs,
    const FeatureSet& fs, const std::vector<int>& feature_ids,
    const FlatForest& forest, Cluster* cluster, const char* job_name) {
  ApplyMatcherFusedResult result;
  result.predictions.resize(pairs.size(), 0);
  result.work.pairs = pairs.size();
  result.work.vector_width = feature_ids.size();
  result.work.used_features = forest.used_features().size();
  result.work.num_trees = forest.num_trees();

  std::vector<size_t> idx(pairs.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  auto job = RunMapOnly<size_t, int>(
      cluster, idx, {.name = job_name},
      [&](const size_t& i, TaskVector<int>*, Counters* counters) {
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
        (*counters)[kFeaturesComputed] += lazy.computed_count();
        (*counters)[kTreesVoted] += voted;
      });
  result.time = job.stats.Total();
  if (auto it = job.stats.counters.find(kFeaturesComputed);
      it != job.stats.counters.end()) {
    result.work.features_computed = static_cast<uint64_t>(it->second);
  }
  if (auto it = job.stats.counters.find(kTreesVoted);
      it != job.stats.counters.end()) {
    result.work.trees_voted = static_cast<uint64_t>(it->second);
  }
  if (auto it = job.stats.counters.find(kAllocCount);
      it != job.stats.counters.end()) {
    result.work.alloc_count = static_cast<uint64_t>(it->second);
  }
  if (auto it = job.stats.counters.find(kAllocBytes);
      it != job.stats.counters.end()) {
    result.work.alloc_bytes = static_cast<uint64_t>(it->second);
  }
  return result;
}

}  // namespace falcon
