#include "learn/random_forest.h"

#include <cmath>

namespace falcon {

RandomForest RandomForest::Train(const std::vector<FeatureVec>& examples,
                                 const std::vector<char>& labels,
                                 const ForestOptions& options, Rng* rng) {
  RandomForest forest;
  TreeOptions tree_opts = options.tree;
  if (tree_opts.features_per_split == 0 && !examples.empty()) {
    tree_opts.features_per_split = static_cast<int>(
        std::ceil(std::sqrt(static_cast<double>(examples[0].size()))));
  }
  forest.trees_.reserve(options.num_trees);
  for (int t = 0; t < options.num_trees; ++t) {
    std::vector<uint32_t> idx;
    if (options.bootstrap && !examples.empty()) {
      idx.resize(examples.size());
      for (auto& i : idx) {
        i = static_cast<uint32_t>(rng->NextBelow(examples.size()));
      }
    }
    forest.trees_.push_back(
        DecisionTree::Train(examples, labels, idx, tree_opts, rng));
  }
  return forest;
}

bool RandomForest::Predict(const FeatureVec& fv) const {
  // >= breaks even-tree-count ties toward "match"; PredictWith's early-exit
  // vote (2 * pos >= num_trees) depends on this exact boundary.
  return PositiveFraction(fv) >= 0.5;
}

double RandomForest::PositiveFraction(const FeatureVec& fv) const {
  if (trees_.empty()) return 0.0;
  size_t pos = 0;
  for (const auto& tree : trees_) pos += tree.Predict(fv) ? 1 : 0;
  return static_cast<double>(pos) / trees_.size();
}

double RandomForest::Disagreement(const FeatureVec& fv) const {
  double p = PositiveFraction(fv);
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -(p * std::log2(p) + (1.0 - p) * std::log2(1.0 - p));
}

}  // namespace falcon
