// CART decision trees.
//
// Falcon learns random forests whose trees it later *inspects*: every path
// from a root to a "No" (non-match) leaf becomes a candidate blocking rule
// (Section 3.2 / get_blocking_rules). Trees therefore expose their full node
// structure, not just a predict() method.
//
// Feature vectors are std::vector<double>; NaN encodes a missing value.
// At a split, NaN-valued examples follow the branch that received the
// majority of training examples (recorded per node), a standard surrogate-
// free missing-value policy.
#ifndef FALCON_LEARN_DECISION_TREE_H_
#define FALCON_LEARN_DECISION_TREE_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace falcon {

/// A feature vector; NaN entries are missing values.
using FeatureVec = std::vector<double>;

/// One node of a decision tree, stored in a flat pool.
struct TreeNode {
  bool is_leaf = true;
  /// Leaf: predicted label (true = match).
  bool prediction = false;
  /// Leaf: fraction of training examples with the predicted label.
  double purity = 1.0;
  /// Leaf: number of training examples that reached the leaf.
  uint32_t support = 0;
  /// Inner: split feature index; goes left iff feature <= threshold.
  int feature = -1;
  double threshold = 0.0;
  /// Inner: side taken by examples whose split feature is NaN.
  bool nan_goes_left = true;
  int left = -1;
  int right = -1;
};

struct TreeOptions {
  int max_depth = 10;
  uint32_t min_samples_leaf = 2;
  /// Features considered at each split; 0 = all, otherwise a random subset
  /// of this size (random forests pass ~sqrt(num_features)).
  int features_per_split = 0;
  /// Max candidate thresholds examined per feature (quantile-spaced).
  int max_thresholds = 32;
};

/// A trained CART tree (Gini impurity).
class DecisionTree {
 public:
  /// Trains on `examples`/`labels` (parallel vectors). `indices` selects the
  /// training subset (bootstrap sample); empty = all.
  static DecisionTree Train(const std::vector<FeatureVec>& examples,
                            const std::vector<char>& labels,
                            const std::vector<uint32_t>& indices,
                            const TreeOptions& options, Rng* rng);

  /// Reconstructs a tree from a node pool (deserialization). The pool must
  /// be non-empty with node 0 as root, and every split's children must lie
  /// in the pool at larger indices than the split (as Train writes them), so
  /// every walk ends at a leaf.
  static DecisionTree FromNodes(std::vector<TreeNode> nodes);

  /// Predicted label for `fv`.
  bool Predict(const FeatureVec& fv) const;

  /// Index of the leaf `fv` lands in.
  int LeafOf(const FeatureVec& fv) const {
    return LeafWith([&fv](int f) { return fv[f]; });
  }

  /// Index of the leaf reached when `at(f)` returns the value of feature
  /// position `f`. `at` is called only for the features the path's splits
  /// test, so a lazy evaluator computes nothing else.
  template <typename FeatureAt>
  int LeafWith(FeatureAt&& at) const {
    int n = 0;
    while (!nodes_[n].is_leaf) {
      const TreeNode& node = nodes_[n];
      double v = at(node.feature);
      bool goes_left = std::isnan(v) ? node.nan_goes_left : v <= node.threshold;
      n = goes_left ? node.left : node.right;
    }
    return n;
  }

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  int root() const { return nodes_.empty() ? -1 : 0; }

  /// Number of leaves.
  size_t num_leaves() const;

 private:
  std::vector<TreeNode> nodes_;
};

}  // namespace falcon

#endif  // FALCON_LEARN_DECISION_TREE_H_
