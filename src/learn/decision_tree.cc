#include "learn/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace falcon {
namespace {

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  bool nan_goes_left = true;
  double gini = std::numeric_limits<double>::infinity();
};

double GiniOf(size_t pos, size_t total) {
  if (total == 0) return 0.0;
  double p = static_cast<double>(pos) / total;
  return 2.0 * p * (1.0 - p);
}

class TreeBuilder {
 public:
  TreeBuilder(const std::vector<FeatureVec>& examples,
              const std::vector<char>& labels, const TreeOptions& options,
              Rng* rng)
      : examples_(examples), labels_(labels), options_(options), rng_(rng) {}

  int Build(std::vector<uint32_t>& idx, int depth,
            std::vector<TreeNode>* nodes) {
    size_t pos = 0;
    for (uint32_t i : idx) pos += labels_[i] ? 1 : 0;

    auto make_leaf = [&]() {
      TreeNode leaf;
      leaf.is_leaf = true;
      leaf.prediction = pos * 2 >= idx.size();
      size_t majority = leaf.prediction ? pos : idx.size() - pos;
      leaf.purity = idx.empty()
                        ? 1.0
                        : static_cast<double>(majority) / idx.size();
      leaf.support = static_cast<uint32_t>(idx.size());
      nodes->push_back(leaf);
      return static_cast<int>(nodes->size() - 1);
    };

    if (depth >= options_.max_depth || idx.size() < 2 * options_.min_samples_leaf ||
        pos == 0 || pos == idx.size()) {
      return make_leaf();
    }

    SplitCandidate best = FindBestSplit(idx);
    if (best.feature < 0) return make_leaf();

    std::vector<uint32_t> left_idx;
    std::vector<uint32_t> right_idx;
    for (uint32_t i : idx) {
      double v = examples_[i][best.feature];
      bool goes_left =
          std::isnan(v) ? best.nan_goes_left : v <= best.threshold;
      (goes_left ? left_idx : right_idx).push_back(i);
    }
    if (left_idx.size() < options_.min_samples_leaf ||
        right_idx.size() < options_.min_samples_leaf) {
      return make_leaf();
    }

    TreeNode inner;
    inner.is_leaf = false;
    inner.feature = best.feature;
    inner.threshold = best.threshold;
    inner.nan_goes_left = best.nan_goes_left;
    nodes->push_back(inner);
    int self = static_cast<int>(nodes->size() - 1);
    // Free the parent's index vector early on deep trees.
    idx.clear();
    idx.shrink_to_fit();
    int left = Build(left_idx, depth + 1, nodes);
    int right = Build(right_idx, depth + 1, nodes);
    (*nodes)[self].left = left;
    (*nodes)[self].right = right;
    return self;
  }

 private:
  SplitCandidate FindBestSplit(const std::vector<uint32_t>& idx) {
    const int num_features = static_cast<int>(examples_[idx[0]].size());
    std::vector<int> features(num_features);
    for (int f = 0; f < num_features; ++f) features[f] = f;
    if (options_.features_per_split > 0 &&
        options_.features_per_split < num_features) {
      rng_->Shuffle(&features);
      features.resize(options_.features_per_split);
    }

    SplitCandidate best;
    std::vector<std::pair<double, char>> vals;  // (value, label), non-NaN
    for (int f : features) {
      vals.clear();
      size_t nan_pos = 0;
      size_t nan_total = 0;
      for (uint32_t i : idx) {
        double v = examples_[i][f];
        if (std::isnan(v)) {
          ++nan_total;
          nan_pos += labels_[i] ? 1 : 0;
        } else {
          vals.emplace_back(v, labels_[i]);
        }
      }
      if (vals.size() < 2) continue;
      std::sort(vals.begin(), vals.end());
      if (vals.front().first == vals.back().first) continue;

      // Candidate thresholds: boundaries between distinct values, thinned to
      // at most max_thresholds quantile-spaced candidates.
      std::vector<size_t> boundaries;  // split AFTER position b
      for (size_t i = 0; i + 1 < vals.size(); ++i) {
        if (vals[i].first != vals[i + 1].first) boundaries.push_back(i);
      }
      if (boundaries.empty()) continue;
      size_t stride = std::max<size_t>(
          1, boundaries.size() /
                 static_cast<size_t>(std::max(options_.max_thresholds, 1)));

      // Prefix positives over sorted values for O(1) gini per boundary.
      std::vector<uint32_t> prefix_pos(vals.size() + 1, 0);
      for (size_t i = 0; i < vals.size(); ++i) {
        prefix_pos[i + 1] = prefix_pos[i] + (vals[i].second ? 1 : 0);
      }
      size_t total_pos = prefix_pos[vals.size()];

      for (size_t bi = 0; bi < boundaries.size(); bi += stride) {
        size_t b = boundaries[bi];
        size_t left_n = b + 1;
        size_t right_n = vals.size() - left_n;
        size_t left_pos = prefix_pos[left_n];
        size_t right_pos = total_pos - left_pos;
        // Route NaNs to the larger side.
        bool nan_left = left_n >= right_n;
        size_t ln = left_n;
        size_t rp = right_pos;
        size_t lp = left_pos;
        size_t rn = right_n;
        if (nan_left) {
          ln += nan_total;
          lp += nan_pos;
        } else {
          rn += nan_total;
          rp += nan_pos;
        }
        size_t total = ln + rn;
        double gini = (static_cast<double>(ln) / total) * GiniOf(lp, ln) +
                      (static_cast<double>(rn) / total) * GiniOf(rp, rn);
        if (gini < best.gini) {
          best.gini = gini;
          best.feature = f;
          best.threshold = (vals[b].first + vals[b + 1].first) / 2.0;
          best.nan_goes_left = nan_left;
        }
      }
    }
    return best;
  }

  const std::vector<FeatureVec>& examples_;
  const std::vector<char>& labels_;
  const TreeOptions& options_;
  Rng* rng_;
};

}  // namespace

DecisionTree DecisionTree::Train(const std::vector<FeatureVec>& examples,
                                 const std::vector<char>& labels,
                                 const std::vector<uint32_t>& indices,
                                 const TreeOptions& options, Rng* rng) {
  DecisionTree tree;
  std::vector<uint32_t> idx = indices;
  if (idx.empty()) {
    idx.resize(examples.size());
    for (uint32_t i = 0; i < examples.size(); ++i) idx[i] = i;
  }
  if (idx.empty()) {
    // Degenerate: no training data -> a single "no match" leaf.
    TreeNode leaf;
    leaf.is_leaf = true;
    leaf.prediction = false;
    tree.nodes_.push_back(leaf);
    return tree;
  }
  TreeBuilder builder(examples, labels, options, rng);
  builder.Build(idx, 0, &tree.nodes_);
  return tree;
}

DecisionTree DecisionTree::FromNodes(std::vector<TreeNode> nodes) {
  DecisionTree tree;
  tree.nodes_ = std::move(nodes);
  return tree;
}

bool DecisionTree::Predict(const FeatureVec& fv) const {
  return nodes_[LeafOf(fv)].prediction;
}

size_t DecisionTree::num_leaves() const {
  size_t c = 0;
  for (const auto& n : nodes_) c += n.is_leaf ? 1 : 0;
  return c;
}

}  // namespace falcon
