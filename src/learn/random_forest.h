// Random forests (Breiman 2001), the matcher model of Corleone/Falcon.
//
// The forest is both a classifier (apply_matcher) and the source of blocking
// rules: get_blocking_rules extracts root-to-"No"-leaf paths from its trees.
// It also drives active learning: the fraction of trees voting "match" gives
// the committee disagreement used to pick controversial pairs.
#ifndef FALCON_LEARN_RANDOM_FOREST_H_
#define FALCON_LEARN_RANDOM_FOREST_H_

#include <vector>

#include "common/rng.h"
#include "learn/decision_tree.h"

namespace falcon {

struct ForestOptions {
  int num_trees = 10;
  TreeOptions tree;
  /// Bootstrap-sample the training set per tree.
  bool bootstrap = true;
  /// If 0, features_per_split defaults to ceil(sqrt(num_features)).
};

/// A bagged ensemble of CART trees with majority voting.
class RandomForest {
 public:
  RandomForest() = default;
  /// Reconstructs a forest from trees (deserialization).
  explicit RandomForest(std::vector<DecisionTree> trees)
      : trees_(std::move(trees)) {}

  /// Trains on parallel vectors `examples` / `labels` (true = match).
  static RandomForest Train(const std::vector<FeatureVec>& examples,
                            const std::vector<char>& labels,
                            const ForestOptions& options, Rng* rng);

  /// Majority vote over the trees: match iff PositiveFraction(fv) >= 0.5,
  /// i.e. iff 2 * positive_votes >= num_trees. With an even tree count an
  /// exact tie therefore predicts "match" — recall errs toward keeping a
  /// pair rather than silently dropping it. This full vote is the reference
  /// PredictWith's short-circuit vote is pinned to.
  bool Predict(const FeatureVec& fv) const;

  /// Predict's outcome from a vote with early exit, for the matching hot
  /// path (apply_matcher). `at(pos)` returns the value of feature position
  /// `pos` and is called only for the features the walked trees test, so a
  /// lazy evaluator computes nothing else. Trees vote in order, and voting
  /// stops once the outcome is decided: "match" once 2*pos_votes >=
  /// num_trees (Predict's tie-break), "no match" once the remaining trees
  /// cannot reach that bound, i.e. after at most ceil(T/2) agreeing or
  /// T/2+1 disagreeing votes. `trees_voted`, when non-null, receives the
  /// number of trees walked; an empty forest walks none and predicts "no".
  template <typename FeatureAt>
  bool PredictWith(FeatureAt&& at, int* trees_voted = nullptr) const {
    const size_t trees = trees_.size();
    size_t pos_votes = 0;
    for (size_t t = 0; t < trees; ++t) {
      const DecisionTree& tree = trees_[t];
      pos_votes += tree.nodes()[tree.LeafWith(at)].prediction ? 1 : 0;
      const size_t voted = t + 1;
      const bool match = 2 * pos_votes >= trees;
      if (match || 2 * (pos_votes + (trees - voted)) < trees) {
        if (trees_voted != nullptr) *trees_voted = static_cast<int>(voted);
        return match;
      }
    }
    // Only reachable for an empty forest (PositiveFraction's 0.0).
    if (trees_voted != nullptr) *trees_voted = 0;
    return false;
  }

  /// Fraction of trees voting "match" in [0, 1]. 0.5 = maximal disagreement.
  double PositiveFraction(const FeatureVec& fv) const;

  /// Committee disagreement: entropy of the vote split in [0, 1].
  double Disagreement(const FeatureVec& fv) const;

  const std::vector<DecisionTree>& trees() const { return trees_; }
  size_t num_trees() const { return trees_.size(); }

 private:
  std::vector<DecisionTree> trees_;
};

}  // namespace falcon

#endif  // FALCON_LEARN_RANDOM_FOREST_H_
