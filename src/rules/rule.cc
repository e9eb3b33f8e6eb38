#include "rules/rule.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/strings.h"

namespace falcon {

const char* PredOpName(PredOp op) {
  switch (op) {
    case PredOp::kLe:
      return "<=";
    case PredOp::kGt:
      return ">";
    case PredOp::kLt:
      return "<";
    case PredOp::kGe:
      return ">=";
  }
  return "?";
}

PredOp Complement(PredOp op) {
  switch (op) {
    case PredOp::kLe:
      return PredOp::kGt;
    case PredOp::kGt:
      return PredOp::kLe;
    case PredOp::kLt:
      return PredOp::kGe;
    case PredOp::kGe:
      return PredOp::kLt;
  }
  return PredOp::kLe;
}

bool Predicate::Eval(double v) const {
  if (std::isnan(v)) return false;
  switch (op) {
    case PredOp::kLe:
      return v <= value;
    case PredOp::kGt:
      return v > value;
    case PredOp::kLt:
      return v < value;
    case PredOp::kGe:
      return v >= value;
  }
  return false;
}

std::string Predicate::ToString(const FeatureSet& fs) const {
  std::string name = feature_id >= 0 && feature_id < static_cast<int>(fs.size())
                         ? fs.feature(feature_id).name
                         : "f" + std::to_string(feature_pos);
  return name + " " + PredOpName(op) + " " + FormatDouble(value, 4);
}

bool Rule::Fires(const FeatureVec& fv) const {
  for (const auto& p : predicates) {
    if (!p.Eval(fv[p.feature_pos])) return false;
  }
  return !predicates.empty();
}

std::string Rule::ToString(const FeatureSet& fs) const {
  std::string s;
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) s += " AND ";
    s += predicates[i].ToString(fs);
  }
  s += " -> drop";
  return s;
}

bool RuleSequence::Drops(const FeatureVec& fv) const {
  for (const auto& r : rules) {
    if (r.Fires(fv)) return true;
  }
  return false;
}

std::string RuleSequence::ToString(const FeatureSet& fs) const {
  std::string s;
  for (size_t i = 0; i < rules.size(); ++i) {
    s += "R" + std::to_string(i + 1) + ": " + rules[i].ToString(fs) + "\n";
  }
  return s;
}

bool CnfClause::Holds(const FeatureVec& fv) const {
  for (const auto& p : predicates) {
    double v = fv[p.feature_pos];
    if (std::isnan(v)) return true;  // missing cannot prove a non-match
    if (p.Eval(v)) return true;
  }
  return false;
}

bool CnfRule::Keeps(const FeatureVec& fv) const {
  for (const auto& c : clauses) {
    if (!c.Holds(fv)) return false;
  }
  return true;
}

CnfRule ToCnf(const RuleSequence& seq) {
  CnfRule q;
  q.clauses.reserve(seq.rules.size());
  for (const auto& rule : seq.rules) {
    CnfClause clause;
    clause.selectivity = rule.selectivity;
    clause.predicates.reserve(rule.predicates.size());
    for (const auto& p : rule.predicates) {
      Predicate keep = p;
      keep.op = Complement(p.op);
      clause.predicates.push_back(keep);
    }
    q.clauses.push_back(std::move(clause));
  }
  return q;
}

Rule SimplifyRule(const Rule& rule) {
  Rule out;
  out.precision = rule.precision;
  out.coverage = rule.coverage;
  out.selectivity = rule.selectivity;
  out.time_per_pair = rule.time_per_pair;

  // Group predicates by (feature_pos, feature_id); fold <,<= into the
  // tightest upper bound and >,>= into the tightest lower bound.
  struct Bounds {
    bool has_upper = false;
    double upper = 0.0;
    PredOp upper_op = PredOp::kLe;
    bool has_lower = false;
    double lower = 0.0;
    PredOp lower_op = PredOp::kGt;
    int feature_id = -1;
  };
  std::map<int, Bounds> by_pos;
  for (const auto& p : rule.predicates) {
    Bounds& b = by_pos[p.feature_pos];
    b.feature_id = p.feature_id;
    if (p.op == PredOp::kLe || p.op == PredOp::kLt) {
      // Tighter upper bound wins; at equal value, < is tighter than <=.
      if (!b.has_upper || p.value < b.upper ||
          (p.value == b.upper && p.op == PredOp::kLt)) {
        b.has_upper = true;
        b.upper = p.value;
        b.upper_op = p.op;
      }
    } else {
      if (!b.has_lower || p.value > b.lower ||
          (p.value == b.lower && p.op == PredOp::kGt)) {
        b.has_lower = true;
        b.lower = p.value;
        b.lower_op = p.op;
      }
    }
  }
  for (const auto& [pos, b] : by_pos) {
    if (b.has_upper) {
      out.predicates.push_back(Predicate{pos, b.feature_id, b.upper_op,
                                         b.upper});
    }
    if (b.has_lower) {
      out.predicates.push_back(Predicate{pos, b.feature_id, b.lower_op,
                                         b.lower});
    }
  }
  return out;
}

RuleSequence SimplifySequence(const RuleSequence& seq) {
  RuleSequence out;
  out.selectivity = seq.selectivity;
  out.rules.reserve(seq.rules.size());
  for (const auto& r : seq.rules) out.rules.push_back(SimplifyRule(r));
  return out;
}

namespace {

void CollectRules(const DecisionTree& tree, int node,
                  std::vector<Predicate>& path,
                  const std::vector<int>& feature_ids,
                  std::vector<Rule>* out) {
  const TreeNode& n = tree.nodes()[node];
  if (n.is_leaf) {
    if (!n.prediction && !path.empty()) {
      Rule r;
      r.predicates = path;
      out->push_back(std::move(r));
    }
    return;
  }
  // Left branch: feature <= threshold.
  path.push_back(Predicate{n.feature, feature_ids[n.feature], PredOp::kLe,
                           n.threshold});
  CollectRules(tree, n.left, path, feature_ids, out);
  path.back().op = PredOp::kGt;  // right branch: feature > threshold
  CollectRules(tree, n.right, path, feature_ids, out);
  path.pop_back();
}

}  // namespace

std::string CanonicalKey(const Rule& r) {
  // Sorted predicate tuples: order-independent identity.
  std::vector<std::string> parts;
  parts.reserve(r.predicates.size());
  for (const auto& p : r.predicates) {
    parts.push_back(std::to_string(p.feature_pos) + "|" +
                    std::to_string(static_cast<int>(p.op)) + "|" +
                    FormatDouble(p.value, 9));
  }
  std::sort(parts.begin(), parts.end());
  return Join(parts, ";");
}

std::vector<Rule> ExtractBlockingRules(const RandomForest& forest,
                                       const std::vector<int>& feature_ids) {
  std::vector<Rule> rules;
  for (const auto& tree : forest.trees()) {
    if (tree.root() < 0) continue;
    std::vector<Predicate> path;
    CollectRules(tree, tree.root(), path, feature_ids, &rules);
  }
  // Simplify, then deduplicate on canonical form.
  std::vector<Rule> out;
  std::set<std::string> seen;
  for (const auto& r : rules) {
    Rule s = SimplifyRule(r);
    std::string key = CanonicalKey(s);
    if (seen.insert(key).second) out.push_back(std::move(s));
  }
  return out;
}

}  // namespace falcon
