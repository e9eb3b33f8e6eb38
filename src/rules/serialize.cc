#include "rules/serialize.h"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

#include "common/strings.h"

namespace falcon {
namespace {

constexpr char kRulesHeader[] = "falcon-rules v1";
constexpr char kForestHeader[] = "falcon-forest v1";

/// Non-finite values are written as fixed tokens (snprintf's "nan"/"-nan"
/// spelling varies by platform): split thresholds learned on missing-value
/// data can legitimately be NaN, and such forests must round-trip.
std::string EncodeDouble(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// ParseDouble (common/strings.h) accepts only finite values; serialized
/// model values may also be the EncodeDouble non-finite tokens.
bool ParseValueDouble(std::string_view s, double* out) {
  if (s == "nan" || s == "-nan") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  if (s == "inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (s == "-inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  return ParseDouble(s, out);
}

/// Parses `s` as a decimal integer in [lo, hi]. Counts, indices and flags
/// go through here rather than through a double, whose cast to an integer
/// type is undefined when the value is out of range.
template <typename Int>
bool ParseInt(std::string_view s, Int lo, Int hi, Int* out) {
  Int v{};
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// Feature names are single tokens already (no spaces), but guard anyway.
Status CheckName(const std::string& name) {
  if (name.find(' ') != std::string::npos ||
      name.find('\n') != std::string::npos) {
    return Status::Internal("feature name contains whitespace: " + name);
  }
  return Status::OK();
}

std::map<std::string, int> NameIndex(const FeatureSet& fs) {
  std::map<std::string, int> by_name;
  for (const auto& f : fs.features()) by_name[f.name] = f.id;
  return by_name;
}

/// Position of `feature_id` in the blocking-feature layout, or -1.
int BlockingPos(const FeatureSet& fs, int feature_id) {
  const auto& ids = fs.blocking_ids();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == feature_id) return static_cast<int>(i);
  }
  return -1;
}

class LineReader {
 public:
  explicit LineReader(const std::string& text) : stream_(text) {}

  /// Next non-empty line, trimmed; false at end.
  bool Next(std::string* line) {
    std::string raw;
    while (std::getline(stream_, raw)) {
      std::string trimmed(Trim(raw));
      if (!trimmed.empty()) {
        *line = std::move(trimmed);
        return true;
      }
    }
    return false;
  }

 private:
  std::istringstream stream_;
};

}  // namespace

std::string SerializeRuleSequence(const RuleSequence& seq,
                                  const FeatureSet& fs) {
  std::string out = kRulesHeader;
  out += "\nseq selectivity " + EncodeDouble(seq.selectivity) + "\n";
  for (const auto& r : seq.rules) {
    out += "rule precision " + EncodeDouble(r.precision) + " coverage " +
           std::to_string(r.coverage) + " selectivity " +
           EncodeDouble(r.selectivity) + " time " +
           EncodeDouble(r.time_per_pair) + "\n";
    for (const auto& p : r.predicates) {
      out += "pred " + fs.feature(p.feature_id).name + " " +
             std::to_string(static_cast<int>(p.op)) + " " +
             EncodeDouble(p.value) + "\n";
    }
  }
  out += "end\n";
  return out;
}

Result<RuleSequence> ParseRuleSequence(const std::string& text,
                                       const FeatureSet& fs) {
  LineReader reader(text);
  std::string line;
  if (!reader.Next(&line) || line != kRulesHeader) {
    return Status::IoError("bad rule-sequence header");
  }
  auto by_name = NameIndex(fs);
  RuleSequence seq;
  Rule* current = nullptr;
  while (reader.Next(&line)) {
    auto parts = Split(line, ' ');
    if (parts[0] == "end") return seq;
    if (parts[0] == "seq") {
      if (parts.size() != 3 || parts[1] != "selectivity" ||
          !ParseValueDouble(parts[2], &seq.selectivity)) {
        return Status::IoError("bad seq line: " + line);
      }
    } else if (parts[0] == "rule") {
      if (parts.size() != 9) return Status::IoError("bad rule line: " + line);
      Rule r;
      if (!ParseValueDouble(parts[2], &r.precision) ||
          !ParseInt(parts[4], size_t{0}, SIZE_MAX, &r.coverage) ||
          !ParseValueDouble(parts[6], &r.selectivity) ||
          !ParseValueDouble(parts[8], &r.time_per_pair)) {
        return Status::IoError("bad rule numerics: " + line);
      }
      seq.rules.push_back(std::move(r));
      current = &seq.rules.back();
    } else if (parts[0] == "pred") {
      if (current == nullptr) {
        return Status::IoError("pred before any rule");
      }
      if (parts.size() != 4) return Status::IoError("bad pred line: " + line);
      auto it = by_name.find(parts[1]);
      if (it == by_name.end()) {
        return Status::NotFound("unknown feature: " + parts[1]);
      }
      int op = 0;
      double value = 0.0;
      if (!ParseInt(parts[2], 0, static_cast<int>(PredOp::kGe), &op) ||
          !ParseValueDouble(parts[3], &value)) {
        return Status::IoError("bad pred numerics: " + line);
      }
      Predicate p;
      p.feature_id = it->second;
      p.feature_pos = BlockingPos(fs, it->second);
      p.op = static_cast<PredOp>(op);
      p.value = value;
      current->predicates.push_back(p);
    } else {
      return Status::IoError("unknown directive: " + parts[0]);
    }
  }
  return Status::IoError("missing 'end' terminator");
}

std::string SerializeForest(const RandomForest& forest,
                            const std::vector<int>& feature_ids,
                            const FeatureSet& fs) {
  std::string out = kForestHeader;
  out += "\nfeatures " + std::to_string(feature_ids.size()) + "\n";
  for (int id : feature_ids) {
    (void)CheckName(fs.feature(id).name);
    out += "f " + fs.feature(id).name + "\n";
  }
  out += "trees " + std::to_string(forest.num_trees()) + "\n";
  for (const auto& tree : forest.trees()) {
    out += "tree " + std::to_string(tree.nodes().size()) + "\n";
    for (const auto& n : tree.nodes()) {
      if (n.is_leaf) {
        out += "leaf " + std::to_string(n.prediction ? 1 : 0) + " " +
               EncodeDouble(n.purity) + " " + std::to_string(n.support) +
               "\n";
      } else {
        out += "split " + std::to_string(n.feature) + " " +
               EncodeDouble(n.threshold) + " " +
               std::to_string(n.nan_goes_left ? 1 : 0) + " " +
               std::to_string(n.left) + " " + std::to_string(n.right) + "\n";
      }
    }
  }
  out += "end\n";
  return out;
}

Result<RandomForest> ParseForest(const std::string& text,
                                 const FeatureSet& fs,
                                 std::vector<int>* out_feature_ids) {
  LineReader reader(text);
  std::string line;
  if (!reader.Next(&line) || line != kForestHeader) {
    return Status::IoError("bad forest header");
  }
  auto by_name = NameIndex(fs);

  // Counts are only loop bounds: nothing is reserved from them, so a
  // hostile count costs at most the lines the text really holds.
  auto expect_count = [&](const char* keyword) -> Result<int> {
    std::string l;
    if (!reader.Next(&l)) return Status::IoError("truncated forest");
    auto parts = Split(l, ' ');
    int v = 0;
    if (parts.size() != 2 || parts[0] != keyword ||
        !ParseInt(parts[1], 0, INT_MAX, &v)) {
      return Status::IoError(std::string("expected '") + keyword +
                             " <n>', got: " + l);
    }
    return v;
  };

  FALCON_ASSIGN_OR_RETURN(int num_features, expect_count("features"));
  out_feature_ids->clear();
  for (int i = 0; i < num_features; ++i) {
    if (!reader.Next(&line)) return Status::IoError("truncated features");
    auto parts = Split(line, ' ');
    if (parts.size() != 2 || parts[0] != "f") {
      return Status::IoError("bad feature line: " + line);
    }
    auto it = by_name.find(parts[1]);
    if (it == by_name.end()) {
      return Status::NotFound("unknown feature: " + parts[1]);
    }
    out_feature_ids->push_back(it->second);
  }

  FALCON_ASSIGN_OR_RETURN(int num_trees, expect_count("trees"));
  std::vector<DecisionTree> trees;
  for (int t = 0; t < num_trees; ++t) {
    FALCON_ASSIGN_OR_RETURN(int num_nodes, expect_count("tree"));
    if (num_nodes == 0) return Status::IoError("empty tree");
    std::vector<TreeNode> nodes;
    for (int n = 0; n < num_nodes; ++n) {
      if (!reader.Next(&line)) return Status::IoError("truncated tree");
      auto parts = Split(line, ' ');
      TreeNode node;
      if (parts[0] == "leaf" && parts.size() == 4) {
        int pred = 0;
        node.is_leaf = true;
        if (!ParseInt(parts[1], 0, 1, &pred) ||
            !ParseValueDouble(parts[2], &node.purity) ||
            !ParseInt(parts[3], uint32_t{0}, UINT32_MAX, &node.support)) {
          return Status::IoError("bad leaf: " + line);
        }
        node.prediction = pred != 0;
      } else if (parts[0] == "split" && parts.size() == 6) {
        // A split's children come after it in the pool, as TreeBuilder
        // writes them, so every walk from the root ends at a leaf.
        int nan_left = 0;
        node.is_leaf = false;
        if (!ParseInt(parts[1], 0, num_features - 1, &node.feature) ||
            !ParseValueDouble(parts[2], &node.threshold) ||
            !ParseInt(parts[3], 0, 1, &nan_left) ||
            !ParseInt(parts[4], n + 1, num_nodes - 1, &node.left) ||
            !ParseInt(parts[5], n + 1, num_nodes - 1, &node.right)) {
          return Status::IoError("bad split: " + line);
        }
        node.nan_goes_left = nan_left != 0;
      } else {
        return Status::IoError("bad node line: " + line);
      }
      nodes.push_back(node);
    }
    trees.push_back(DecisionTree::FromNodes(std::move(nodes)));
  }
  if (!reader.Next(&line) || line != "end") {
    return Status::IoError("missing 'end' terminator");
  }
  return RandomForest(std::move(trees));
}

}  // namespace falcon
