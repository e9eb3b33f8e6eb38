#include "core/get_rules.h"

#include <algorithm>

#include "blocking/filters.h"
#include "mapreduce/job.h"

namespace falcon {
namespace {

/// Per-predicate per-pair seconds of the deterministic time proxy (the order
/// of magnitude of a measured predicate evaluation).
constexpr double kDeterministicSecondsPerPredicate = 2.5e-7;

/// True if every keep-complement of the rule's predicates admits an index
/// filter (so the rule's CNF clause can prune candidates).
bool IsFilterable(const Rule& rule, const FeatureSet& fs) {
  for (const auto& p : rule.predicates) {
    Predicate keep = p;
    keep.op = Complement(p.op);
    if (ClassifyPredicate(keep, fs).kind == IndexKind::kNone) return false;
  }
  return !rule.predicates.empty();
}

}  // namespace

RuleCandidates GetBlockingRules(const RandomForest& forest,
                                const std::vector<int>& feature_ids,
                                const FeatureSet& fs,
                                const std::vector<FeatureVec>& sample_fvs,
                                const std::vector<uint32_t>& labeled_indices,
                                const std::vector<char>& labels,
                                const GetRulesOptions& options,
                                Cluster* cluster) {
  RuleCandidates out;
  std::vector<Rule> extracted = ExtractBlockingRules(forest, feature_ids);
  if (extracted.empty() || sample_fvs.empty()) return out;

  // Compute coverage bitmaps + per-pair evaluation time, one cluster job per
  // rule (per-rule timing feeds select_opt_seq's cost model).
  struct Scored {
    Rule rule;
    Bitmap cov;
    size_t pos_dropped = 0;
    bool filterable = false;
  };
  std::vector<Scored> scored;
  scored.reserve(extracted.size());
  std::vector<size_t> idx(sample_fvs.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  for (auto& rule : extracted) {
    Scored s;
    s.cov = Bitmap(sample_fvs.size());
    // Map tasks emit fired indices into the (per-split, later concatenated)
    // job output; the bitmap is set afterwards on one thread. Setting bits
    // from map_fn would race: distinct indices can share a bitmap word.
    auto job = RunMapOnly<size_t, int>(
        cluster, idx, {.name = "rule-coverage"},
        [&](const size_t& i, TaskVector<int>* fired) {
          if (rule.Fires(sample_fvs[i])) fired->push_back(static_cast<int>(i));
        });
    for (int i : job.output) s.cov.Set(static_cast<size_t>(i));
    out.time += job.stats.Total();
    rule.coverage = s.cov.Count();
    rule.selectivity =
        1.0 - static_cast<double>(rule.coverage) / sample_fvs.size();
    // Per-pair time: job map-time over sample size, in per-pair seconds on
    // one core. With deterministic_time, a predicate-count proxy replaces
    // the measurement so the downstream sequence choice is reproducible.
    if (options.deterministic_time) {
      rule.time_per_pair =
          kDeterministicSecondsPerPredicate *
          static_cast<double>(std::max<size_t>(rule.predicates.size(), 1));
    } else {
      double measured =
          job.stats.map_time.seconds * cluster->total_map_slots();
      rule.time_per_pair = measured / static_cast<double>(sample_fvs.size());
    }
    // Known positives this rule would drop.
    for (size_t j = 0; j < labeled_indices.size(); ++j) {
      if (labels[j] && s.cov.Get(labeled_indices[j])) ++s.pos_dropped;
    }
    s.rule = rule;
    s.filterable = IsFilterable(rule, fs);
    scored.push_back(std::move(s));
  }

  // Filter on coverage, then rank: filterable rules first, fewest dropped
  // positives next, larger coverage next (a rule that prunes more of A x B
  // is more valuable).
  size_t min_cov = static_cast<size_t>(options.min_coverage_fraction *
                                       static_cast<double>(sample_fvs.size()));
  std::vector<size_t> order;
  for (size_t i = 0; i < scored.size(); ++i) {
    if (scored[i].rule.coverage >= min_cov) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t l, size_t r) {
    if (scored[l].filterable != scored[r].filterable) {
      return scored[l].filterable;
    }
    if (scored[l].pos_dropped != scored[r].pos_dropped) {
      return scored[l].pos_dropped < scored[r].pos_dropped;
    }
    if (scored[l].rule.coverage != scored[r].rule.coverage) {
      return scored[l].rule.coverage > scored[r].rule.coverage;
    }
    return l < r;
  });
  size_t take = std::min<size_t>(order.size(),
                                 static_cast<size_t>(options.max_rules));
  for (size_t i = 0; i < take; ++i) {
    out.rules.push_back(std::move(scored[order[i]].rule));
    out.coverage.push_back(std::move(scored[order[i]].cov));
  }
  return out;
}

}  // namespace falcon
