#include "core/eval_rules.h"

#include <algorithm>
#include <cmath>

namespace falcon {

double ZValue(double delta) {
  // Inverse normal CDF at (1+delta)/2 via Acklam's rational approximation —
  // accurate to ~1e-9 over the range used here.
  double p = (1.0 + delta) / 2.0;
  if (p <= 0.0 || p >= 1.0) return 1.959963985;
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - plow) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
            1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

Result<EvalRulesResult> EvalRules(const std::vector<Rule>& rules,
                                  const std::vector<Bitmap>& coverage,
                                  const std::vector<PairQuestion>& sample_pairs,
                                  CrowdPlatform* crowd,
                                  const EvalRulesOptions& options, Rng* rng) {
  if (rules.size() != coverage.size()) {
    return Status::InvalidArgument("eval_rules: rules/coverage mismatch");
  }
  EvalRulesResult result;
  const double z = ZValue(options.delta);

  for (size_t ri = 0; ri < rules.size(); ++ri) {
    // C_max: once the cap fires no further rule can buy labels; dropping the
    // remaining candidates is the conservative (recall-preserving) choice.
    if (result.budget_exhausted) break;
    // Pool: indices of sample pairs the rule drops.
    std::vector<uint32_t> pool;
    pool.reserve(rules[ri].coverage);
    for (uint32_t i = 0; i < sample_pairs.size(); ++i) {
      if (coverage[ri].Get(i)) pool.push_back(i);
    }
    const double m = static_cast<double>(pool.size());
    if (pool.empty()) continue;  // nothing to evaluate; rule never fires on S
    rng->Shuffle(&pool);

    size_t n = 0;
    size_t n_neg = 0;
    size_t cursor = 0;
    bool retained = false;
    bool decided = false;
    double precision = 0.0;
    for (int iter = 0; iter < options.max_iterations_per_rule && !decided &&
                       !result.budget_exhausted;
         ++iter) {
      size_t take = std::min<size_t>(
          static_cast<size_t>(options.pairs_per_iteration),
          pool.size() - cursor);
      if (take == 0) break;
      std::vector<PairQuestion> qs;
      qs.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        qs.push_back(sample_pairs[pool[cursor + i]]);
      }
      cursor += take;
      auto labeled = crowd->LabelPairs(qs, VoteScheme::kStrongMajority7);
      if (!labeled.ok()) {
        if (labeled.status().code() == StatusCode::kBudgetExhausted) {
          // Whole batch rejected by the cap; decide the rule on the labels
          // already paid for and stop asking.
          result.budget_exhausted = true;
          break;
        }
        return labeled.status();
      }
      const LabelResult& lr = *labeled;
      result.questions += lr.num_questions;
      result.cost += lr.cost;
      result.crowd_time += lr.latency;
      // A truncated batch's unanswered questions were never paid for; only
      // answered questions enter the estimate.
      size_t answered = 0;
      for (size_t i = 0; i < lr.labels.size(); ++i) {
        if (!lr.Answered(i)) continue;
        ++answered;
        n_neg += lr.labels[i] ? 0 : 1;
      }
      n += answered;
      if (lr.truncated) result.budget_exhausted = true;
      if (n == 0) {
        if (result.budget_exhausted) break;
        continue;  // no usable label yet; draw the next batch
      }

      precision = static_cast<double>(n_neg) / static_cast<double>(n);
      double fpc = m <= 1.0 ? 0.0 : (m - n) / (m - 1.0);
      double eps = z * std::sqrt(precision * (1.0 - precision) /
                                     static_cast<double>(n) * fpc);
      if (precision >= options.precision_min && eps <= options.epsilon_max) {
        retained = true;
        decided = true;
      } else if ((precision + eps) < options.precision_min ||
                 (eps <= options.epsilon_max &&
                  precision < options.precision_min)) {
        retained = false;
        decided = true;
      }
    }
    if (!decided) {
      // Iteration cap hit: decide on the point estimate.
      retained = precision >= options.precision_min;
    }
    if (retained) {
      Rule r = rules[ri];
      r.precision = precision;
      result.retained.push_back(std::move(r));
      result.retained_coverage.push_back(coverage[ri]);
    }
  }
  return result;
}

}  // namespace falcon
