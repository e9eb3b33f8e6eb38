#include "core/al_matcher.h"

#include <algorithm>
#include <cmath>

#include "mapreduce/job.h"

namespace falcon {
namespace {

/// Mean of the non-NaN feature values: a crude similarity proxy used to
/// seed the first batch with probable positives (Corleone asks the user for
/// seed pairs; hands-off Falcon bootstraps from the sample itself).
double MeanSim(const FeatureVec& fv) {
  double sum = 0.0;
  size_t n = 0;
  for (double v : fv) {
    if (!std::isnan(v)) {
      // Distances (abs_diff/rel_diff) are unbounded; clamp their influence.
      sum += std::min(v, 1.0);
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / n;
}

/// Top `batch` unlabeled indices by `score` (descending). Deterministic.
std::vector<uint32_t> TopUnlabeled(const std::vector<double>& score,
                                   const std::vector<char>& is_labeled,
                                   size_t batch) {
  std::vector<uint32_t> idx;
  idx.reserve(score.size());
  for (uint32_t i = 0; i < score.size(); ++i) {
    if (!is_labeled[i]) idx.push_back(i);
  }
  size_t take = std::min(batch, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + take, idx.end(),
                    [&](uint32_t l, uint32_t r) {
                      if (score[l] != score[r]) return score[l] > score[r];
                      return l < r;
                    });
  idx.resize(take);
  return idx;
}

double MeasureTrain(RandomForest* forest, const std::vector<FeatureVec>& fvs,
                    const std::vector<uint32_t>& labeled_idx,
                    const std::vector<char>& labels,
                    const ForestOptions& opts, Rng* rng) {
  // Train on the labeled subset: build dense training arrays.
  std::vector<FeatureVec> train_x;
  std::vector<char> train_y;
  train_x.reserve(labeled_idx.size());
  train_y.reserve(labeled_idx.size());
  for (size_t i = 0; i < labeled_idx.size(); ++i) {
    train_x.push_back(fvs[labeled_idx[i]]);
    train_y.push_back(labels[i]);
  }
  return internal::MeasureSeconds([&] {
    *forest = RandomForest::Train(train_x, train_y, opts, rng);
  });
}

}  // namespace

Result<AlMatcherResult> AlMatcher(const std::vector<FeatureVec>& fvs,
                                  const std::vector<PairQuestion>& pairs,
                                  CrowdPlatform* crowd,
                                  const AlMatcherOptions& options,
                                  Cluster* cluster, Rng* rng) {
  if (fvs.size() != pairs.size()) {
    return Status::InvalidArgument("al_matcher: fvs/pairs size mismatch");
  }
  if (fvs.empty()) {
    return Status::InvalidArgument("al_matcher: empty input");
  }
  AlMatcherResult result;
  std::vector<char> is_labeled(fvs.size(), 0);
  const size_t batch =
      std::max<size_t>(1, static_cast<size_t>(options.pairs_per_iteration));

  auto label_batch = [&](const std::vector<uint32_t>& selected)
      -> Result<VDuration> {
    std::vector<PairQuestion> qs;
    qs.reserve(selected.size());
    for (uint32_t i : selected) qs.push_back(pairs[i]);
    auto labeled = crowd->LabelPairs(qs, VoteScheme::kMajority3);
    if (!labeled.ok()) {
      if (labeled.status().code() == StatusCode::kBudgetExhausted) {
        // C_max: the cap rejected the whole batch; keep the labels already
        // paid for and end the loop cleanly.
        result.budget_exhausted = true;
        return VDuration::Zero();
      }
      return labeled.status();
    }
    const LabelResult& lr = *labeled;
    for (size_t j = 0; j < selected.size(); ++j) {
      // A truncated batch's unanswered questions were never paid for; they
      // stay unlabeled (and eligible for future selection).
      if (!lr.Answered(j)) continue;
      result.labeled_indices.push_back(selected[j]);
      result.labels.push_back(lr.labels[j] ? 1 : 0);
      is_labeled[selected[j]] = 1;
    }
    if (lr.truncated) result.budget_exhausted = true;
    result.questions += lr.num_questions;
    result.cost += lr.cost;
    result.crowd_time += lr.latency;
    return lr.latency;
  };

  // Selection scoring runs as a cluster job: score every vector.
  auto score_all = [&](const std::function<double(const FeatureVec&)>& f)
      -> std::pair<std::vector<double>, VDuration> {
    std::vector<double> score(fvs.size());
    std::vector<size_t> idx(fvs.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    auto job = RunMapOnly<size_t, int>(
        cluster, idx, {.name = "al-pair-selection"},
        [&](const size_t& i, TaskVector<int>*) { score[i] = f(fvs[i]); });
    return {std::move(score), job.stats.Total()};
  };

  // --- seed iteration: half probable positives, half random ----------------
  {
    auto [sim, sel_time] = score_all(MeanSim);
    result.selection_time += sel_time;
    result.selection_unmasked += sel_time;  // nothing to mask behind yet
    auto top = TopUnlabeled(sim, is_labeled, batch / 2);
    std::vector<uint32_t> seed = top;
    size_t guard = 0;
    while (seed.size() < batch && guard < batch * 50) {
      uint32_t i = static_cast<uint32_t>(rng->NextBelow(fvs.size()));
      ++guard;
      if (is_labeled[i]) continue;
      if (std::find(seed.begin(), seed.end(), i) != seed.end()) continue;
      seed.push_back(i);
    }
    FALCON_ASSIGN_OR_RETURN(VDuration unused, label_batch(seed));
    (void)unused;
    result.iterations = 1;
  }
  if (result.labeled_indices.empty()) {
    // Nothing to train on. When the cap fired before the seed batch bought
    // a single label, surface the exhaustion as a clean status.
    return result.budget_exhausted
               ? Status::BudgetExhausted(
                     "crowd budget exhausted before al_matcher obtained "
                     "any label")
               : Status::Internal("al_matcher: seed batch yielded no labels");
  }

  // --- active-learning iterations -------------------------------------------
  Rng train_rng = rng->Fork();
  result.training_time += VDuration::Seconds(
      MeasureTrain(&result.matcher, fvs, result.labeled_indices,
                   result.labels, options.forest, &train_rng));

  int calm_iterations = 0;
  // With masking on, `pending` holds the batch selected during the previous
  // crowd window, not yet labeled.
  std::vector<uint32_t> pending;

  auto select_batch = [&](size_t count) {
    auto [dis, sel_time] = score_all([&](const FeatureVec& fv) {
      return result.matcher.Disagreement(fv);
    });
    double batch_mean = 0.0;
    auto selected = TopUnlabeled(dis, is_labeled, count);
    for (uint32_t i : selected) batch_mean += dis[i];
    if (!selected.empty()) batch_mean /= selected.size();
    if (batch_mean <= 1e-12) {
      // Constant committee (e.g. all labels negative so far): fall back to
      // similarity-guided exploration so positives can be found.
      auto [sim, sim_time] = score_all(MeanSim);
      sel_time += sim_time;
      selected = TopUnlabeled(sim, is_labeled, count);
    }
    return std::make_tuple(selected, sel_time, batch_mean);
  };

  if (result.budget_exhausted) {
    // The cap fired during the seed batch: train on what was paid for and
    // skip active learning entirely.
  } else if (options.mask_pair_selection) {
    // First post-seed selection picks a double batch; the extra half is sent
    // first and the other half becomes pending.
    auto [sel, sel_time, mean_dis] = select_batch(batch * 2);
    result.selection_time += sel_time;
    result.selection_unmasked += sel_time;  // the one unmaskable selection
    std::vector<uint32_t> to_send(sel.begin(),
                                  sel.begin() + std::min(batch, sel.size()));
    pending.assign(sel.begin() + to_send.size(), sel.end());
    (void)mean_dis;

    while (result.iterations < options.max_iterations && !to_send.empty()) {
      FALCON_ASSIGN_OR_RETURN(VDuration window, label_batch(to_send));
      ++result.iterations;
      if (result.budget_exhausted) break;  // C_max: stop asking, keep labels
      // During the crowd window: retrain on labels received so far and
      // select the NEXT batch (masked up to the window length).
      result.training_time += VDuration::Seconds(
          MeasureTrain(&result.matcher, fvs, result.labeled_indices,
                       result.labels, options.forest, &train_rng));
      auto [next_sel, next_time, next_mean] = select_batch(batch);
      result.selection_time += next_time;
      if (next_time > window) {
        result.selection_unmasked += next_time - window;
      }
      to_send = pending;
      pending = next_sel;
      if (next_mean < options.convergence_threshold) {
        ++calm_iterations;
        if (calm_iterations >= options.convergence_patience) {
          result.converged = true;
          break;
        }
      } else {
        calm_iterations = 0;
      }
    }
  } else {
    while (result.iterations < options.max_iterations) {
      auto [sel, sel_time, mean_dis] = select_batch(batch);
      result.selection_time += sel_time;
      result.selection_unmasked += sel_time;
      if (sel.empty()) break;
      if (mean_dis < options.convergence_threshold &&
          result.iterations > 1) {
        ++calm_iterations;
        if (calm_iterations >= options.convergence_patience) {
          result.converged = true;
          break;
        }
      } else {
        calm_iterations = 0;
      }
      FALCON_ASSIGN_OR_RETURN(VDuration unused, label_batch(sel));
      (void)unused;
      ++result.iterations;
      if (result.budget_exhausted) break;  // C_max: stop asking, keep labels
      result.training_time += VDuration::Seconds(
          MeasureTrain(&result.matcher, fvs, result.labeled_indices,
                       result.labels, options.forest, &train_rng));
    }
  }

  // Final model reflects every label received.
  result.training_time += VDuration::Seconds(
      MeasureTrain(&result.matcher, fvs, result.labeled_indices,
                   result.labels, options.forest, &train_rng));
  return result;
}

}  // namespace falcon
