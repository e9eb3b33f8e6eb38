// Composing Falcon's operators by hand (the RDBMS-style API of Section 4).
//
// The FalconPipeline executes the two built-in plan templates, but every
// operator is a public, separately usable building block. This example
// wires the Blocker stage manually — sample_pairs -> gen_fvs -> al_matcher
// -> get_blocking_rules -> eval_rules -> select_opt_seq ->
// apply_blocking_rules — choosing the physical operator for the last step
// explicitly and printing what the optimizer would have chosen.
//
//   ./build/examples/custom_plan
#include <cstdio>

#include "blocking/apply.h"
#include "blocking/index_builder.h"
#include "core/al_matcher.h"
#include "core/eval_rules.h"
#include "core/gen_fvs.h"
#include "core/get_rules.h"
#include "core/sample_pairs.h"
#include "core/select_opt_seq.h"
#include "workload/generator.h"
#include "workload/quality.h"

using namespace falcon;

int main() {
  WorkloadOptions data_opts;
  data_opts.size_a = 500;
  data_opts.size_b = 1500;
  data_opts.seed = 31;
  GeneratedDataset data = GenerateSongs(data_opts);
  Cluster cluster{ClusterConfig{}};
  SimulatedCrowdConfig crowd_cfg;
  crowd_cfg.error_rate = 0.05;
  SimulatedCrowd crowd(crowd_cfg, data.truth.MakeOracle());
  Rng rng(1);

  // Feature generation is automatic (Figure 5 of the paper).
  FeatureSet fs = FeatureSet::Generate(data.a, data.b);
  std::printf("generated %zu features (%zu usable for blocking)\n",
              fs.size(), fs.blocking_ids().size());

  // sample_pairs: a learnable sample S of A x B.
  auto sample = SamplePairs(data.a, data.b, /*n=*/8000, /*y=*/50, &cluster,
                            &rng);
  if (!sample.ok()) return 1;
  std::printf("sampled |S| = %zu pairs in %s\n", sample->pairs.size(),
              sample->time.ToString().c_str());

  // gen_fvs over the blocking features.
  auto fvs = GenFvs(data.a, data.b, sample->pairs, fs, fs.blocking_ids(),
                    &cluster);

  // al_matcher: crowdsourced active learning of the blocker model M.
  AlMatcherOptions al_opts;
  al_opts.max_iterations = 15;
  auto blocker = AlMatcher(fvs.fvs, sample->pairs, &crowd, al_opts,
                           &cluster, &rng);
  if (!blocker.ok()) return 1;
  std::printf("al_matcher: %d iterations, %zu labels, converged: %s\n",
              blocker->iterations, blocker->labels.size(),
              blocker->converged ? "yes" : "no");

  // get_blocking_rules: negative tree paths become candidate rules.
  auto candidates = GetBlockingRules(blocker->matcher, fs.blocking_ids(),
                                     fs, fvs.fvs, blocker->labeled_indices,
                                     blocker->labels, GetRulesOptions{},
                                     &cluster);
  std::printf("extracted %zu candidate blocking rules\n",
              candidates.rules.size());

  // eval_rules: the crowd estimates each rule's precision.
  auto evaluated = EvalRules(candidates.rules, candidates.coverage,
                             sample->pairs, &crowd, EvalRulesOptions{},
                             &rng);
  if (!evaluated.ok() || evaluated->retained.empty()) {
    std::fprintf(stderr, "no precise rules retained\n");
    return 1;
  }
  std::printf("eval_rules retained %zu rules (>= 95%% precision)\n",
              evaluated->retained.size());

  // select_opt_seq: greedy 4-approximation over bitmap coverages.
  auto selected = SelectOptSeq(evaluated->retained,
                               evaluated->retained_coverage,
                               sample->pairs.size(), SelectSeqOptions{});
  if (!selected.ok()) return 1;
  std::printf("optimal sequence: %zu rules, est. selectivity %.3f, took %s\n",
              selected->sequence.rules.size(), selected->selectivity,
              selected->time.ToString().c_str());

  // Build indexes, then run apply_blocking_rules with an explicit operator.
  IndexCatalog catalog;
  IndexBuilder builder(&data.a, &cluster);
  CnfRule q = ToCnf(selected->sequence);
  VDuration build_time = builder.EnsureTokenStores(data.b, fs, &catalog);
  build_time += builder.Ensure(IndexBuilder::NeedsOfCnf(q, fs), &catalog);
  std::printf("index build: %s, %zu bytes resident\n",
              build_time.ToString().c_str(), catalog.TotalMemoryUsage());

  ApplyMethod advised = SelectApplyMethod(data.a, data.b,
                                          selected->sequence, fs, catalog,
                                          cluster);
  std::printf("optimizer advises: %s\n", ApplyMethodName(advised));
  for (ApplyMethod m : {advised, ApplyMethod::kApplyGreedy}) {
    auto applied = ApplyBlockingRules(data.a, data.b, selected->sequence,
                                      fs, catalog, &cluster, m);
    if (!applied.ok()) {
      std::printf("  %-16s -> %s\n", ApplyMethodName(m),
                  applied.status().ToString().c_str());
      continue;
    }
    std::printf("  %-16s -> %zu candidates, recall %.1f%%, virtual time %s\n",
                ApplyMethodName(m), applied->pairs.size(),
                BlockingRecall(applied->pairs, data.truth) * 100,
                applied->time.ToString().c_str());
  }
  return 0;
}
