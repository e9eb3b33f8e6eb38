#include "core/pipeline.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/al_matcher.h"
#include "core/apply_matcher.h"
#include "core/eval_rules.h"
#include "core/gen_fvs.h"
#include "core/get_rules.h"
#include "core/sample_pairs.h"
#include "core/select_opt_seq.h"
#include "mapreduce/job.h"

namespace falcon {
namespace {

/// Folds the allocation counters of an instrumented stage's job (gen_fvs,
/// apply_block_rules, apply_matcher) into the run metrics.
void RecordAllocs(const CounterSet& c, RunMetrics* m) {
  m->alloc_count += c[Counter::kAllocCount];
  m->alloc_bytes += c[Counter::kAllocBytes];
}

/// Folds an apply_block_rules job's counters into the run metrics: its
/// allocations and its intersection-kernel activity.
void RecordBlockingJob(const JobStats& stats, RunMetrics* m) {
  const CounterSet& c = stats.counters;
  RecordAllocs(c, m);
  m->intersect_scalar += c[Counter::kIntersectScalar];
  m->intersect_small += c[Counter::kIntersectSmall];
  m->intersect_gallop += c[Counter::kIntersectGallop];
  m->intersect_simd += c[Counter::kIntersectSimd];
  m->intersect_early_exit += c[Counter::kIntersectEarlyExit];
  m->intersect_contains += c[Counter::kIntersectContains];
}

/// Folds the fused apply_matcher job's counters into the run metrics.
void RecordMatcherWork(const ApplyMatcherFusedResult& fused, RunMetrics* m) {
  const CounterSet& c = fused.counters;
  const size_t n = fused.predictions.size();
  double pairs = static_cast<double>(n);
  m->matcher_features_per_pair =
      n == 0 ? 0.0
             : static_cast<double>(c[Counter::kFeaturesComputed]) / pairs;
  m->matcher_trees_per_pair =
      n == 0 ? 0.0 : static_cast<double>(c[Counter::kTreesVoted]) / pairs;
  RecordAllocs(c, m);
}

struct FilterOut {
  std::vector<CandidatePair> pairs;
  VDuration time;
  JobStats stats;
};

/// Map-only job applying a rule sequence to an explicit pair list (the
/// "apply remaining rules to the smallest output" step of Algorithm 2).
FilterOut FilterPairs(const std::vector<CandidatePair>& pairs,
                      const RuleSequence& seq, const FeatureSet& fs,
                      const Table& a, const Table& b, Cluster* cluster,
                      const char* name) {
  FilterOut out;
  if (seq.rules.empty()) {
    out.pairs = pairs;
    return out;
  }
  RuleApplier applier(seq, &fs, &a, &b);
  auto job = RunMapOnly<CandidatePair, CandidatePair>(
      cluster, pairs, {.name = name},
      [&](const CandidatePair& p, TaskVector<CandidatePair>* o) {
        if (applier.Keep(p.first, p.second)) o->push_back(p);
      });
  out.pairs = std::move(job.output);
  out.time = job.stats.Total();
  out.stats = std::move(job.stats);
  return out;
}

/// select_opt_seq (Section 6) over eval_rules' survivors. It reads nothing
/// speculation produces, so eval_rules can call it before speculating.
Result<SelectSeqResult> SelectSequence(const PipelineState& state,
                                       const FalconConfig& config) {
  SelectSeqOptions ss_opts;
  ss_opts.gamma = config.score_gamma;
  ss_opts.max_rules_exhaustive = config.max_rules_exhaustive;
  return SelectOptSeq(state.retained_rules, state.retained_coverage,
                      state.sample.size(), ss_opts);
}

}  // namespace

const char* PipelineStageName(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kInit: return "init";
    case PipelineStage::kSamplePairs: return "sample_pairs";
    case PipelineStage::kGenFvsSample: return "gen_fvs(S)";
    case PipelineStage::kBlockerAl: return "al_matcher(blocker)";
    case PipelineStage::kGetRules: return "get_block_rules";
    case PipelineStage::kEvalRules: return "eval_rules";
    case PipelineStage::kSelectSeq: return "sel_opt_seq";
    case PipelineStage::kApplyRules: return "apply_block_rules";
    case PipelineStage::kGenFvsCand: return "gen_fvs(C)";
    case PipelineStage::kMatcherAl: return "al_matcher(matcher)";
    case PipelineStage::kApplyMatcher: return "apply_matcher";
    case PipelineStage::kEstimateAccuracy: return "estimate_accuracy";
    case PipelineStage::kDone: return "done";
  }
  return "unknown";
}

FalconPipeline::FalconPipeline(const Table* a, const Table* b,
                               CrowdPlatform* crowd, Cluster* cluster,
                               FalconConfig config)
    : a_(a), b_(b), crowd_(crowd), cluster_(cluster),
      config_(std::move(config)), builder_(a, cluster) {
  features_ = FeatureSet::Generate(*a_, *b_);
  // Bound once, for the pipeline's lifetime: the stores start empty and each
  // view becomes visible to feature computation as soon as it is built.
  features_.BindTokenStores(catalog_.mutable_store(a_),
                            catalog_.mutable_store(b_));
}

bool FalconPipeline::NeedsBlocking() const {
  // Estimated bytes of A x B encoded as feature vectors (Section 10.1).
  double est = static_cast<double>(a_->num_rows()) *
               static_cast<double>(b_->num_rows()) *
               static_cast<double>(features_.all_ids().size()) *
               sizeof(double);
  return est > static_cast<double>(config_.matcher_only_max_bytes);
}

Result<MatchResult> FalconPipeline::Run() {
  FALCON_RETURN_NOT_OK(Start());
  while (!done()) FALCON_RETURN_NOT_OK(Step());
  return TakeResult();
}

Status FalconPipeline::Start() {
  if (started()) return Status::OK();
  if (a_->num_rows() == 0 || b_->num_rows() == 0) {
    return Status::InvalidArgument("empty input table");
  }
  if (features_.size() == 0) {
    return Status::InvalidArgument(
        "no features generated: schemas share no compatible attributes");
  }
  state_.rng.Seed(config_.seed);
  if (NeedsBlocking()) {
    state_.out.metrics.used_blocking = true;
    state_.next = PipelineStage::kSamplePairs;
  } else {
    state_.out.metrics.used_blocking = false;
    state_.next = PipelineStage::kGenFvsCand;
  }
  return Status::OK();
}

Status FalconPipeline::Step() {
  if (!started()) {
    return Status::Internal("Step() before Start()");
  }
  Status st;
  switch (state_.next) {
    case PipelineStage::kSamplePairs: st = StageSamplePairs(); break;
    case PipelineStage::kGenFvsSample: st = StageGenFvsSample(); break;
    case PipelineStage::kBlockerAl: st = StageBlockerAl(); break;
    case PipelineStage::kGetRules: st = StageGetRules(); break;
    case PipelineStage::kEvalRules: st = StageEvalRules(); break;
    case PipelineStage::kSelectSeq: st = StageSelectSeq(); break;
    case PipelineStage::kApplyRules: st = StageApplyRules(); break;
    case PipelineStage::kGenFvsCand: st = StageGenFvsCand(); break;
    case PipelineStage::kMatcherAl: st = StageMatcherAl(); break;
    case PipelineStage::kApplyMatcher: st = StageApplyMatcher(); break;
    case PipelineStage::kEstimateAccuracy: st = StageEstimateAccuracy(); break;
    case PipelineStage::kInit:
    case PipelineStage::kDone:
      return Status::Internal("Step() with no stage to run");
  }
  RefreshTotalTime();
  return st;
}

Result<MatchResult> FalconPipeline::TakeResult() {
  if (!done()) return Status::Internal("TakeResult() before the run finished");
  return std::move(state_.out);
}

VDuration FalconPipeline::PrepareFeatures(const std::vector<int>& ids) {
  return VDuration::Seconds(
      internal::MeasureSeconds([&] { features_.Prepare(ids, *a_, *b_); }));
}

void FalconPipeline::AddMachine(const std::string& name, VDuration raw,
                                VDuration unmasked) {
  RunMetrics& m = state_.out.metrics;
  m.machine_time += raw;
  m.machine_unmasked += unmasked;
  m.operators.push_back({name, raw, unmasked, false});
}

VDuration FalconPipeline::MaskRun(VDuration d) {
  if (!config_.enable_masking) return d;
  VDuration used = Min(d, state_.bank_credit);
  state_.bank_credit -= used;
  return d - used;
}

void FalconPipeline::RefreshTotalTime() {
  RunMetrics& m = state_.out.metrics;
  m.total_time = m.crowd_time + m.machine_unmasked;
}

// --- (1) sample_pairs -------------------------------------------------------
Status FalconPipeline::StageSamplePairs() {
  FALCON_ASSIGN_OR_RETURN(
      SampleResult sample,
      SamplePairs(*a_, *b_, config_.sample_size, config_.sample_y, cluster_,
                  &state_.rng, config_.sample_strategy));
  state_.sample = std::move(sample.pairs);
  AddMachine("sample_pairs", sample.time, sample.time);
  state_.next = PipelineStage::kGenFvsSample;
  return Status::OK();
}

// --- rebuildable work, shared by the stages and Rehydrate -------------------
VDuration FalconPipeline::GenSampleFvs(const char* name) {
  VDuration prep = PrepareFeatures(features_.blocking_ids());
  GenFvsResult sfvs = GenFvs(*a_, *b_, state_.sample, features_,
                             features_.blocking_ids(), cluster_, name);
  state_.sample_fvs = std::move(sfvs.fvs);
  RecordAllocs(sfvs.counters, &state_.out.metrics);
  return prep + sfvs.time;
}

VDuration FalconPipeline::GenCandidateFvs(const char* name) {
  VDuration prep = PrepareFeatures(features_.all_ids());
  GenFvsResult cfvs = GenFvs(*a_, *b_, state_.out.candidates, features_,
                             features_.all_ids(), cluster_, name);
  state_.cand_fvs = std::move(cfvs.fvs);
  RecordAllocs(cfvs.counters, &state_.out.metrics);
  return prep + cfvs.time;
}

VDuration FalconPipeline::BuildGenericIndexes() {
  // Token stores come first: gen_fvs(S) already built the views its set
  // features read, so this interns only the remaining q-gram views the
  // Levenshtein filters probe.
  VDuration dur = builder_.EnsureTokenStores(*b_, features_, &catalog_);
  return dur + builder_.Ensure(IndexBuilder::GenericNeeds(features_),
                               &catalog_);
}

VDuration FalconPipeline::BuildCandidateRuleIndexes() {
  std::vector<IndexNeed> all_needs;
  for (const auto& r : state_.candidate_rules) {
    auto needs = IndexBuilder::NeedsOfRule(r, features_);
    all_needs.insert(all_needs.end(), needs.begin(), needs.end());
  }
  return builder_.Ensure(all_needs, &catalog_);
}

VDuration FalconPipeline::BuildSequenceIndexes() {
  CnfRule q = ToCnf(SimplifySequence(state_.out.sequence));
  VDuration dur = builder_.EnsureTokenStores(*b_, features_, &catalog_);
  return dur + builder_.Ensure(IndexBuilder::NeedsOfCnf(q, features_),
                               &catalog_);
}

// --- (2) gen_fvs over S (blocking features) ---------------------------------
Status FalconPipeline::StageGenFvsSample() {
  VDuration time = GenSampleFvs("gen_fvs(S)");
  AddMachine("gen_fvs", time, time);
  state_.next = PipelineStage::kBlockerAl;
  return Status::OK();
}

// --- (3) al_matcher: learn blocker model M ----------------------------------
Status FalconPipeline::StageBlockerAl() {
  RunMetrics& m = state_.out.metrics;
  // Pair selection over S stays unmasked: S is small (Sec 10.2).
  AlMatcherOptions al_opts;
  al_opts.max_iterations = config_.al_max_iterations;
  FALCON_ASSIGN_OR_RETURN(
      AlMatcherResult blocker,
      AlMatcher(state_.sample_fvs, state_.sample, crowd_, al_opts, cluster_,
                &state_.rng));
  m.crowd_time += blocker.crowd_time;
  m.questions += blocker.questions;
  m.cost += blocker.cost;
  state_.bank_credit += blocker.crowd_time;
  {
    VDuration mach = blocker.selection_time + blocker.training_time;
    VDuration unmask = blocker.selection_unmasked + blocker.training_time;
    m.machine_time += mach;
    m.machine_unmasked += unmask;
    m.operators.push_back(
        {"al_matcher(blocker)", blocker.crowd_time + mach, unmask, true});
  }
  if (blocker.budget_exhausted) m.budget_exhausted = true;
  state_.blocker = std::move(blocker.matcher);
  state_.blocker_labeled_indices = std::move(blocker.labeled_indices);
  state_.blocker_labels = std::move(blocker.labels);

  // O1a: while the blocker crowdsources, build rule-independent indexes.
  if (config_.enable_masking && config_.mask_index_building) {
    VDuration dur = BuildGenericIndexes();
    VDuration unmasked = MaskRun(dur);
    AddMachine("index_build(generic,masked)", dur, unmasked);
  }
  state_.next = PipelineStage::kGetRules;
  return Status::OK();
}

// --- (4) get_blocking_rules -------------------------------------------------
Status FalconPipeline::StageGetRules() {
  RunMetrics& m = state_.out.metrics;
  // Rule predicates index into the blocking feature vector; map positions to
  // global ids.
  GetRulesOptions gr_opts;
  gr_opts.max_rules = config_.max_rules_to_eval;
  gr_opts.deterministic_time = config_.deterministic_rule_cost;
  RuleCandidates candidates = GetBlockingRules(
      state_.blocker, features_.blocking_ids(), features_, state_.sample_fvs,
      state_.blocker_labeled_indices, state_.blocker_labels, gr_opts,
      cluster_);
  m.num_candidate_rules = candidates.rules.size();
  AddMachine("get_block_rules", candidates.time, candidates.time);
  if (candidates.rules.empty()) {
    return Status::Internal(
        "blocker learned no usable blocking rules; consider the matcher-only "
        "plan (tables may be too clean or the sample too small)");
  }
  state_.candidate_rules = std::move(candidates.rules);
  state_.candidate_coverage = std::move(candidates.coverage);
  state_.next = PipelineStage::kEvalRules;
  return Status::OK();
}

// --- (5) eval_rules ---------------------------------------------------------
Status FalconPipeline::StageEvalRules() {
  RunMetrics& m = state_.out.metrics;
  FALCON_ASSIGN_OR_RETURN(
      EvalRulesResult evaluated,
      EvalRules(state_.candidate_rules, state_.candidate_coverage,
                state_.sample, crowd_, EvalRulesOptions{}, &state_.rng));
  m.crowd_time += evaluated.crowd_time;
  m.questions += evaluated.questions;
  m.cost += evaluated.cost;
  m.num_retained_rules = evaluated.retained.size();
  state_.bank_credit += evaluated.crowd_time;
  m.operators.push_back(
      {"eval_rules", evaluated.crowd_time, VDuration::Zero(), true});
  if (evaluated.budget_exhausted) m.budget_exhausted = true;
  if (evaluated.retained.empty()) {
    if (evaluated.budget_exhausted) {
      return Status::BudgetExhausted(
          "crowd budget exhausted before eval_rules retained any blocking "
          "rule");
    }
    return Status::Internal(
        "eval_rules retained no blocking rule with sufficient precision");
  }
  state_.retained_rules = std::move(evaluated.retained);
  state_.retained_coverage = std::move(evaluated.retained_coverage);

  // O1b: while eval_rules crowdsources, build the indexes of ALL candidate
  // rules (some may go unused — that is the nature of masking).
  if (config_.enable_masking && config_.mask_index_building) {
    VDuration dur = BuildCandidateRuleIndexes();
    VDuration unmasked = MaskRun(dur);
    AddMachine("index_build(rules,masked)", dur, unmasked);
  }

  // O2a: speculatively execute candidate rules inside the remaining mask
  // window, most promising first (the eval_rules crowdsourcing order).
  // Speculation state is transient: a resumed run simply re-applies the
  // selected sequence fresh, and the candidate SET is path-independent.
  if (config_.enable_masking && config_.mask_speculative_execution) {
    // Algorithm 2 reads only outputs of rules in the sequence sel_opt_seq
    // selects, and that sequence depends only on the retained rules and
    // their coverage, so it is known now. Every other job keeps its key,
    // flag and times but not its pairs.
    std::unordered_set<std::string> readable;
    if (auto planned = SelectSequence(state_, config_); planned.ok()) {
      for (const auto& rule : planned->sequence.rules) {
        readable.insert(CanonicalKey(rule));
      }
    }
    for (const auto& rule : state_.candidate_rules) {
      if (state_.bank_credit.seconds <= 0.0) break;  // job would never start
      RuleSequence single;
      single.rules.push_back(rule);
      single.selectivity = rule.selectivity;
      // Token stores and indexes for this rule (already present if O1 ran;
      // otherwise their build is part of the speculative work, the stores'
      // on the first rule only).
      VDuration idx_dur = builder_.EnsureTokenStores(*b_, features_, &catalog_);
      idx_dur += builder_.Ensure(IndexBuilder::NeedsOfRule(rule, features_),
                                 &catalog_);
      if (idx_dur.seconds > 0.0) {
        VDuration unmasked = MaskRun(idx_dur);
        AddMachine("index_build(spec)", idx_dur, unmasked);
        if (state_.bank_credit.seconds <= 0.0 && unmasked.seconds > 0.0) break;
      }
      auto res = ApplyBlockingRules(
          *a_, *b_, single, features_, catalog_, cluster_,
          SelectApplyMethod(*a_, *b_, single, features_, catalog_, *cluster_));
      if (!res.ok()) break;  // speculation is optional work; stop it
      SpecJob job;
      job.key = CanonicalKey(rule);
      job.result = std::move(res).value();
      m.machine_time += job.result.time;
      VDuration leftover = MaskRun(job.result.time);
      job.completed = leftover.seconds <= 0.0;
      job.remaining = leftover;
      if (!readable.contains(job.key)) {
        job.result.pairs = std::vector<CandidatePair>();
      }
      if (job.completed) ++m.speculated_rules;
      bool in_flight = !job.completed;
      spec_.push_back(std::move(job));
      if (in_flight) break;  // the window closed mid-job
    }
  }
  state_.next = PipelineStage::kSelectSeq;
  return Status::OK();
}

// --- (6) select_opt_seq -----------------------------------------------------
Status FalconPipeline::StageSelectSeq() {
  FALCON_ASSIGN_OR_RETURN(SelectSeqResult selected,
                          SelectSequence(state_, config_));
  state_.out.sequence = selected.sequence;
  AddMachine("sel_opt_seq", selected.time, selected.time);
  state_.next = PipelineStage::kApplyRules;
  return Status::OK();
}

// --- (7) apply_blocking_rules with Algorithm 2 reuse ------------------------
Status FalconPipeline::StageApplyRules() {
  RunMetrics& m = state_.out.metrics;
  MatchResult& out = state_.out;
  const RuleSequence& sequence = out.sequence;
  // Any index the selected sequence still needs is built now, unmasked.
  if (VDuration dur = BuildSequenceIndexes(); dur.seconds > 0.0) {
    AddMachine("index_build(unmasked)", dur, dur);
  }
  ApplyMethod selected = SelectApplyMethod(*a_, *b_, sequence, features_,
                                           catalog_, *cluster_);
  std::unordered_map<std::string, size_t> spec_by_key;
  for (size_t i = 0; i < spec_.size(); ++i) spec_by_key[spec_[i].key] = i;

  // Completed speculative outputs whose rule is in the selected sequence.
  const SpecJob* best_completed = nullptr;
  for (const auto& rule : sequence.rules) {
    auto it = spec_by_key.find(CanonicalKey(rule));
    if (it == spec_by_key.end()) continue;
    const SpecJob& job = spec_[it->second];
    if (!job.completed) continue;
    if (best_completed == nullptr ||
        job.result.pairs.size() < best_completed->result.pairs.size()) {
      best_completed = &job;
    }
  }
  const SpecJob* in_flight =
      !spec_.empty() && !spec_.back().completed ? &spec_.back() : nullptr;
  bool in_flight_selected = false;
  if (in_flight != nullptr) {
    for (const auto& rule : sequence.rules) {
      if (CanonicalKey(rule) == in_flight->key) in_flight_selected = true;
    }
  }

  VDuration apply_raw;       // total machine time of this step
  VDuration apply_unmasked;  // critical-path contribution
  bool apply_fresh = false;  // no speculative output could be reused
  if (best_completed != nullptr) {
    // Algorithm 2, lines 8-11: reuse the smallest completed output.
    FilterOut filtered =
        FilterPairs(best_completed->result.pairs, sequence,
                    features_, *a_, *b_, cluster_, "apply-remaining-rules");
    out.candidates = std::move(filtered.pairs);
    apply_raw = filtered.time;
    apply_unmasked = filtered.time;
    m.spec_rule_reused = true;
    m.apply_method = selected;
    RecordBlockingJob(filtered.stats, &m);
  } else if (in_flight != nullptr && in_flight_selected) {
    // Algorithm 2, lines 12-27: steer the in-flight job.
    const JobStats& stats = in_flight->result.main_job;
    VDuration offset = in_flight->result.time - in_flight->remaining;
    JobStats::Phase phase = stats.PhaseAt(offset);
    bool greedy_ok =
        selected == ApplyMethod::kApplyGreedy &&
        CanonicalKey(sequence.rules.front()) == in_flight->key;
    if (phase == JobStats::Phase::kReduce) {
      // Output produced so far (X) gets the remaining rules via a map-only
      // job; the rest (Y) is filtered inside the still-running reducers.
      double f = stats.ReduceFractionAt(offset);
      size_t cut = static_cast<size_t>(
          f * static_cast<double>(in_flight->result.pairs.size()));
      std::vector<CandidatePair> x(in_flight->result.pairs.begin(),
                                   in_flight->result.pairs.begin() + cut);
      std::vector<CandidatePair> y_src(
          in_flight->result.pairs.begin() + cut,
          in_flight->result.pairs.end());
      FilterOut zx = FilterPairs(x, sequence, features_, *a_, *b_,
                                 cluster_, "apply-remaining-to-X");
      FilterOut zy = FilterPairs(y_src, sequence, features_, *a_,
                                 *b_, cluster_, "reducer-applies-seq");
      out.candidates = std::move(zy.pairs);
      out.candidates.insert(out.candidates.end(), zx.pairs.begin(),
                            zx.pairs.end());
      apply_raw = in_flight->remaining + zx.time + zy.time;
      apply_unmasked = Max(in_flight->remaining, zy.time) + zx.time;
      m.spec_rule_reused = true;
      m.apply_method = selected;
      RecordBlockingJob(zx.stats, &m);
      RecordBlockingJob(zy.stats, &m);
    } else if (greedy_ok) {
      // Map phase + apply_greedy: let the job finish; its reducers evaluate
      // the full sequence.
      FilterOut filtered =
          FilterPairs(in_flight->result.pairs, sequence, features_,
                      *a_, *b_, cluster_, "greedy-reducers-apply-seq");
      out.candidates = std::move(filtered.pairs);
      apply_raw = in_flight->remaining + filtered.time;
      apply_unmasked = Max(in_flight->remaining, filtered.time);
      m.spec_rule_reused = true;
      m.apply_method = ApplyMethod::kApplyGreedy;
      RecordBlockingJob(filtered.stats, &m);
    } else {
      // Kill the job; start fresh below.
      apply_fresh = true;
    }
  } else {
    apply_fresh = true;
  }
  spec_.clear();  // Algorithm 2 has read all it reads
  if (apply_fresh) {
    FALCON_ASSIGN_OR_RETURN(
        ApplyResult applied,
        ApplyBlockingRules(*a_, *b_, sequence, features_, catalog_, cluster_,
                           selected));
    out.candidates = std::move(applied.pairs);
    apply_raw = applied.time;
    apply_unmasked = applied.time;
    m.apply_method = selected;
    RecordBlockingJob(applied.main_job, &m);
  }
  AddMachine("apply_block_rules", apply_raw, apply_unmasked);
  // Canonical order: which Algorithm-2 reuse path ran depends on measured
  // wall time, but the candidate SET is path-independent; sorting makes the
  // rest of the pipeline (and the final matches) seed-deterministic.
  std::sort(out.candidates.begin(), out.candidates.end());
  m.candidate_size = out.candidates.size();
  if (out.candidates.empty()) {
    return Status::Internal("blocking dropped every pair (rules too strict)");
  }
  state_.next = PipelineStage::kGenFvsCand;
  return Status::OK();
}

// --- (8) gen_fvs over C (all features) --------------------------------------
// In the matcher-only plan this stage also forms C = A x B first (guarded by
// NeedsBlocking()'s memory estimate).
Status FalconPipeline::StageGenFvsCand() {
  MatchResult& out = state_.out;
  if (!out.metrics.used_blocking && out.candidates.empty()) {
    out.candidates.reserve(a_->num_rows() * b_->num_rows());
    for (RowId ar = 0; ar < a_->num_rows(); ++ar) {
      for (RowId br = 0; br < b_->num_rows(); ++br) {
        out.candidates.emplace_back(ar, br);
      }
    }
    out.metrics.candidate_size = out.candidates.size();
  }
  VDuration time = GenCandidateFvs("gen_fvs(C)");
  AddMachine("gen_fvs(C)", time, time);
  state_.next = PipelineStage::kMatcherAl;
  return Status::OK();
}

// --- (9) al_matcher: learn matcher N over C' --------------------------------
Status FalconPipeline::StageMatcherAl() {
  RunMetrics& m = state_.out.metrics;
  AlMatcherOptions match_opts;
  match_opts.max_iterations = config_.al_max_iterations;
  match_opts.mask_pair_selection =
      config_.enable_masking && config_.mask_pair_selection &&
      state_.cand_fvs.size() >= config_.pair_selection_mask_threshold;
  FALCON_ASSIGN_OR_RETURN(
      AlMatcherResult matcher,
      AlMatcher(state_.cand_fvs, state_.out.candidates, crowd_, match_opts,
                cluster_, &state_.rng));
  m.crowd_time += matcher.crowd_time;
  m.questions += matcher.questions;
  m.cost += matcher.cost;
  state_.bank_credit += matcher.crowd_time;
  {
    VDuration mach = matcher.selection_time + matcher.training_time;
    VDuration unmask = matcher.selection_unmasked + matcher.training_time;
    m.machine_time += mach;
    m.machine_unmasked += unmask;
    m.operators.push_back(
        {"al_matcher(matcher)", matcher.crowd_time + mach, unmask, true});
  }
  if (matcher.budget_exhausted) m.budget_exhausted = true;
  state_.out.matcher = std::move(matcher.matcher);
  state_.matcher_converged = matcher.converged;
  state_.next = PipelineStage::kApplyMatcher;
  return Status::OK();
}

// --- (10) apply_matcher, fused with feature generation (speculated during
// the matcher's crowd windows). The fused job re-derives features lazily
// per pair instead of reading cand_fvs, touching only the features the
// forest traversals actually test; al_matcher above keeps the materialized
// vectors because pair selection scans full vectors every iteration.
Status FalconPipeline::StageApplyMatcher() {
  RunMetrics& m = state_.out.metrics;
  MatchResult& out = state_.out;
  // Already prepared by gen_fvs(C), unless this run resumed after it.
  VDuration prep = PrepareFeatures(features_.all_ids());
  ApplyMatcherFusedResult predictions = ApplyMatcherFused(
      *a_, *b_, out.candidates, features_, features_.all_ids(), out.matcher,
      cluster_);
  {
    VDuration raw = prep + predictions.time;
    VDuration unmasked = raw;
    if (config_.enable_masking && config_.mask_speculative_execution &&
        state_.matcher_converged) {
      // The model stopped changing, so the speculative run with the
      // best-so-far matcher is the final run; its time hides in the last
      // crowd windows.
      unmasked = MaskRun(raw);
      m.spec_matcher_reused = unmasked.seconds <= 0.0;
    }
    AddMachine("apply_matcher", raw, unmasked);
  }
  RecordMatcherWork(predictions, &m);
  state_.predictions = std::move(predictions.predictions);
  out.matches.clear();
  for (size_t i = 0; i < out.candidates.size(); ++i) {
    if (state_.predictions[i]) out.matches.push_back(out.candidates[i]);
  }
  state_.next = PipelineStage::kEstimateAccuracy;
  return Status::OK();
}

// --- (11, optional) estimate_accuracy ---------------------------------------
Status FalconPipeline::StageEstimateAccuracy() {
  RunMetrics& m = state_.out.metrics;
  if (config_.estimate_accuracy) {
    FALCON_ASSIGN_OR_RETURN(
        m.accuracy,
        EstimateAccuracy(state_.out.candidates, state_.predictions, crowd_,
                         config_.accuracy, &state_.rng));
    m.has_accuracy_estimate = true;
    if (m.accuracy.budget_exhausted) m.budget_exhausted = true;
    m.crowd_time += m.accuracy.crowd_time;
    m.questions += m.accuracy.questions;
    m.cost += m.accuracy.cost;
    m.operators.push_back({"estimate_accuracy", m.accuracy.crowd_time,
                           VDuration::Zero(), true});
  }
  state_.next = PipelineStage::kDone;
  return Status::OK();
}

VDuration FalconPipeline::Rehydrate() {
  const PipelineStage next = state_.next;
  const bool blocking = state_.out.metrics.used_blocking;
  VDuration total;
  if (!started() || done()) return total;
  if (blocking &&
      (next == PipelineStage::kBlockerAl || next == PipelineStage::kGetRules)) {
    total += GenSampleFvs("gen_fvs(S,rehydrate)");
  }
  if (next == PipelineStage::kMatcherAl) {
    total += GenCandidateFvs("gen_fvs(C,rehydrate)");
  }
  // The original run built token stores and indexes inside the O1 masking
  // windows, in this order. Only blocking stages probe them: from gen_fvs(C)
  // on, FeatureSet::Prepare builds the token views features read.
  if (blocking && config_.enable_masking && config_.mask_index_building &&
      next >= PipelineStage::kGetRules && next <= PipelineStage::kApplyRules) {
    total += BuildGenericIndexes();
    if (next >= PipelineStage::kSelectSeq) total += BuildCandidateRuleIndexes();
    if (next >= PipelineStage::kApplyRules) total += BuildSequenceIndexes();
  }
  return total;
}

}  // namespace falcon
