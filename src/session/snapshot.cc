#include "session/snapshot.h"

#include <limits>
#include <utility>

#include "common/crc32.h"
#include "common/serde.h"
#include "common/strings.h"
#include "core/al_matcher.h"
#include "core/eval_rules.h"
#include "core/get_rules.h"
#include "core/select_opt_seq.h"
#include "rules/serialize.h"

namespace falcon {
namespace {

// Section tags, written in this order.
enum SectionTag : uint32_t {
  kSecMeta = 1,
  kSecRng = 2,
  kSecMetrics = 3,
  kSecSample = 4,
  kSecBlocker = 5,
  kSecRules = 6,
  kSecCandidates = 7,
  kSecMatcher = 8,
  kSecCrowd = 9,
};

void WriteSection(uint32_t tag, const std::string& payload,
                  BinaryWriter* out) {
  out->U32(tag);
  out->U64(payload.size());
  out->U32(Crc32(payload));
  out->Raw(payload.data(), payload.size());
}

/// Reads the next section, verifying its tag and CRC.
Result<std::string> ReadSection(BinaryReader* r, uint32_t expect_tag) {
  uint32_t tag = r->U32();
  uint64_t len = r->U64();
  uint32_t crc = r->U32();
  if (!r->ok() || len > r->remaining()) {
    return Status::IoError("snapshot truncated in section header");
  }
  if (tag != expect_tag) {
    return Status::InvalidArgument(
        "snapshot section out of order: expected tag " +
        std::to_string(expect_tag) + ", found " + std::to_string(tag));
  }
  std::string payload;
  payload.resize(static_cast<size_t>(len));
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(r->U8());
  }
  if (!r->ok()) return Status::IoError("snapshot truncated in section body");
  if (Crc32(payload) != crc) {
    return Status::IoError("snapshot section " + std::to_string(tag) +
                           " failed its CRC32 check (corrupted)");
  }
  return payload;
}

void WritePairs(const std::vector<std::pair<RowId, RowId>>& pairs,
                BinaryWriter* w) {
  w->U64(pairs.size());
  for (const auto& p : pairs) {
    w->U32(p.first);
    w->U32(p.second);
  }
}

bool ReadPairs(BinaryReader* r, std::vector<std::pair<RowId, RowId>>* out) {
  uint64_t n = r->U64();
  if (!r->ok() || n > r->remaining() / 8 + 1) return false;
  out->clear();
  out->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    RowId a = r->U32();
    RowId b = r->U32();
    out->emplace_back(a, b);
  }
  return r->ok();
}

void WriteBitmap(const Bitmap& b, BinaryWriter* w) {
  w->U64(b.size());
  w->U64(b.words().size());
  for (uint64_t word : b.words()) w->U64(word);
}

bool ReadBitmap(BinaryReader* r, Bitmap* out) {
  uint64_t nbits = r->U64();
  uint64_t nwords = r->U64();
  // nbits / 64 rounded up without the overflow of (nbits + 63) / 64.
  if (!r->ok() || nwords != nbits / 64 + (nbits % 64 != 0) ||
      nwords > r->remaining() / 8 + 1) {
    return false;
  }
  std::vector<uint64_t> words(static_cast<size_t>(nwords));
  for (auto& word : words) word = r->U64();
  if (!r->ok()) return false;
  *out = Bitmap::FromWords(static_cast<size_t>(nbits), std::move(words));
  return true;
}

void WriteRule(const Rule& rule, BinaryWriter* w) {
  w->U64(rule.predicates.size());
  for (const auto& p : rule.predicates) {
    w->U32(static_cast<uint32_t>(p.feature_pos));
    w->U32(static_cast<uint32_t>(p.feature_id));
    w->U32(static_cast<uint32_t>(p.op));
    w->F64(p.value);
  }
  w->F64(rule.precision);
  w->U64(rule.coverage);
  w->F64(rule.selectivity);
  w->F64(rule.time_per_pair);
}

bool ReadRule(BinaryReader* r, Rule* out) {
  uint64_t n = r->U64();
  if (!r->ok() || n > r->remaining() / 20 + 1) return false;
  out->predicates.clear();
  out->predicates.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Predicate p;
    p.feature_pos = static_cast<int>(r->U32());
    p.feature_id = static_cast<int>(r->U32());
    uint32_t op = r->U32();
    if (op > static_cast<uint32_t>(PredOp::kGe)) return false;
    p.op = static_cast<PredOp>(op);
    p.value = r->F64();
    out->predicates.push_back(p);
  }
  out->precision = r->F64();
  out->coverage = static_cast<size_t>(r->U64());
  out->selectivity = r->F64();
  out->time_per_pair = r->F64();
  return r->ok();
}

void WriteRulesAndCoverage(const std::vector<Rule>& rules,
                           const std::vector<Bitmap>& coverage,
                           BinaryWriter* w) {
  w->U64(rules.size());
  for (const auto& rule : rules) WriteRule(rule, w);
  w->U64(coverage.size());
  for (const auto& cov : coverage) WriteBitmap(cov, w);
}

bool ReadRulesAndCoverage(BinaryReader* r, std::vector<Rule>* rules,
                          std::vector<Bitmap>* coverage) {
  uint64_t nr = r->U64();
  if (!r->ok() || nr > r->remaining()) return false;
  rules->clear();
  for (uint64_t i = 0; i < nr; ++i) {
    Rule rule;
    if (!ReadRule(r, &rule)) return false;
    rules->push_back(std::move(rule));
  }
  uint64_t nc = r->U64();
  if (!r->ok() || nc > r->remaining()) return false;
  coverage->clear();
  for (uint64_t i = 0; i < nc; ++i) {
    Bitmap cov;
    if (!ReadBitmap(r, &cov)) return false;
    coverage->push_back(std::move(cov));
  }
  return rules->size() == coverage->size();
}

/// Rejects indices later stages dereference unchecked. Section CRCs only
/// prove the bytes are the ones written, not that they index into these
/// tables, this sample and this feature set.
Status ValidateIndices(const PipelineState& s, const Table& a, const Table& b,
                       const FeatureSet& fs) {
  auto rows_in_tables = [&](const auto& pairs) {
    for (const auto& [ra, rb] : pairs) {
      if (ra >= a.num_rows() || rb >= b.num_rows()) return false;
    }
    return true;
  };
  if (!rows_in_tables(s.sample) || !rows_in_tables(s.out.candidates)) {
    return Status::InvalidArgument(
        "snapshot sample or candidates reference rows outside the tables");
  }
  if (s.blocker_labels.size() != s.blocker_labeled_indices.size()) {
    return Status::InvalidArgument(
        "snapshot blocker labels do not match its labeled indices");
  }
  for (uint32_t i : s.blocker_labeled_indices) {
    if (i >= s.sample.size()) {
      return Status::InvalidArgument(
          "snapshot blocker label index is outside the sample");
    }
  }
  // Rule predicates index the blocking feature-vector layout (feature_pos)
  // and the feature set (feature_id).
  const size_t layout = fs.blocking_ids().size();
  for (const auto* rules :
       {&s.candidate_rules, &s.retained_rules, &s.out.sequence.rules}) {
    for (const Rule& rule : *rules) {
      for (const Predicate& p : rule.predicates) {
        if (p.feature_id < 0 ||
            static_cast<size_t>(p.feature_id) >= fs.size() ||
            p.feature_pos < 0 ||
            static_cast<size_t>(p.feature_pos) >= layout) {
          return Status::InvalidArgument(
              "snapshot rule predicate references a feature outside the "
              "blocking layout");
        }
      }
    }
  }
  for (const auto* coverage : {&s.candidate_coverage, &s.retained_coverage}) {
    for (const Bitmap& cov : *coverage) {
      if (cov.size() != s.sample.size()) {
        return Status::InvalidArgument(
            "snapshot rule coverage width differs from the sample size");
      }
    }
  }
  return Status::OK();
}

/// Parses a snapshot forest (empty text: no forest yet) and requires the
/// feature layout it was written against to be `layout`, the one the
/// pipeline applies it with: a split on a position outside that layout
/// would read past the feature vector.
Result<RandomForest> ReadForest(const std::string& text, const FeatureSet& fs,
                                const std::vector<int>& layout) {
  if (text.empty()) return RandomForest();
  std::vector<int> written;
  FALCON_ASSIGN_OR_RETURN(RandomForest forest, ParseForest(text, fs, &written));
  if (written != layout) {
    return Status::InvalidArgument(
        "snapshot forest was written over a different feature layout");
  }
  return forest;
}

std::string BadSection(uint32_t tag) {
  return "snapshot section " + std::to_string(tag) +
         " is structurally malformed";
}

}  // namespace

uint64_t ConfigFingerprint(const FalconConfig& config) {
  // Settings that became constants keep their slots, written as the
  // operator defaults every config held; the retired apply kill limit was
  // always infinite and the retired ship-ids override always kAuto (0). So
  // fingerprints, and the snapshots that carry them, still match.
  const AlMatcherOptions al;
  const ForestOptions& forest = al.forest;
  const EvalRulesOptions ev;
  const GetRulesOptions gr;
  const SelectSeqOptions ss;
  BinaryWriter w;
  w.U64(config.sample_size);
  w.U32(static_cast<uint32_t>(config.sample_y));
  w.U32(static_cast<uint32_t>(config.sample_strategy));
  w.U8(config.estimate_accuracy ? 1 : 0);
  w.U64(config.accuracy.sample_per_stratum);
  w.F64(config.accuracy.delta);
  w.U32(static_cast<uint32_t>(config.al_max_iterations));
  w.U32(static_cast<uint32_t>(al.pairs_per_iteration));
  w.U32(static_cast<uint32_t>(al.convergence_patience));
  w.F64(al.convergence_threshold);
  w.U32(static_cast<uint32_t>(forest.num_trees));
  w.U8(forest.bootstrap ? 1 : 0);
  w.U32(static_cast<uint32_t>(forest.tree.max_depth));
  w.U32(forest.tree.min_samples_leaf);
  w.U32(static_cast<uint32_t>(forest.tree.features_per_split));
  w.U32(static_cast<uint32_t>(forest.tree.max_thresholds));
  w.U32(static_cast<uint32_t>(config.max_rules_to_eval));
  w.U32(static_cast<uint32_t>(ev.max_iterations_per_rule));
  w.U32(static_cast<uint32_t>(ev.pairs_per_iteration));
  w.F64(ev.precision_min);
  w.F64(ev.epsilon_max);
  w.F64(ev.delta);
  w.F64(gr.min_coverage_fraction);
  w.U8(config.deterministic_rule_cost ? 1 : 0);
  w.F64(ss.alpha);
  w.F64(ss.beta);
  w.F64(config.score_gamma);
  w.U32(static_cast<uint32_t>(config.max_rules_exhaustive));
  w.U8(config.enable_masking ? 1 : 0);
  w.U8(config.mask_index_building ? 1 : 0);
  w.U8(config.mask_speculative_execution ? 1 : 0);
  w.U8(config.mask_pair_selection ? 1 : 0);
  w.U64(config.pair_selection_mask_threshold);
  w.U64(config.matcher_only_max_bytes);
  w.F64(std::numeric_limits<double>::infinity());
  w.U32(0);
  w.U64(config.seed);
  return Fnv1a(w.data());
}

std::string WriteSnapshot(const std::string& session_id,
                          const FalconPipeline& pipeline, const Table& a,
                          const Table& b, const CrowdPlatform& crowd,
                          const FalconConfig& config) {
  const PipelineState& s = pipeline.state();
  const RunMetrics& m = s.out.metrics;
  const FeatureSet& fs = pipeline.features();

  BinaryWriter out;
  out.U32(kSnapshotMagic);
  out.U32(kSnapshotVersion);

  {  // META
    BinaryWriter w;
    w.Str(session_id);
    w.U64(ConfigFingerprint(config));
    w.U64(config.seed);
    w.U32(static_cast<uint32_t>(s.next));
    w.U8(m.used_blocking ? 1 : 0);
    w.U64(a.num_rows());
    w.U64(a.ContentHash());
    w.U64(b.num_rows());
    w.U64(b.ContentHash());
    WriteSection(kSecMeta, w.data(), &out);
  }
  {  // RNG
    BinaryWriter w;
    WriteRngState(s.rng.SaveState(), &w);
    WriteSection(kSecRng, w.data(), &out);
  }
  {  // METRICS (+ mask-bank credit)
    BinaryWriter w;
    w.F64(s.bank_credit.seconds);
    w.U64(m.questions);
    w.F64(m.cost);
    w.F64(m.crowd_time.seconds);
    w.F64(m.machine_time.seconds);
    w.F64(m.machine_unmasked.seconds);
    w.F64(m.total_time.seconds);
    w.U64(m.candidate_size);
    w.U32(static_cast<uint32_t>(m.apply_method));
    w.U64(m.operators.size());
    for (const auto& op : m.operators) {
      w.Str(op.name);
      w.F64(op.raw.seconds);
      w.F64(op.unmasked.seconds);
      w.U8(op.is_crowd ? 1 : 0);
    }
    w.U32(static_cast<uint32_t>(m.speculated_rules));
    w.U8(m.spec_rule_reused ? 1 : 0);
    w.U8(m.spec_matcher_reused ? 1 : 0);
    w.U64(m.num_candidate_rules);
    w.U64(m.num_retained_rules);
    w.F64(m.matcher_features_per_pair);
    w.F64(m.matcher_trees_per_pair);
    // Retired compiled-forest layout (vector width, used features, tree
    // count), read by nothing: the slots stay, written as 0, so the format
    // and the snapshots written before keep their layout.
    w.U64(0);
    w.U64(0);
    w.U64(0);
    w.U8(m.has_accuracy_estimate ? 1 : 0);
    w.F64(m.accuracy.precision);
    w.F64(m.accuracy.recall);
    w.F64(m.accuracy.precision_margin);
    w.F64(m.accuracy.recall_margin);
    w.U64(m.accuracy.labeled_positives);
    w.U64(m.accuracy.labeled_negatives);
    w.F64(m.accuracy.positive_rate);
    w.F64(m.accuracy.false_negative_rate);
    w.U64(m.accuracy.questions);
    w.F64(m.accuracy.cost);
    w.F64(m.accuracy.crowd_time.seconds);
    // Appended in format version 2 (C_max budget-exhaustion flags).
    w.U8(m.budget_exhausted ? 1 : 0);
    w.U8(m.accuracy.budget_exhausted ? 1 : 0);
    WriteSection(kSecMetrics, w.data(), &out);
  }
  {  // SAMPLE (ordered: fvs/labels/coverage index into it)
    BinaryWriter w;
    WritePairs(s.sample, &w);
    WriteSection(kSecSample, w.data(), &out);
  }
  {  // BLOCKER: forest (text format, blocking layout) + crowd labels on S
    BinaryWriter w;
    w.Str(s.blocker.num_trees() == 0
              ? std::string()
              : SerializeForest(s.blocker, fs.blocking_ids(), fs));
    w.U64(s.blocker_labeled_indices.size());
    for (uint32_t i : s.blocker_labeled_indices) w.U32(i);
    w.U64(s.blocker_labels.size());
    for (char l : s.blocker_labels) w.U8(static_cast<uint8_t>(l));
    WriteSection(kSecBlocker, w.data(), &out);
  }
  {  // RULES: candidates + retained (with coverage) + selected sequence
    BinaryWriter w;
    WriteRulesAndCoverage(s.candidate_rules, s.candidate_coverage, &w);
    WriteRulesAndCoverage(s.retained_rules, s.retained_coverage, &w);
    w.U64(s.out.sequence.rules.size());
    for (const auto& rule : s.out.sequence.rules) WriteRule(rule, &w);
    w.F64(s.out.sequence.selectivity);
    WriteSection(kSecRules, w.data(), &out);
  }
  {  // CANDIDATES
    BinaryWriter w;
    WritePairs(s.out.candidates, &w);
    WriteSection(kSecCandidates, w.data(), &out);
  }
  {  // MATCHER: forest (all-features layout) + convergence + predictions
    BinaryWriter w;
    w.Str(s.out.matcher.num_trees() == 0
              ? std::string()
              : SerializeForest(s.out.matcher, fs.all_ids(), fs));
    w.U8(s.matcher_converged ? 1 : 0);
    Bitmap preds(s.predictions.size());
    for (size_t i = 0; i < s.predictions.size(); ++i) {
      if (s.predictions[i]) preds.Set(i);
    }
    WriteBitmap(preds, &w);
    WriteSection(kSecMatcher, w.data(), &out);
  }
  {  // CROWD: platform state incl. the Q&A journal for a JournalingCrowd
    BinaryWriter w;
    w.Str(crowd.SaveState());
    WriteSection(kSecCrowd, w.data(), &out);
  }
  return out.Take();
}

namespace {

Status CheckHeader(BinaryReader* r) {
  uint32_t magic = r->U32();
  uint32_t version = r->U32();
  if (!r->ok() || magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a Falcon snapshot (bad magic)");
  }
  if (version > kSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot format version " + std::to_string(version) +
        " is newer than this build supports (" +
        std::to_string(kSnapshotVersion) + ")");
  }
  return Status::OK();
}

Status ParseMeta(const std::string& payload, SnapshotMeta* meta) {
  BinaryReader r(payload);
  meta->session_id = r.Str();
  meta->config_fingerprint = r.U64();
  meta->seed = r.U64();
  uint32_t next = r.U32();
  if (next > static_cast<uint32_t>(PipelineStage::kDone)) {
    return Status::InvalidArgument("snapshot names an unknown pipeline stage");
  }
  meta->next = static_cast<PipelineStage>(next);
  meta->used_blocking = r.U8() != 0;
  meta->table_a_rows = r.U64();
  meta->table_a_hash = r.U64();
  meta->table_b_rows = r.U64();
  meta->table_b_hash = r.U64();
  if (!r.exhausted()) return Status::IoError(BadSection(kSecMeta));
  return Status::OK();
}

}  // namespace

Result<SnapshotMeta> ReadSnapshotMeta(std::string_view blob) {
  BinaryReader r(blob);
  FALCON_RETURN_NOT_OK(CheckHeader(&r));
  SnapshotMeta meta;
  meta.format_version = kSnapshotVersion;
  FALCON_ASSIGN_OR_RETURN(std::string payload, ReadSection(&r, kSecMeta));
  FALCON_RETURN_NOT_OK(ParseMeta(payload, &meta));
  return meta;
}

Status LoadSnapshot(std::string_view blob, const Table& a, const Table& b,
                    CrowdPlatform* crowd, FalconPipeline* pipeline,
                    std::string* session_id) {
  if (pipeline->started()) {
    return Status::InvalidArgument(
        "LoadSnapshot needs a freshly constructed pipeline");
  }
  BinaryReader r(blob);
  FALCON_RETURN_NOT_OK(CheckHeader(&r));

  SnapshotMeta meta;
  {
    FALCON_ASSIGN_OR_RETURN(std::string payload, ReadSection(&r, kSecMeta));
    FALCON_RETURN_NOT_OK(ParseMeta(payload, &meta));
  }
  // The snapshot only makes sense against the exact inputs that produced it.
  const FalconConfig& config = pipeline->config();
  if (meta.config_fingerprint != ConfigFingerprint(config)) {
    return Status::InvalidArgument(
        "snapshot was written under a different FalconConfig; resume "
        "requires the identical configuration");
  }
  if (meta.table_a_rows != a.num_rows() || meta.table_a_hash != a.ContentHash() ||
      meta.table_b_rows != b.num_rows() || meta.table_b_hash != b.ContentHash()) {
    return Status::InvalidArgument(
        "snapshot was written over different input tables (content hash "
        "mismatch)");
  }

  PipelineState& s = pipeline->state();
  const FeatureSet& fs = pipeline->features();

  {  // RNG
    FALCON_ASSIGN_OR_RETURN(std::string payload, ReadSection(&r, kSecRng));
    BinaryReader pr(payload);
    RngState rng_state = ReadRngState(&pr);
    if (!pr.exhausted()) return Status::IoError(BadSection(kSecRng));
    s.rng.RestoreState(rng_state);
  }
  {  // METRICS
    FALCON_ASSIGN_OR_RETURN(std::string payload, ReadSection(&r, kSecMetrics));
    BinaryReader pr(payload);
    RunMetrics& m = s.out.metrics;
    s.bank_credit = VDuration::Seconds(pr.F64());
    m.questions = static_cast<size_t>(pr.U64());
    m.cost = pr.F64();
    m.crowd_time = VDuration::Seconds(pr.F64());
    m.machine_time = VDuration::Seconds(pr.F64());
    m.machine_unmasked = VDuration::Seconds(pr.F64());
    m.total_time = VDuration::Seconds(pr.F64());
    m.candidate_size = static_cast<size_t>(pr.U64());
    uint32_t method = pr.U32();
    if (method > static_cast<uint32_t>(ApplyMethod::kReduceSplit)) {
      return Status::IoError(BadSection(kSecMetrics));
    }
    m.apply_method = static_cast<ApplyMethod>(method);
    uint64_t nops = pr.U64();
    if (!pr.ok() || nops > pr.remaining()) {
      return Status::IoError(BadSection(kSecMetrics));
    }
    m.operators.clear();
    for (uint64_t i = 0; i < nops; ++i) {
      OperatorTiming op;
      op.name = pr.Str();
      op.raw = VDuration::Seconds(pr.F64());
      op.unmasked = VDuration::Seconds(pr.F64());
      op.is_crowd = pr.U8() != 0;
      m.operators.push_back(std::move(op));
    }
    m.speculated_rules = static_cast<int>(pr.U32());
    m.spec_rule_reused = pr.U8() != 0;
    m.spec_matcher_reused = pr.U8() != 0;
    m.num_candidate_rules = static_cast<size_t>(pr.U64());
    m.num_retained_rules = static_cast<size_t>(pr.U64());
    m.matcher_features_per_pair = pr.F64();
    m.matcher_trees_per_pair = pr.F64();
    // The three retired compiled-forest slots, written as 0.
    for (int retired = 0; retired < 3; ++retired) pr.U64();
    m.has_accuracy_estimate = pr.U8() != 0;
    m.accuracy.precision = pr.F64();
    m.accuracy.recall = pr.F64();
    m.accuracy.precision_margin = pr.F64();
    m.accuracy.recall_margin = pr.F64();
    m.accuracy.labeled_positives = static_cast<size_t>(pr.U64());
    m.accuracy.labeled_negatives = static_cast<size_t>(pr.U64());
    m.accuracy.positive_rate = pr.F64();
    m.accuracy.false_negative_rate = pr.F64();
    m.accuracy.questions = static_cast<size_t>(pr.U64());
    m.accuracy.cost = pr.F64();
    m.accuracy.crowd_time = VDuration::Seconds(pr.F64());
    // Format v2 appended the budget-exhaustion flags; a v1 payload ends
    // here and the flags keep their default (false).
    m.budget_exhausted = false;
    m.accuracy.budget_exhausted = false;
    if (!pr.exhausted()) {
      m.budget_exhausted = pr.U8() != 0;
      m.accuracy.budget_exhausted = pr.U8() != 0;
    }
    if (!pr.exhausted()) return Status::IoError(BadSection(kSecMetrics));
  }
  {  // SAMPLE
    FALCON_ASSIGN_OR_RETURN(std::string payload, ReadSection(&r, kSecSample));
    BinaryReader pr(payload);
    if (!ReadPairs(&pr, &s.sample) || !pr.exhausted()) {
      return Status::IoError(BadSection(kSecSample));
    }
  }
  {  // BLOCKER
    FALCON_ASSIGN_OR_RETURN(std::string payload, ReadSection(&r, kSecBlocker));
    BinaryReader pr(payload);
    FALCON_ASSIGN_OR_RETURN(s.blocker,
                            ReadForest(pr.Str(), fs, fs.blocking_ids()));
    uint64_t ni = pr.U64();
    if (!pr.ok() || ni > pr.remaining() / 4 + 1) {
      return Status::IoError(BadSection(kSecBlocker));
    }
    s.blocker_labeled_indices.clear();
    for (uint64_t i = 0; i < ni; ++i) {
      s.blocker_labeled_indices.push_back(pr.U32());
    }
    uint64_t nl = pr.U64();
    if (!pr.ok() || nl > pr.remaining()) {
      return Status::IoError(BadSection(kSecBlocker));
    }
    s.blocker_labels.clear();
    for (uint64_t i = 0; i < nl; ++i) {
      s.blocker_labels.push_back(static_cast<char>(pr.U8()));
    }
    if (!pr.exhausted()) return Status::IoError(BadSection(kSecBlocker));
  }
  {  // RULES
    FALCON_ASSIGN_OR_RETURN(std::string payload, ReadSection(&r, kSecRules));
    BinaryReader pr(payload);
    if (!ReadRulesAndCoverage(&pr, &s.candidate_rules,
                              &s.candidate_coverage) ||
        !ReadRulesAndCoverage(&pr, &s.retained_rules, &s.retained_coverage)) {
      return Status::IoError(BadSection(kSecRules));
    }
    uint64_t nseq = pr.U64();
    if (!pr.ok() || nseq > pr.remaining()) {
      return Status::IoError(BadSection(kSecRules));
    }
    s.out.sequence.rules.clear();
    for (uint64_t i = 0; i < nseq; ++i) {
      Rule rule;
      if (!ReadRule(&pr, &rule)) return Status::IoError(BadSection(kSecRules));
      s.out.sequence.rules.push_back(std::move(rule));
    }
    s.out.sequence.selectivity = pr.F64();
    if (!pr.exhausted()) return Status::IoError(BadSection(kSecRules));
  }
  {  // CANDIDATES
    FALCON_ASSIGN_OR_RETURN(std::string payload,
                            ReadSection(&r, kSecCandidates));
    BinaryReader pr(payload);
    if (!ReadPairs(&pr, &s.out.candidates) || !pr.exhausted()) {
      return Status::IoError(BadSection(kSecCandidates));
    }
  }
  {  // MATCHER
    FALCON_ASSIGN_OR_RETURN(std::string payload, ReadSection(&r, kSecMatcher));
    BinaryReader pr(payload);
    FALCON_ASSIGN_OR_RETURN(s.out.matcher,
                            ReadForest(pr.Str(), fs, fs.all_ids()));
    s.matcher_converged = pr.U8() != 0;
    Bitmap preds;
    if (!ReadBitmap(&pr, &preds) || !pr.exhausted()) {
      return Status::IoError(BadSection(kSecMatcher));
    }
    s.predictions.assign(preds.size(), 0);
    for (size_t i = 0; i < preds.size(); ++i) {
      s.predictions[i] = preds.Get(i) ? 1 : 0;
    }
  }
  FALCON_RETURN_NOT_OK(ValidateIndices(s, a, b, fs));
  {  // CROWD
    FALCON_ASSIGN_OR_RETURN(std::string payload, ReadSection(&r, kSecCrowd));
    BinaryReader pr(payload);
    std::string crowd_blob = pr.Str();
    if (!pr.exhausted()) return Status::IoError(BadSection(kSecCrowd));
    FALCON_RETURN_NOT_OK(crowd->RestoreState(crowd_blob));
  }
  if (!r.exhausted()) {
    return Status::IoError("snapshot has trailing bytes after last section");
  }

  // Install derived fields and advance the pipeline to the checkpointed
  // boundary.
  s.next = meta.next;
  s.out.metrics.used_blocking = meta.used_blocking;
  s.out.matches.clear();
  if (!s.predictions.empty() &&
      s.predictions.size() == s.out.candidates.size()) {
    for (size_t i = 0; i < s.out.candidates.size(); ++i) {
      if (s.predictions[i]) s.out.matches.push_back(s.out.candidates[i]);
    }
  }
  if (session_id != nullptr) *session_id = meta.session_id;
  return Status::OK();
}

}  // namespace falcon
