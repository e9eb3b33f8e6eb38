#include "session/snapshot.h"

#include <cmath>
#include <limits>
#include <utility>

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

// The smallest encoding of one element of each sequence, which bounds its
// count (BinaryReader::Count).
constexpr size_t kPairBytes = 8;        // two u32 row ids
constexpr size_t kPredicateBytes = 20;  // position, feature id, op, value
constexpr size_t kRuleBytes = 40;       // predicate count + four 8-byte fields
constexpr size_t kBitmapBytes = 16;     // bit count + word count
constexpr size_t kOperatorBytes = 25;   // name length, two times, crowd flag

/// Appends section `tag`: the tag, then what `encode` writes, CRC-framed.
template <typename Encode>
void WriteSection(uint32_t tag, BinaryWriter* out, Encode encode) {
  BinaryWriter payload;
  encode(&payload);
  out->U32(tag);
  out->Framed(payload.data());
}

/// Reads the next section, which must be `tag`, and decodes its payload
/// with `decode` (a Status-returning function of a BinaryReader*), which
/// must consume every byte of it.
template <typename Decode>
Status ReadSection(BinaryReader* r, uint32_t tag, Decode decode) {
  const uint32_t found = r->U32();
  if (!r->ok()) return Status::IoError("snapshot truncated in section header");
  if (found != tag) {
    return Status::InvalidArgument(
        "snapshot section out of order: expected tag " + std::to_string(tag) +
        ", found " + std::to_string(found));
  }
  const std::string name = "snapshot section " + std::to_string(tag);
  FALCON_ASSIGN_OR_RETURN(std::string_view payload, r->Framed(name));
  BinaryReader pr(payload);
  FALCON_RETURN_NOT_OK(decode(&pr));
  if (!pr.exhausted()) {
    return Status::IoError(name + " is structurally malformed");
  }
  return Status::OK();
}

void WriteBitmap(const Bitmap& b, BinaryWriter* w) {
  w->U64(b.size());
  w->Seq(b.words(), [](uint64_t word, BinaryWriter* w) { w->U64(word); });
}

Bitmap ReadBitmap(BinaryReader* r) {
  const uint64_t nbits = r->U64();
  std::vector<uint64_t> words;
  r->Seq(8, &words, [](BinaryReader* r) { return r->U64(); });
  // nbits / 64 rounded up without the overflow of (nbits + 63) / 64.
  if (words.size() != nbits / 64 + (nbits % 64 != 0)) {
    r->Fail();
    return Bitmap();
  }
  return Bitmap::FromWords(static_cast<size_t>(nbits), std::move(words));
}

void WriteRule(const Rule& rule, BinaryWriter* w) {
  w->Seq(rule.predicates, [](const Predicate& p, BinaryWriter* w) {
    w->U32(static_cast<uint32_t>(p.feature_pos));
    w->U32(static_cast<uint32_t>(p.feature_id));
    w->U32(static_cast<uint32_t>(p.op));
    w->F64(p.value);
  });
  w->F64(rule.precision);
  w->U64(rule.coverage);
  w->F64(rule.selectivity);
  w->F64(rule.time_per_pair);
}

Predicate ReadPredicate(BinaryReader* r) {
  Predicate p;
  p.feature_pos = static_cast<int>(r->U32());
  p.feature_id = static_cast<int>(r->U32());
  const uint32_t op = r->U32();
  if (op > static_cast<uint32_t>(PredOp::kGe)) {
    r->Fail();
  } else {
    p.op = static_cast<PredOp>(op);
  }
  p.value = r->F64();
  return p;
}

Rule ReadRule(BinaryReader* r) {
  Rule rule;
  r->Seq(kPredicateBytes, &rule.predicates, ReadPredicate);
  rule.precision = r->F64();
  rule.coverage = static_cast<size_t>(r->U64());
  rule.selectivity = r->F64();
  rule.time_per_pair = r->F64();
  return rule;
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

/// The one check of a decoded state, before any stage runs on it: every
/// durable field a later stage indexes or sizes an allocation with, and
/// what the next stage reads. Section CRCs prove only that the bytes are
/// the ones written, not that they index into these tables, this sample and
/// this feature set.
Status ValidateState(const PipelineState& s, const Table& a, const Table& b,
                     const FeatureSet& fs) {
  auto invalid = [](const char* what) {
    return Status::InvalidArgument(std::string("snapshot ") + what);
  };
  auto rows_in_tables = [&](const auto& pairs) {
    for (const auto& [ra, rb] : pairs) {
      if (ra >= a.num_rows() || rb >= b.num_rows()) return false;
    }
    return true;
  };
  if (!rows_in_tables(s.sample) || !rows_in_tables(s.out.candidates)) {
    return invalid("sample or candidates reference rows outside the tables");
  }
  if (s.blocker_labels.size() != s.blocker_labeled_indices.size()) {
    return invalid("blocker labels do not match its labeled indices");
  }
  for (uint32_t i : s.blocker_labeled_indices) {
    if (i >= s.sample.size()) {
      return invalid("blocker label index is outside the sample");
    }
  }

  // Rule predicates index the blocking feature-vector layout (feature_pos)
  // and the feature set (feature_id); sel_opt_seq divides by each rule's
  // time per pair.
  const size_t layout = fs.blocking_ids().size();
  for (const auto* rules :
       {&s.candidate_rules, &s.retained_rules, &s.out.sequence.rules}) {
    for (const Rule& rule : *rules) {
      for (const Predicate& p : rule.predicates) {
        if (p.feature_id < 0 ||
            static_cast<size_t>(p.feature_id) >= fs.size() ||
            p.feature_pos < 0 ||
            static_cast<size_t>(p.feature_pos) >= layout) {
          return invalid(
              "rule predicate references a feature outside the blocking "
              "layout");
        }
      }
      if (!(std::isfinite(rule.time_per_pair) && rule.time_per_pair >= 0.0)) {
        return invalid("rule time per pair is not a finite non-negative");
      }
    }
  }
  // Coverage bitmaps index the sample; eval_rules reserves a rule's
  // `coverage` slots for the sample pairs it drops.
  const std::pair<const std::vector<Rule>*, const std::vector<Bitmap>*>
      covered[] = {{&s.candidate_rules, &s.candidate_coverage},
                   {&s.retained_rules, &s.retained_coverage}};
  for (const auto& [rules, coverage] : covered) {
    if (rules->size() != coverage->size()) {
      return invalid("rules and coverage bitmaps differ in number");
    }
    for (size_t i = 0; i < rules->size(); ++i) {
      if ((*coverage)[i].size() != s.sample.size()) {
        return invalid("rule coverage width differs from the sample size");
      }
      if ((*rules)[i].coverage != (*coverage)[i].Count()) {
        return invalid("rule coverage differs from its bitmap's count");
      }
    }
  }

  // Stage preconditions: what the next operator reads must be there.
  const PipelineStage next = s.next;
  if (next == PipelineStage::kInit || next == PipelineStage::kDone) {
    return Status::OK();
  }
  if (s.out.metrics.used_blocking) {
    // gen_fvs(S) through sel_opt_seq divide by or index into |S|.
    if (next >= PipelineStage::kGenFvsSample &&
        next <= PipelineStage::kSelectSeq && s.sample.empty()) {
      return invalid("has no sample S before the rule sequence is selected");
    }
    if (next == PipelineStage::kGetRules && s.blocker.num_trees() == 0) {
      return invalid("is missing the blocker forest");
    }
    if (next == PipelineStage::kEvalRules && s.candidate_rules.empty()) {
      return invalid("is missing the candidate rules");
    }
    if (next == PipelineStage::kSelectSeq && s.retained_rules.empty()) {
      return invalid("is missing the retained rules");
    }
    if (next == PipelineStage::kApplyRules &&
        s.out.sequence.rules.empty()) {
      return invalid("is missing the selected rule sequence");
    }
    if (next >= PipelineStage::kMatcherAl && s.out.candidates.empty()) {
      return invalid("is missing the candidate set");
    }
  }
  if (next >= PipelineStage::kApplyMatcher &&
      s.out.matcher.num_trees() == 0) {
    return invalid("is missing the matcher forest");
  }
  if (next == PipelineStage::kEstimateAccuracy &&
      s.predictions.size() != s.out.candidates.size()) {
    return invalid("predictions do not match its candidates");
  }
  return Status::OK();
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
  WriteSection(kSecMeta, &out, [&](BinaryWriter* w) {
    w->Str(session_id);
    w->U64(ConfigFingerprint(config));
    w->U64(config.seed);
    w->U32(static_cast<uint32_t>(s.next));
    w->U8(m.used_blocking ? 1 : 0);
    w->U64(a.num_rows());
    w->U64(a.ContentHash());
    w->U64(b.num_rows());
    w->U64(b.ContentHash());
  });
  WriteSection(kSecRng, &out, [&](BinaryWriter* w) {
    WriteRngState(s.rng.SaveState(), w);
  });
  WriteSection(kSecMetrics, &out, [&](BinaryWriter* w) {
    w->F64(s.bank_credit.seconds);  // the mask bank rides with the metrics
    w->U64(m.questions);
    w->F64(m.cost);
    w->F64(m.crowd_time.seconds);
    w->F64(m.machine_time.seconds);
    w->F64(m.machine_unmasked.seconds);
    w->F64(m.total_time.seconds);
    w->U64(m.candidate_size);
    w->U32(static_cast<uint32_t>(m.apply_method));
    w->Seq(m.operators, [](const OperatorTiming& op, BinaryWriter* w) {
      w->Str(op.name);
      w->F64(op.raw.seconds);
      w->F64(op.unmasked.seconds);
      w->U8(op.is_crowd ? 1 : 0);
    });
    w->U32(static_cast<uint32_t>(m.speculated_rules));
    w->U8(m.spec_rule_reused ? 1 : 0);
    w->U8(m.spec_matcher_reused ? 1 : 0);
    w->U64(m.num_candidate_rules);
    w->U64(m.num_retained_rules);
    w->F64(m.matcher_features_per_pair);
    w->F64(m.matcher_trees_per_pair);
    // Retired compiled-forest layout (vector width, used features, tree
    // count), read by nothing: the slots stay, written as 0, so the format
    // and the snapshots written before keep their layout.
    for (int retired = 0; retired < 3; ++retired) w->U64(0);
    w->U8(m.has_accuracy_estimate ? 1 : 0);
    w->F64(m.accuracy.precision);
    w->F64(m.accuracy.recall);
    w->F64(m.accuracy.precision_margin);
    w->F64(m.accuracy.recall_margin);
    w->U64(m.accuracy.labeled_positives);
    w->U64(m.accuracy.labeled_negatives);
    w->F64(m.accuracy.positive_rate);
    w->F64(m.accuracy.false_negative_rate);
    w->U64(m.accuracy.questions);
    w->F64(m.accuracy.cost);
    w->F64(m.accuracy.crowd_time.seconds);
    // Appended in format version 2 (C_max budget-exhaustion flags).
    w->U8(m.budget_exhausted ? 1 : 0);
    w->U8(m.accuracy.budget_exhausted ? 1 : 0);
  });
  // Ordered: feature vectors, labels and coverage index into the sample.
  WriteSection(kSecSample, &out,
               [&](BinaryWriter* w) { w->Seq(s.sample, PutU32Pair); });
  // Forest text over the blocking layout, then the crowd labels on S.
  WriteSection(kSecBlocker, &out, [&](BinaryWriter* w) {
    w->Str(s.blocker.num_trees() == 0
               ? std::string()
               : SerializeForest(s.blocker, fs.blocking_ids(), fs));
    w->Seq(s.blocker_labeled_indices, PutU32);
    w->Seq(s.blocker_labels,
           [](char l, BinaryWriter* w) { w->U8(static_cast<uint8_t>(l)); });
  });
  // Candidate and retained rules with their coverage, then the sequence.
  WriteSection(kSecRules, &out, [&](BinaryWriter* w) {
    w->Seq(s.candidate_rules, WriteRule);
    w->Seq(s.candidate_coverage, WriteBitmap);
    w->Seq(s.retained_rules, WriteRule);
    w->Seq(s.retained_coverage, WriteBitmap);
    w->Seq(s.out.sequence.rules, WriteRule);
    w->F64(s.out.sequence.selectivity);
  });
  WriteSection(kSecCandidates, &out,
               [&](BinaryWriter* w) { w->Seq(s.out.candidates, PutU32Pair); });
  // Forest text over all features, convergence, predictions.
  WriteSection(kSecMatcher, &out, [&](BinaryWriter* w) {
    w->Str(s.out.matcher.num_trees() == 0
               ? std::string()
               : SerializeForest(s.out.matcher, fs.all_ids(), fs));
    w->U8(s.matcher_converged ? 1 : 0);
    Bitmap preds(s.predictions.size());
    for (size_t i = 0; i < s.predictions.size(); ++i) {
      if (s.predictions[i]) preds.Set(i);
    }
    WriteBitmap(preds, w);
  });
  // Platform state, with the Q&A journal for a JournalingCrowd.
  WriteSection(kSecCrowd, &out,
               [&](BinaryWriter* w) { w->Str(crowd.SaveState()); });
  return out.Take();
}

namespace {

/// Reads the header and the META section into `meta`.
Status ReadHeaderAndMeta(BinaryReader* r, SnapshotMeta* meta) {
  const uint32_t magic = r->U32();
  meta->format_version = r->U32();
  if (!r->ok() || magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a Falcon snapshot (bad magic)");
  }
  if (meta->format_version > kSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot format version " + std::to_string(meta->format_version) +
        " is newer than this build supports (" +
        std::to_string(kSnapshotVersion) + ")");
  }
  return ReadSection(r, kSecMeta, [meta](BinaryReader* pr) {
    meta->session_id = pr->Str();
    meta->config_fingerprint = pr->U64();
    meta->seed = pr->U64();
    const uint32_t next = pr->U32();
    if (next > static_cast<uint32_t>(PipelineStage::kDone)) {
      return Status::InvalidArgument(
          "snapshot names an unknown pipeline stage");
    }
    meta->next = static_cast<PipelineStage>(next);
    meta->used_blocking = pr->U8() != 0;
    meta->table_a_rows = pr->U64();
    meta->table_a_hash = pr->U64();
    meta->table_b_rows = pr->U64();
    meta->table_b_hash = pr->U64();
    return Status::OK();
  });
}

}  // namespace

Result<SnapshotMeta> ReadSnapshotMeta(std::string_view blob) {
  BinaryReader r(blob);
  SnapshotMeta meta;
  FALCON_RETURN_NOT_OK(ReadHeaderAndMeta(&r, &meta));
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
  SnapshotMeta meta;
  FALCON_RETURN_NOT_OK(ReadHeaderAndMeta(&r, &meta));
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
  RunMetrics& m = s.out.metrics;
  const FeatureSet& fs = pipeline->features();
  FALCON_RETURN_NOT_OK(ReadSection(&r, kSecRng, [&](BinaryReader* pr) {
    s.rng.RestoreState(ReadRngState(pr));
    return Status::OK();
  }));
  FALCON_RETURN_NOT_OK(ReadSection(&r, kSecMetrics, [&](BinaryReader* pr) {
    s.bank_credit = VDuration::Seconds(pr->F64());
    m.questions = static_cast<size_t>(pr->U64());
    m.cost = pr->F64();
    m.crowd_time = VDuration::Seconds(pr->F64());
    m.machine_time = VDuration::Seconds(pr->F64());
    m.machine_unmasked = VDuration::Seconds(pr->F64());
    m.total_time = VDuration::Seconds(pr->F64());
    m.candidate_size = static_cast<size_t>(pr->U64());
    const uint32_t method = pr->U32();
    if (method > static_cast<uint32_t>(ApplyMethod::kReduceSplit)) {
      pr->Fail();
    } else {
      m.apply_method = static_cast<ApplyMethod>(method);
    }
    pr->Seq(kOperatorBytes, &m.operators, [](BinaryReader* r) {
      OperatorTiming op;
      op.name = r->Str();
      op.raw = VDuration::Seconds(r->F64());
      op.unmasked = VDuration::Seconds(r->F64());
      op.is_crowd = r->U8() != 0;
      return op;
    });
    m.speculated_rules = static_cast<int>(pr->U32());
    m.spec_rule_reused = pr->U8() != 0;
    m.spec_matcher_reused = pr->U8() != 0;
    m.num_candidate_rules = static_cast<size_t>(pr->U64());
    m.num_retained_rules = static_cast<size_t>(pr->U64());
    m.matcher_features_per_pair = pr->F64();
    m.matcher_trees_per_pair = pr->F64();
    for (int retired = 0; retired < 3; ++retired) pr->U64();
    m.has_accuracy_estimate = pr->U8() != 0;
    m.accuracy.precision = pr->F64();
    m.accuracy.recall = pr->F64();
    m.accuracy.precision_margin = pr->F64();
    m.accuracy.recall_margin = pr->F64();
    m.accuracy.labeled_positives = static_cast<size_t>(pr->U64());
    m.accuracy.labeled_negatives = static_cast<size_t>(pr->U64());
    m.accuracy.positive_rate = pr->F64();
    m.accuracy.false_negative_rate = pr->F64();
    m.accuracy.questions = static_cast<size_t>(pr->U64());
    m.accuracy.cost = pr->F64();
    m.accuracy.crowd_time = VDuration::Seconds(pr->F64());
    // A version-1 section ends here; its flags keep their default (false).
    if (meta.format_version >= 2) {
      m.budget_exhausted = pr->U8() != 0;
      m.accuracy.budget_exhausted = pr->U8() != 0;
    }
    return Status::OK();
  }));
  FALCON_RETURN_NOT_OK(ReadSection(&r, kSecSample, [&](BinaryReader* pr) {
    pr->Seq(kPairBytes, &s.sample, GetU32Pair);
    return Status::OK();
  }));
  FALCON_RETURN_NOT_OK(ReadSection(&r, kSecBlocker, [&](BinaryReader* pr) {
    FALCON_ASSIGN_OR_RETURN(s.blocker,
                            ReadForest(pr->Str(), fs, fs.blocking_ids()));
    pr->Seq(4, &s.blocker_labeled_indices, GetU32);
    pr->Seq(1, &s.blocker_labels,
            [](BinaryReader* r) { return static_cast<char>(r->U8()); });
    return Status::OK();
  }));
  FALCON_RETURN_NOT_OK(ReadSection(&r, kSecRules, [&](BinaryReader* pr) {
    pr->Seq(kRuleBytes, &s.candidate_rules, ReadRule);
    pr->Seq(kBitmapBytes, &s.candidate_coverage, ReadBitmap);
    pr->Seq(kRuleBytes, &s.retained_rules, ReadRule);
    pr->Seq(kBitmapBytes, &s.retained_coverage, ReadBitmap);
    pr->Seq(kRuleBytes, &s.out.sequence.rules, ReadRule);
    s.out.sequence.selectivity = pr->F64();
    return Status::OK();
  }));
  FALCON_RETURN_NOT_OK(ReadSection(&r, kSecCandidates, [&](BinaryReader* pr) {
    pr->Seq(kPairBytes, &s.out.candidates, GetU32Pair);
    return Status::OK();
  }));
  FALCON_RETURN_NOT_OK(ReadSection(&r, kSecMatcher, [&](BinaryReader* pr) {
    FALCON_ASSIGN_OR_RETURN(s.out.matcher,
                            ReadForest(pr->Str(), fs, fs.all_ids()));
    s.matcher_converged = pr->U8() != 0;
    const Bitmap preds = ReadBitmap(pr);
    s.predictions.assign(preds.size(), 0);
    for (size_t i = 0; i < preds.size(); ++i) {
      s.predictions[i] = preds.Get(i) ? 1 : 0;
    }
    return Status::OK();
  }));
  s.next = meta.next;
  m.used_blocking = meta.used_blocking;
  FALCON_RETURN_NOT_OK(ValidateState(s, a, b, fs));
  std::string crowd_blob;
  FALCON_RETURN_NOT_OK(ReadSection(&r, kSecCrowd, [&](BinaryReader* pr) {
    crowd_blob = pr->Str();
    return Status::OK();
  }));
  FALCON_RETURN_NOT_OK(crowd->RestoreState(crowd_blob));
  if (!r.exhausted()) {
    return Status::IoError("snapshot has trailing bytes after last section");
  }

  // Matches are derived: the predicted candidates.
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
