#include "rules/feature.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <map>

#include "common/arena.h"
#include "common/strings.h"
#include "table/profile.h"

namespace falcon {
namespace {

struct FeatureTemplate {
  SimFunction fn;
  Tokenization tok;
  bool blocking;
};

// Figure 5 rows. The starred functions are matcher-only.
std::vector<FeatureTemplate> TemplatesFor(AttrCharacteristic c,
                                          bool include_matcher_only) {
  std::vector<FeatureTemplate> out;
  auto add = [&](SimFunction fn, Tokenization tok, bool blocking) {
    if (blocking || include_matcher_only) out.push_back({fn, tok, blocking});
  };
  switch (c) {
    case AttrCharacteristic::kSingleWordString:
      add(SimFunction::kExactMatch, Tokenization::kWord, true);
      add(SimFunction::kJaccard, Tokenization::kQgram3, true);
      add(SimFunction::kOverlap, Tokenization::kQgram3, true);
      add(SimFunction::kDice, Tokenization::kQgram3, true);
      add(SimFunction::kLevenshtein, Tokenization::kQgram3, true);
      add(SimFunction::kJaro, Tokenization::kWord, false);
      add(SimFunction::kJaroWinkler, Tokenization::kWord, false);
      break;
    case AttrCharacteristic::kShortString:
      add(SimFunction::kJaccard, Tokenization::kQgram3, true);
      add(SimFunction::kOverlap, Tokenization::kQgram3, true);
      add(SimFunction::kDice, Tokenization::kQgram3, true);
      add(SimFunction::kJaccard, Tokenization::kWord, true);
      add(SimFunction::kOverlap, Tokenization::kWord, true);
      add(SimFunction::kDice, Tokenization::kWord, true);
      add(SimFunction::kCosine, Tokenization::kWord, true);
      add(SimFunction::kMongeElkan, Tokenization::kWord, false);
      add(SimFunction::kNeedlemanWunsch, Tokenization::kWord, false);
      add(SimFunction::kSmithWaterman, Tokenization::kWord, false);
      add(SimFunction::kSmithWatermanGotoh, Tokenization::kWord, false);
      break;
    case AttrCharacteristic::kMediumString:
      add(SimFunction::kJaccard, Tokenization::kWord, true);
      add(SimFunction::kOverlap, Tokenization::kWord, true);
      add(SimFunction::kDice, Tokenization::kWord, true);
      add(SimFunction::kCosine, Tokenization::kWord, true);
      add(SimFunction::kMongeElkan, Tokenization::kWord, false);
      break;
    case AttrCharacteristic::kLongString:
      add(SimFunction::kJaccard, Tokenization::kWord, true);
      add(SimFunction::kOverlap, Tokenization::kWord, true);
      add(SimFunction::kDice, Tokenization::kWord, true);
      add(SimFunction::kCosine, Tokenization::kWord, true);
      add(SimFunction::kTfIdf, Tokenization::kWord, false);
      add(SimFunction::kSoftTfIdf, Tokenization::kWord, false);
      break;
    case AttrCharacteristic::kNumeric:
      add(SimFunction::kExactMatch, Tokenization::kWord, true);
      add(SimFunction::kAbsDiff, Tokenization::kWord, true);
      add(SimFunction::kRelDiff, Tokenization::kWord, true);
      add(SimFunction::kLevenshtein, Tokenization::kQgram3, true);
      break;
  }
  return out;
}

std::string FeatureName(const FeatureTemplate& t, const std::string& attr_a,
                        const std::string& attr_b) {
  std::string fn = SimFunctionName(t.fn);
  if (IsSetBased(t.fn) || t.fn == SimFunction::kLevenshtein) {
    fn += std::string("_") + TokenizationName(t.tok);
  }
  return fn + "(" + attr_a + "," + attr_b + ")";
}

}  // namespace

FeatureSet FeatureSet::Generate(const Table& a, const Table& b,
                                const FeatureGenOptions& options) {
  FeatureSet fs;
  std::map<std::pair<int, Tokenization>, int> idf_of;
  auto prof_a = ProfileTable(a);
  auto prof_b = ProfileTable(b);

  // Attribute correspondences: equal names (case-insensitive) first.
  std::vector<std::pair<int, int>> pairs;
  for (size_t ca = 0; ca < prof_a.size(); ++ca) {
    for (size_t cb = 0; cb < prof_b.size(); ++cb) {
      if (ToLower(prof_a[ca].name) == ToLower(prof_b[cb].name)) {
        pairs.emplace_back(static_cast<int>(ca), static_cast<int>(cb));
        break;
      }
    }
  }
  if (pairs.empty()) {
    // Fall back to positional pairing of type-compatible attributes.
    size_t n = std::min(prof_a.size(), prof_b.size());
    for (size_t c = 0; c < n; ++c) {
      bool num_a = prof_a[c].characteristic == AttrCharacteristic::kNumeric;
      bool num_b = prof_b[c].characteristic == AttrCharacteristic::kNumeric;
      if (num_a == num_b) {
        pairs.emplace_back(static_cast<int>(c), static_cast<int>(c));
      }
    }
  }

  for (auto [ca, cb] : pairs) {
    // When characteristics differ, the lower row of Figure 5 wins.
    AttrCharacteristic c = std::max(prof_a[ca].characteristic,
                                    prof_b[cb].characteristic);
    for (const auto& tmpl : TemplatesFor(c, options.include_matcher_only)) {
      Feature f;
      f.id = static_cast<int>(fs.features_.size());
      f.fn = tmpl.fn;
      f.col_a = ca;
      f.col_b = cb;
      f.tok = tmpl.tok;
      f.name = FeatureName(tmpl, prof_a[ca].name, prof_b[cb].name);
      f.usable_for_blocking = tmpl.blocking;
      if (tmpl.fn == SimFunction::kTfIdf ||
          tmpl.fn == SimFunction::kSoftTfIdf) {
        // One IDF dictionary per (A attribute, tokenization), over A, which
        // tfidf and soft_tfidf share.
        auto it = idf_of.find({ca, tmpl.tok});
        if (it == idf_of.end()) {
          auto idf = std::make_unique<IdfDict>();
          for (RowId r = 0; r < a.num_rows(); ++r) {
            if (a.IsMissing(r, ca)) continue;
            idf->AddDocument(ToTokenSet(Tokenize(a.Get(r, ca), tmpl.tok)));
          }
          idf->Finalize();
          it = idf_of.emplace(std::make_pair(ca, tmpl.tok),
                              static_cast<int>(fs.idfs_.size()))
                   .first;
          fs.idfs_.push_back(std::move(idf));
        }
        f.idf_index = it->second;
      }
      fs.all_ids_.push_back(f.id);
      if (f.usable_for_blocking) fs.blocking_ids_.push_back(f.id);
      fs.features_.push_back(std::move(f));
    }
  }
  fs.inputs_a_.assign(fs.features_.size(), nullptr);
  fs.inputs_b_.assign(fs.features_.size(), nullptr);
  return fs;
}

void FeatureSet::Prepare(const std::vector<int>& ids, const Table& a,
                         const Table& b) {
  const bool stores = store_a_ != nullptr && store_a_->table() == &a &&
                      store_b_ != nullptr && store_b_->table() == &b;
  for (int id : ids) {
    const Feature& f = features_[id];
    switch (f.fn) {
      case SimFunction::kJaccard:
      case SimFunction::kDice:
      case SimFunction::kOverlap:
      case SimFunction::kCosine:
        if (stores) {
          store_a_->EnsureView(f.col_a, f.tok);
          store_b_->EnsureView(f.col_b, f.tok);
        }
        break;
      case SimFunction::kMongeElkan:
      case SimFunction::kTfIdf:
      case SimFunction::kSoftTfIdf:
        inputs_a_[id] = EnsureRowInputs(f, a, f.col_a);
        inputs_b_[id] = EnsureRowInputs(f, b, f.col_b);
        break;
      default:
        break;
    }
  }
}

const FeatureSet::RowInputs* FeatureSet::EnsureRowInputs(const Feature& f,
                                                         const Table& t,
                                                         int col) {
  // Monge-Elkan always splits into words (see Compute).
  const Tokenization tok =
      f.fn == SimFunction::kMongeElkan ? Tokenization::kWord : f.tok;
  for (const auto& in : row_inputs_) {
    if (in->table == &t && in->col == col && in->tok == tok &&
        in->idf_index == f.idf_index) {
      return in.get();
    }
  }
  auto in = std::make_unique<RowInputs>();
  in->table = &t;
  in->col = col;
  in->tok = tok;
  in->idf_index = f.idf_index;
  // Missing rows get empty inputs; Compute returns NaN before reading them.
  for (RowId r = 0; r < t.num_rows(); ++r) {
    std::vector<std::string> tokens;
    if (!t.IsMissing(r, col)) tokens = Tokenize(t.Get(r, col), tok);
    if (f.idf_index < 0) {
      in->words.Add(std::move(tokens));
    } else {
      in->tfidf.Add(tokens, *idfs_[f.idf_index]);
    }
  }
  row_inputs_.push_back(std::move(in));
  return row_inputs_.back().get();
}

namespace {

/// The bound store's view for (t, col, tok), or nullptr if the store is
/// absent, bound to a different table, or lacks that view.
const TokenSetView* ViewFor(const TokenStore* store, const Table& t, int col,
                            Tokenization tok) {
  if (store == nullptr || store->table() != &t) return nullptr;
  return store->view(col, tok);
}

/// Set similarity over two sorted-unique sequences; dispatches on SimFunction
/// for both the id-span and string-vector representations.
template <typename Set>
double SetSim(SimFunction fn, const Set& x, const Set& y) {
  switch (fn) {
    case SimFunction::kJaccard:
      return JaccardSim(x, y);
    case SimFunction::kDice:
      return DiceSim(x, y);
    case SimFunction::kOverlap:
      return OverlapSim(x, y);
    default:
      return CosineSim(x, y);
  }
}

}  // namespace

bool FeatureSet::TokenViews(int id, const Table& a, const Table& b,
                            const TokenSetView** va,
                            const TokenSetView** vb) const {
  const Feature& f = features_[id];
  if (!IsSetBased(f.fn)) return false;
  const TokenSetView* view_a = ViewFor(store_a_, a, f.col_a, f.tok);
  const TokenSetView* view_b = ViewFor(store_b_, b, f.col_b, f.tok);
  if (view_a == nullptr || view_b == nullptr) return false;
  *va = view_a;
  *vb = view_b;
  return true;
}

std::pair<const FeatureSet::RowInputs*, const FeatureSet::RowInputs*>
FeatureSet::PreparedInputs(int id, const Table& a, const Table& b) const {
  const RowInputs* in_a = inputs_a_[id];
  const RowInputs* in_b = inputs_b_[id];
  if (in_a == nullptr || in_a->table != &a || in_b == nullptr ||
      in_b->table != &b) {
    return {nullptr, nullptr};
  }
  return {in_a, in_b};
}

double FeatureSet::Compute(int id, const Table& a, RowId a_row,
                           const Table& b, RowId b_row) const {
  const Feature& f = features_[id];
  if (a.IsMissing(a_row, f.col_a) || b.IsMissing(b_row, f.col_b)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::string_view va = a.Get(a_row, f.col_a);
  std::string_view vb = b.Get(b_row, f.col_b);
  switch (f.fn) {
    case SimFunction::kExactMatch:
      return ExactMatchSim(va, vb);
    case SimFunction::kLevenshtein:
      return LevenshteinSim(va, vb);
    case SimFunction::kJaccard:
    case SimFunction::kDice:
    case SimFunction::kOverlap:
    case SimFunction::kCosine: {
      // Dictionary-encoded fast path: both sides' interned sets share one
      // dictionary, so set similarity over id spans is byte-identical to the
      // string computation (it depends only on intersection and set sizes).
      const TokenSetView* view_a = ViewFor(store_a_, a, f.col_a, f.tok);
      const TokenSetView* view_b = ViewFor(store_b_, b, f.col_b, f.tok);
      if (view_a != nullptr && view_b != nullptr) {
        return SetSim(f.fn, view_a->row(a_row), view_b->row(b_row));
      }
      return SetSim(f.fn, ToTokenSet(Tokenize(va, f.tok)),
                    ToTokenSet(Tokenize(vb, f.tok)));
    }
    case SimFunction::kAbsDiff: {
      double na = a.GetNumeric(a_row, f.col_a);
      double nb = b.GetNumeric(b_row, f.col_b);
      if (std::isnan(na) || std::isnan(nb)) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return AbsDiff(na, nb);
    }
    case SimFunction::kRelDiff: {
      double na = a.GetNumeric(a_row, f.col_a);
      double nb = b.GetNumeric(b_row, f.col_b);
      if (std::isnan(na) || std::isnan(nb)) {
        return std::numeric_limits<double>::quiet_NaN();
      }
      return RelDiff(na, nb);
    }
    case SimFunction::kJaro:
      return JaroSim(va, vb);
    case SimFunction::kJaroWinkler:
      return JaroWinklerSim(va, vb);
    case SimFunction::kMongeElkan:
      if (auto [in_a, in_b] = PreparedInputs(id, a, b); in_a != nullptr) {
        return MongeElkanSim(in_a->words[a_row], in_b->words[b_row]);
      }
      return MongeElkanSim(WordTokens(va), WordTokens(vb));
    case SimFunction::kNeedlemanWunsch:
      return NeedlemanWunschSim(va, vb);
    case SimFunction::kSmithWaterman:
      return SmithWatermanSim(va, vb);
    case SimFunction::kSmithWatermanGotoh:
      return SmithWatermanGotohSim(va, vb);
    case SimFunction::kTfIdf:
    case SimFunction::kSoftTfIdf: {
      if (auto [in_a, in_b] = PreparedInputs(id, a, b); in_a != nullptr) {
        TfIdfView x = in_a->tfidf[a_row];
        TfIdfView y = in_b->tfidf[b_row];
        return f.fn == SimFunction::kTfIdf ? TfIdfSim(x, y)
                                           : SoftTfIdfSim(x, y);
      }
      const IdfDict& idf = *idfs_[f.idf_index];
      return f.fn == SimFunction::kTfIdf
                 ? TfIdfSim(Tokenize(va, f.tok), Tokenize(vb, f.tok), idf)
                 : SoftTfIdfSim(Tokenize(va, f.tok), Tokenize(vb, f.tok), idf);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

FeatureVec FeatureSet::ComputeVector(const std::vector<int>& ids,
                                     const Table& a, RowId a_row,
                                     const Table& b, RowId b_row) const {
  FeatureVec fv;
  fv.reserve(ids.size());
  for (int id : ids) fv.push_back(Compute(id, a, a_row, b, b_row));
  return fv;
}

void LazyPairFeatures::Begin(const FeatureSet* fs, const std::vector<int>* ids,
                             const Table* a, RowId a_row, const Table* b,
                             RowId b_row) {
  fs_ = fs;
  ids_ = ids;
  a_ = a;
  b_ = b;
  a_row_ = a_row;
  b_row_ = b_row;
  computed_ = 0;
  // A fresh epoch invalidates every cached slot in O(1). The buffers are
  // re-carved from the thread's scratch arena when its generation moves (the
  // engine resets scratch at task end) or the layout outgrows them; on a
  // re-carve, layout-size change, or epoch wrap (once per ~4B pairs) the
  // stamps are rebuilt.
  ScratchArena& scratch = ThreadScratch();
  const size_t n = ids->size();
  if (generation_ != scratch.generation() || capacity_ < n) {
    values_ = scratch.arena()->AllocateArray<double>(n);
    stamp_ = scratch.arena()->AllocateArray<uint32_t>(n);
    capacity_ = n;
    generation_ = scratch.generation();
    std::fill(stamp_, stamp_ + n, 0u);
    epoch_ = 1;
  } else if (epoch_ == std::numeric_limits<uint32_t>::max()) {
    std::fill(stamp_, stamp_ + n, 0u);
    epoch_ = 1;
  } else {
    ++epoch_;
  }
}

}  // namespace falcon
