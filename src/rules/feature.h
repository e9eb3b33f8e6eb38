// Feature generation (Section 8, Figure 5 of the paper).
//
// A feature is sim(a.x, b.y): a similarity function applied to an attribute
// correspondence between tables A and B. Falcon generates features fully
// automatically from attribute types and characteristics; a subset of
// "relatively fast" functions is additionally marked usable for blocking.
//
// Missing values: if either side of a correspondence is missing, the feature
// value is NaN. Downstream, decision trees route NaN to the majority branch
// and blocking-rule predicates evaluate to false on NaN (a missing value can
// never prove a non-match).
#ifndef FALCON_RULES_FEATURE_H_
#define FALCON_RULES_FEATURE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "learn/decision_tree.h"
#include "table/table.h"
#include "table/token_store.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace falcon {

/// One generated feature.
struct Feature {
  int id = -1;  ///< index within the owning FeatureSet
  SimFunction fn = SimFunction::kExactMatch;
  int col_a = -1;  ///< attribute index in table A
  int col_b = -1;  ///< attribute index in table B
  /// Tokenization for set-based functions; ignored by character/numeric fns.
  Tokenization tok = Tokenization::kWord;
  /// Human-readable name, e.g. "jaccard_word(title,title)".
  std::string name;
  bool usable_for_blocking = false;
  /// Index of the IDF dictionary for TF/IDF features; -1 otherwise. tfidf
  /// and soft_tfidf on one attribute share their dictionary.
  int idf_index = -1;
};

struct FeatureGenOptions {
  /// Include the slow starred functions of Figure 5 (matcher-only features).
  bool include_matcher_only = true;
};

/// The automatically generated feature set for one (A, B) task.
class FeatureSet {
 public:
  /// Generates features for matching `a` against `b`. Attribute
  /// correspondences pair equal (case-insensitive) names with compatible
  /// types; if the schemas share no names, same-position attributes of
  /// compatible type are paired instead.
  static FeatureSet Generate(const Table& a, const Table& b,
                             const FeatureGenOptions& options = {});

  const std::vector<Feature>& features() const { return features_; }
  size_t size() const { return features_.size(); }
  const Feature& feature(int id) const { return features_[id]; }

  /// Ids of features usable for blocking (Figure 5 non-starred rows).
  const std::vector<int>& blocking_ids() const { return blocking_ids_; }
  /// Ids of all features (for the matching stage).
  const std::vector<int>& all_ids() const { return all_ids_; }

  /// Value of feature `id` on the pair (a_row of `a`, b_row of `b`).
  /// NaN if either attribute value is missing.
  double Compute(int id, const Table& a, RowId a_row, const Table& b,
                 RowId b_row) const;

  /// Feature vector over the features in `ids`, in that order.
  FeatureVec ComputeVector(const std::vector<int>& ids, const Table& a,
                           RowId a_row, const Table& b, RowId b_row) const;

  /// Binds the token stores holding each table's interned token sets.
  /// While bound, set-based features compute over integer-id spans instead
  /// of retokenizing strings — byte-identical results, no allocation — and
  /// Prepare builds the views they read. The stores must outlive the
  /// binding; callers owning a shorter-lived catalog must unbind (pass
  /// nullptr, nullptr) before destroying it. Compute falls back to the
  /// string path for any (table, attribute, tokenization) the bound stores
  /// do not cover.
  void BindTokenStores(TokenStore* a_store, TokenStore* b_store) {
    store_a_ = a_store;
    store_b_ = b_store;
  }

  /// Builds, once per row rather than once per pair, what the features in
  /// `ids` read on `a` and `b`:
  ///   - set-based features: the bound stores' views (TokenStore::
  ///     EnsureView), when the stores are bound to `a` and `b`;
  ///   - Monge-Elkan: each row's word list (TokenLists);
  ///   - tfidf and soft_tfidf: each row's TF/IDF vector (TfIdfVectors),
  ///     one per (table, attribute, tokenization, IDF dictionary), which
  ///     both functions share.
  /// Word lists and TF/IDF vectors carry each token's CharSignature, from
  /// which Monge-Elkan and Soft TF/IDF bound Jaro-Winkler.
  /// Compute then reads these instead of retokenizing both values of every
  /// pair; every value stays bitwise what the unprepared path computes.
  /// Idempotent: what is already built is kept. The inputs are derived
  /// state, never serialized. `a` and `b` must outlive them, and Prepare
  /// must not run concurrently with Compute.
  void Prepare(const std::vector<int>& ids, const Table& a, const Table& b);

  /// Exposes the interned token-set views feature `id` would compute over:
  /// true iff `id` is set-based and both bound stores cover the (table,
  /// attribute, tokenization) — i.e. exactly when Compute takes the
  /// dictionary-encoded fast path. Row-independent, so a caller that only
  /// needs intersection counts (RuleApplier, which decides every set
  /// predicate from one) resolves the store lookups once per sequence, then
  /// reads per-row spans off the views directly. Callers must still honor
  /// per-row missingness (Table::IsMissing), which Compute maps to NaN; a
  /// missing value's row is an empty span.
  bool TokenViews(int id, const Table& a, const Table& b,
                  const TokenSetView** va, const TokenSetView** vb) const;

 private:
  /// Per-row inputs of one side of a Monge-Elkan or TF/IDF feature, built
  /// by Prepare for one (table, attribute, tokenization, IDF dictionary).
  struct RowInputs {
    const Table* table = nullptr;
    int col = -1;
    Tokenization tok = Tokenization::kWord;
    int idf_index = -1;  ///< -1: Monge-Elkan's word lists
    TokenLists words;    ///< Monge-Elkan, per row
    TfIdfVectors tfidf;  ///< TF/IDF, per row
  };
  const RowInputs* EnsureRowInputs(const Feature& f, const Table& t, int col);
  /// The inputs Prepare built for feature `id` on `a` and `b`, or nulls if
  /// it has not prepared them for these tables.
  std::pair<const RowInputs*, const RowInputs*> PreparedInputs(
      int id, const Table& a, const Table& b) const;

  std::vector<Feature> features_;
  std::vector<int> blocking_ids_;
  std::vector<int> all_ids_;
  /// One dictionary per (A attribute, tokenization); see Feature::idf_index.
  std::vector<std::unique_ptr<IdfDict>> idfs_;
  /// Optional dictionary-encoded fast path (not owned); see BindTokenStores.
  TokenStore* store_a_ = nullptr;
  TokenStore* store_b_ = nullptr;
  /// Prepared per-row inputs, and the entry each feature id reads on each
  /// side (null until Prepare); see Prepare.
  std::vector<std::unique_ptr<RowInputs>> row_inputs_;
  std::vector<const RowInputs*> inputs_a_;
  std::vector<const RowInputs*> inputs_b_;
};

/// Lazy, memoized per-pair feature evaluation for the fused matching stage.
///
/// Values are addressed by *position* in a layout vector `ids` — the same
/// positions a materialized `ComputeVector(ids, ...)` result would have, and
/// the indices decision trees use into a FeatureVec — and each is computed
/// on first request, then cached for the current pair. The computed bit is
/// tracked separately from the value (epoch stamps), so a NaN missing value
/// memoizes like any other result instead of being recomputed per access.
///
/// Begin() starts a new pair in O(1) and reuses the buffers, so one
/// instance (e.g. a thread_local inside a map task, mirroring RuleApplier's
/// scratch) evaluates millions of pairs without allocating. The buffers are
/// carved from the calling thread's scratch arena (common/arena.h) and
/// re-carved — cheap, from retained pages — whenever the engine's per-task
/// scratch reset invalidates them, so an instance must be used by the thread
/// that calls Begin(). Not thread-safe; use one instance per thread.
class LazyPairFeatures {
 public:
  LazyPairFeatures() = default;

  /// Starts evaluating the pair (`a_row` of `a`, `b_row` of `b`) under the
  /// layout `ids`. All pointees must outlive the evaluation; the previous
  /// pair's cache is invalidated without clearing buffers.
  void Begin(const FeatureSet* fs, const std::vector<int>* ids, const Table* a,
             RowId a_row, const Table* b, RowId b_row);

  /// Value of the feature at layout position `pos`, bitwise equal to
  /// `ComputeVector(ids, ...)[pos]`; computed and memoized on first request.
  double Get(int pos) {
    if (stamp_[pos] != epoch_) {
      values_[pos] = fs_->Compute((*ids_)[pos], *a_, a_row_, *b_, b_row_);
      stamp_[pos] = epoch_;
      ++computed_;
    }
    return values_[pos];
  }

  /// Features computed so far for the current pair (<= ids->size()).
  int computed_count() const { return computed_; }

 private:
  const FeatureSet* fs_ = nullptr;
  const std::vector<int>* ids_ = nullptr;
  const Table* a_ = nullptr;
  const Table* b_ = nullptr;
  RowId a_row_ = 0;
  RowId b_row_ = 0;
  /// Scratch-arena carves (see Begin); capacity_ slots each, re-carved when
  /// the arena generation moves or the layout outgrows them.
  double* values_ = nullptr;
  /// stamp_[pos] == epoch_ iff values_[pos] holds the current pair's value.
  uint32_t* stamp_ = nullptr;
  size_t capacity_ = 0;
  uint64_t generation_ = 0;
  uint32_t epoch_ = 0;
  int computed_ = 0;
};

}  // namespace falcon

#endif  // FALCON_RULES_FEATURE_H_
