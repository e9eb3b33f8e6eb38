// Physical operators for apply_blocking_rules (Sections 7.3 and 10.1).
//
// Six implementations share one contract: given tables A and B, a rule
// sequence R (rewritten internally to the positive CNF rule Q), and the index
// catalog, produce every pair (a, b) in A x B that R does NOT drop — without
// materializing A x B (except for the two prior-work baselines).
//
//   apply_all        all of Q's indexes in every mapper; candidates =
//                    intersection over clauses of the per-clause filter
//                    unions (Algorithm 1).
//   apply_greedy     only the most selective clause's indexes in mappers;
//                    reducers re-check with the full sequence.
//   apply_conjunct   one mapper group per clause, each holding only that
//                    clause's indexes; reducers intersect.
//   apply_predicate  one mapper group per predicate; reducers combine per
//                    the CNF structure.
//   MapSide          prior work [27]: the smaller table in mapper memory,
//                    enumerate A x B in mappers.
//   ReduceSplit      prior work [27]: enumerate A x B, spread evenly over
//                    reducers.
//
// Memory contract: each operator verifies its index (or table) residency
// requirement against the cluster's mapper memory and fails with
// OutOfMemory when violated — this drives the operator-selection rules of
// Section 10.1 and the memory-sweep experiment of Section 11.2.
// SelectApplyMethod applies the same tests, so the operator it picks runs.
// There is no time limit: every operator that fits runs to completion (the
// Section 11.2 bench reports the baselines' paper-scale kills by
// extrapolating their measured time).
#ifndef FALCON_BLOCKING_APPLY_H_
#define FALCON_BLOCKING_APPLY_H_

#include <vector>

#include "blocking/filters.h"
#include "mapreduce/cluster.h"
#include "rules/rule.h"

namespace falcon {

/// A surviving candidate pair (row in A, row in B).
using CandidatePair = std::pair<RowId, RowId>;

class TokenSetView;

enum class ApplyMethod {
  kApplyAll,
  kApplyGreedy,
  kApplyConjunct,
  kApplyPredicate,
  kMapSide,
  kReduceSplit,
};

const char* ApplyMethodName(ApplyMethod m);

struct ApplyResult {
  std::vector<CandidatePair> pairs;
  /// Virtual duration of all jobs this operator ran.
  VDuration time;
  /// Stats of the main job (for the speculative-execution timeline).
  JobStats main_job;
  /// Candidate pairs examined by reducers (filter effectiveness metric).
  size_t candidates_examined = 0;
  /// Build-time block-skew profile of the indexes this operator probed
  /// (empty for the index-free baselines). Collected during index build —
  /// inside the crowd-masking window — not during apply.
  BlockProfile index_profile;
};

/// Evaluates a rule sequence on raw tuple pairs with per-pair feature
/// memoization (Section 7.3, optimization 3 is applied to the sequence
/// beforehand via SimplifySequence).
///
/// Set-based predicates are decided from intersection counts. For fixed
/// sizes |x| and |y|, a Jaccard, Dice, Overlap or Cosine score is monotone
/// nondecreasing in |x ∩ y| (and IEEE division is monotone), so the verdict
/// of `score <op> value` flips at most once as the count grows. A predicate
/// whose interned token views resolve (FeatureSet::TokenViews) therefore
/// keeps, per size pair, its flip point t: the smallest count whose verdict
/// differs from the verdict at count 0. Keep decides it by asking whether
/// the count reaches t, with the same SetSimFromCounts formula behind t as
/// behind the value path, so every decision is bit-identical to computing
/// the feature. Other predicates compute their (memoized) feature value.
///
/// Thread safety: Keep() may be called concurrently from multiple threads —
/// the per-pair memoization scratch is thread-local and fully reset on every
/// call.
class RuleApplier {
 public:
  RuleApplier(const RuleSequence& seq, const FeatureSet* fs, const Table* a,
              const Table* b);

  /// True if the sequence does NOT drop (a_row, b_row).
  bool Keep(RowId a_row, RowId b_row) const;

 private:
  /// Flip points are tabulated for set sizes below this on both sides;
  /// larger sizes binary-search theirs per pair.
  static constexpr size_t kFlipTableSide = 64;

  struct BoundPredicate {
    /// Index into the memoized scratch: the feature value, or for a
    /// count-decided predicate the intersection count.
    int slot;
    int feature_id;
    PredOp op;
    double value;
    /// The rest is bound only for count-decided predicates (non-empty
    /// `flips`): the feature's function, columns and interned token-set
    /// views, and whether this predicate is its slot's only reader.
    SimFunction fn = SimFunction::kJaccard;
    int col_a = -1;
    int col_b = -1;
    const TokenSetView* view_a = nullptr;
    const TokenSetView* view_b = nullptr;
    bool sole_reader = false;
    /// `(t << 1) | verdict_at_0` for |x| * kFlipTableSide + |y|, both sizes
    /// below kFlipTableSide; t is min(|x|,|y|) + 1 when the verdict never
    /// flips. Empty for value-path predicates.
    std::vector<uint8_t> flips = {};
  };
  std::vector<std::vector<BoundPredicate>> rules_;
  const FeatureSet* fs_;
  const Table* a_;
  const Table* b_;
  size_t num_slots_ = 0;  ///< memoization slots; scratch lives in TLS
};

/// Virtual seconds a mapper takes to load `bytes` of indexes or of an
/// in-memory table (modeled at 200 MB/s). The operators charge it to each
/// map task through JobOptions::map_setup_seconds.
double IndexLoadSeconds(size_t bytes);

/// Runs one physical operator. The rule sequence is simplified internally.
/// Fails with OutOfMemory when the operator's indexes (or table) exceed
/// mapper memory, and with InvalidArgument on an empty sequence, on an index
/// operator without a filterable clause, or on a filterable token predicate
/// whose B-side store view is not built.
Result<ApplyResult> ApplyBlockingRules(const Table& a, const Table& b,
                                       const RuleSequence& seq,
                                       const FeatureSet& fs,
                                       const IndexCatalog& catalog,
                                       Cluster* cluster, ApplyMethod method);

/// Section 10.1 operator selection: picks apply_greedy when the most
/// selective conjunct is nearly as selective as Q (ratio > 0.8); otherwise
/// the first of apply_all / apply_conjunct / apply_predicate whose indexes
/// fit in mapper memory; otherwise MapSide if the smaller table fits;
/// otherwise ReduceSplit.
ApplyMethod SelectApplyMethod(const Table& a, const Table& b,
                              const RuleSequence& seq, const FeatureSet& fs,
                              const IndexCatalog& catalog,
                              const Cluster& cluster);

}  // namespace falcon

#endif  // FALCON_BLOCKING_APPLY_H_
