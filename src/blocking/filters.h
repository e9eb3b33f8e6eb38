// Filters and index probing for blocking rules (Sections 7.2-7.4, Alg. 1).
//
// Each keep-predicate of the positive CNF rule Q is assigned filters:
//   - equivalence filter (hash index)       exact_match
//   - range filter (B-tree index)           abs_diff / rel_diff
//   - length filter (token-set sizes)       Jaccard / Dice / cosine
//   - prefix filter (inverted index)        Jaccard / Dice / cosine /
//                                           overlap / Levenshtein
//   - position filter (postings positions)  Jaccard / Dice / cosine
// The B-tree is stored as its sorted leaf level (index/btree_index.h). The
// length filter reads InvertedIndex::set_size, so it has no index of its own.
// A filter is a necessary condition: if it rejects (a,b), the predicate
// cannot hold; survivors still get the full rule sequence applied.
//
// Missing values: an A-row with a missing value for a predicate's attribute
// is appended to every probe result (its predicate might hold vacuously —
// NaN cannot prove a non-match); a B-row with a missing value makes the
// predicate unfilterable for that row (candidates = all of A).
//
// Unlike per-threshold prefix indexes, the inverted index stores the FULL
// reordered token list of every A-row with positions. One index therefore
// serves every predicate over the same (attribute, tokenization); the
// index-side prefix bound is enforced at probe time from the posting's
// position and set size. This mirrors Falcon's reuse of one index across the
// 20 candidate rules during masking (Section 10.2).
#ifndef FALCON_BLOCKING_FILTERS_H_
#define FALCON_BLOCKING_FILTERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "index/btree_index.h"
#include "index/hash_index.h"
#include "index/inverted_index.h"
#include "index/token_ordering.h"
#include "rules/rule.h"
#include "table/table.h"
#include "table/token_store.h"
#include "text/token_dictionary.h"

namespace falcon {

/// The kinds of indexes a predicate may need. kTokenOrdering is not used by
/// predicates directly; it names the global token ordering (MR jobs 1-2 of
/// Section 7.5) that the masking optimizer prebuilds while al_matcher
/// crowdsources, before the blocking rules are known.
enum class IndexKind { kNone, kHash, kBTree, kToken, kTokenOrdering };

/// What one predicate needs from the catalog.
struct IndexNeed {
  IndexKind kind = IndexKind::kNone;
  int col_a = -1;
  Tokenization tok = Tokenization::kWord;

  bool operator<(const IndexNeed& o) const {
    if (kind != o.kind) return kind < o.kind;
    if (col_a != o.col_a) return col_a < o.col_a;
    return tok < o.tok;
  }
  bool operator==(const IndexNeed& o) const {
    return kind == o.kind && col_a == o.col_a && tok == o.tok;
  }
};

/// Classifies a keep-predicate: which index it needs (kNone = unfilterable,
/// the predicate passes every pair).
IndexNeed ClassifyPredicate(const Predicate& pred, const FeatureSet& fs);

/// Holds the indexes built so far over table A, plus the token dictionary
/// and per-table token stores the dictionary-encoded probe path reads.
/// Move-only (stores and orderings point into the owned dictionary).
class IndexCatalog {
 public:
  IndexCatalog() = default;
  IndexCatalog(const IndexCatalog&) = delete;
  IndexCatalog& operator=(const IndexCatalog&) = delete;
  IndexCatalog(IndexCatalog&&) = default;
  IndexCatalog& operator=(IndexCatalog&&) = default;

  const HashIndex* hash(int col_a) const;
  const BTreeIndex* btree(int col_a) const;
  /// Inverted index over A's token sets, reordered by ordering(col_a, tok).
  const InvertedIndex* inverted(int col_a, Tokenization tok) const;
  /// Global token ordering (MR jobs 1-2 of Section 7.5): prebuilt during
  /// masking or built first by the inverted index's build.
  const TokenOrdering* ordering(int col_a, Tokenization tok) const;

  /// The shared token dictionary, created on first use. One dictionary spans
  /// every table's store so ids are comparable across tables.
  TokenDictionary* mutable_dict();
  const TokenDictionary* dict() const { return dict_.get(); }

  /// The token store for `table`, created (empty) on first use. Views are
  /// filled by IndexBuilder; `table` must outlive the catalog.
  TokenStore* mutable_store(const Table* table);
  const TokenStore* store(const Table* table) const;

  bool Has(const IndexNeed& need) const;
  void PutHash(int col_a, HashIndex idx);
  void PutBTree(int col_a, BTreeIndex idx);
  /// `idx` must have been built with ordering(col_a, tok); kToken needs both.
  void PutInverted(int col_a, Tokenization tok, InvertedIndex idx);
  void PutOrdering(int col_a, Tokenization tok, TokenOrdering ordering);

  /// Memory footprint of the indexes satisfying `needs` (0 for kNone needs;
  /// missing indexes contribute 0 — call Has() first). A kToken need counts
  /// its ordering plus its inverted index, the two structures its probe
  /// reads. Counts only mapper-resident structures: the dictionary and token
  /// stores are not loaded into mappers (probing needs only the ordering's
  /// rank vector; the B-side store streams with the input split).
  size_t MemoryUsageFor(const std::vector<IndexNeed>& needs) const;
  /// Every index, ordering, the dictionary and the token stores, each
  /// counted once.
  size_t TotalMemoryUsage() const;

  /// Merged posting-length profile of every inverted index — the
  /// catalog-wide block-skew signal the index build collected for free (see
  /// BlockProfile). Empty profile when no token indexes exist.
  BlockProfile MergedBlockProfile() const;

 private:
  std::map<int, HashIndex> hash_;
  std::map<int, BTreeIndex> btree_;
  std::map<std::pair<int, int>, InvertedIndex> inverted_;
  std::map<std::pair<int, int>, TokenOrdering> orderings_;
  /// unique_ptr: stable address for the string_view keys and the pointers
  /// held by stores/orderings.
  std::unique_ptr<TokenDictionary> dict_;
  std::map<const Table*, std::unique_ptr<TokenStore>> stores_;
};

/// Result of probing: either an explicit candidate row list or "all of A".
struct CandidateSet {
  bool all = false;
  std::vector<RowId> rows;
};

/// Probes the catalog's filters for candidate A-rows, per B-row.
///
/// A ClauseProber is bound to one (catalog, feature set, |A|) and reused
/// across B-rows. Token predicates read the B-row's interned id set straight
/// out of the catalog's B-side token store, which must hold a view for every
/// token predicate probed (IndexBuilder::EnsureTokenStores builds them).
///
/// Thread safety: probing is safe from multiple threads concurrently (map
/// tasks share one prober). The catalog — dictionary, stores, indexes — is
/// read-only during probing; all mutable working state (rank/stamp/count
/// scratch) lives in thread-local storage keyed by a process-unique prober
/// id, so threads never contend and a thread moving between probers (or a
/// prober constructed at a recycled address) never sees stale state.
class ClauseProber {
 public:
  ClauseProber(const IndexCatalog* catalog, const FeatureSet* fs,
               size_t num_a_rows);

  /// FindProbableCandidates of Algorithm 1: A-rows that may satisfy `pred`
  /// against B-row `b`. `all` if the predicate is unfilterable (for this b).
  CandidateSet ProbePredicate(const Predicate& pred, const Table& b_table,
                              RowId b) const;

  /// Union over the clause's predicates.
  CandidateSet ProbeClause(const CnfClause& clause, const Table& b_table,
                           RowId b) const;

  /// True if the clause can filter for this B-row (no unfilterable
  /// predicate, no missing B value among its predicates' attributes).
  bool ClauseActive(const CnfClause& clause, const Table& b_table,
                    RowId b) const;

  /// Intersection over all active clauses of the CNF rule; `all` if no
  /// clause is active.
  CandidateSet ProbeRule(const CnfRule& rule, const Table& b_table,
                         RowId b) const;

  size_t num_a_rows() const { return num_a_rows_; }

 private:
  /// Shape of the current B-row's token set for probing: the ranked ids live
  /// in this thread's scratch, sorted ascending by rank (= the global token
  /// order); unranked tokens yield no postings and occupy the first
  /// `num_unknown` positions (TokenOrdering sorts them before every rank).
  struct ProbeShape {
    size_t y = 0;            ///< total distinct tokens (unranked included)
    size_t num_unknown = 0;  ///< tokens without a rank in the ordering
  };
  ProbeShape RankedIdsFor(const Table& b_table, RowId b, int col_b,
                          Tokenization tok, const TokenOrdering& ord) const;

  const IndexCatalog* catalog_;
  const FeatureSet* fs_;
  size_t num_a_rows_;
  /// Process-unique id keying this prober's thread-local scratch. An id (not
  /// `this`) is used because stack addresses are recycled: a fresh prober at
  /// the same address must not inherit the previous prober's scratch.
  uint64_t scratch_id_;
};

/// Required overlap alpha(x, y) for set-based predicates (ceil applied);
/// returns 1 for functions without a usable count bound (overlap,
/// Levenshtein). Exposed for tests.
size_t RequiredOverlap(SimFunction fn, double t, size_t x, size_t y);

/// Bounds [lo, hi] on |X| given |Y| = y for sim >= t; {1, SIZE_MAX} when the
/// function admits no length bound. Exposed for tests.
std::pair<size_t, size_t> LengthBounds(SimFunction fn, double t, size_t y);

}  // namespace falcon

#endif  // FALCON_BLOCKING_FILTERS_H_
