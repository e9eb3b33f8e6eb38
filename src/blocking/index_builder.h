// Index construction on the cluster (Section 7.5 of the paper).
//
// For every (attribute, tokenization) pair referenced by the positive rule Q,
// three MapReduce jobs run in sequence: (1) count token frequencies over A,
// (2) sort tokens into the global ordering, (3) reorder every A-row's token
// set by that ordering and build the inverted index. Hash and B-tree indexes
// for equivalence/range filters are built by map-only jobs. The builder is
// incremental: indexes already present in the catalog are skipped — this is
// exactly what makes the masking optimization O1 pay off (indexes prebuilt
// during crowdsourcing are found and reused here).
#ifndef FALCON_BLOCKING_INDEX_BUILDER_H_
#define FALCON_BLOCKING_INDEX_BUILDER_H_

#include <vector>

#include "blocking/filters.h"
#include "mapreduce/cluster.h"
#include "rules/rule.h"

namespace falcon {

/// Builds catalog indexes over table A via simulated MapReduce jobs.
class IndexBuilder {
 public:
  IndexBuilder(const Table* a, Cluster* cluster) : a_(a), cluster_(cluster) {}

  /// Distinct index needs of the keep-predicates of `rule`.
  static std::vector<IndexNeed> NeedsOfCnf(const CnfRule& rule,
                                           const FeatureSet& fs);
  /// Needs of one drop-rule (via its complemented predicates).
  static std::vector<IndexNeed> NeedsOfRule(const Rule& rule,
                                            const FeatureSet& fs);
  /// Rule-independent needs the masking optimizer can prebuild during
  /// al_matcher: hash indexes for every corresponded A attribute, B-tree
  /// indexes for numeric ones, and token orderings for string ones
  /// (Section 10.2, optimization 1).
  static std::vector<IndexNeed> GenericNeeds(const FeatureSet& fs);

  /// Ensures every need is present in `catalog`, running MR jobs for the
  /// missing ones. Returns the virtual time spent (zero if all present).
  VDuration Ensure(const std::vector<IndexNeed>& needs, IndexCatalog* catalog);

  /// Ensures the catalog's token stores hold the interned token sets both
  /// sides of every token-filterable feature read: the A-side views feed the
  /// ordering/inverted-index jobs, the B-side views feed probing and feature
  /// computation. Runs one tokenize job per missing (table, attribute,
  /// tokenization) view; already-built views cost nothing, so this composes
  /// with the masking optimizer the same way Ensure() does.
  VDuration EnsureTokenStores(const Table& b, const FeatureSet& fs,
                              IndexCatalog* catalog);

 private:
  VDuration BuildHash(int col_a, IndexCatalog* catalog);
  VDuration BuildBTree(int col_a, IndexCatalog* catalog);
  VDuration BuildOrdering(int col_a, Tokenization tok, IndexCatalog* catalog);
  VDuration BuildInverted(int col_a, Tokenization tok, IndexCatalog* catalog);
  /// Tokenizes + interns one (table, attribute, tokenization) into the
  /// catalog's token store. No-op if the view already exists. `label` names
  /// the table in the job name ("a" / "b").
  VDuration BuildStoreView(const Table& t, const char* label, int col,
                           Tokenization tok, IndexCatalog* catalog);

  const Table* a_;
  Cluster* cluster_;
};

}  // namespace falcon

#endif  // FALCON_BLOCKING_INDEX_BUILDER_H_
