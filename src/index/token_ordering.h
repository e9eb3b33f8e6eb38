// Global token ordering.
//
// Prefix filtering requires every token set to be reordered by a single
// global token order (Section 7.5 of the paper: the second MapReduce job
// sorts tokens by increasing frequency). Rare-first ordering makes prefixes
// maximally selective.
//
// Orderings are dictionary-encoded: ranks live in a flat vector indexed by
// TokenId, so rank lookup on the probe path is one array read instead of a
// string hash.
#ifndef FALCON_INDEX_TOKEN_ORDERING_H_
#define FALCON_INDEX_TOKEN_ORDERING_H_

#include <cstdint>
#include <vector>

#include "text/token_dictionary.h"

namespace falcon {

/// Maps tokens to ranks; rank 0 is the rarest token.
class TokenOrdering {
 public:
  /// Ranks every id with freq[id] > 0 by ascending frequency, ties broken
  /// by the token's dictionary text for determinism. `dict` must outlive
  /// the ordering and every copy of it (copies share the pointer).
  static TokenOrdering FromIdFrequencies(const TokenDictionary* dict,
                                         const std::vector<uint64_t>& freq);

  /// Rank of an interned token id. Returns true and sets *rank if ranked.
  bool RankId(TokenId id, uint32_t* rank) const {
    if (id >= rank_by_id_.size()) return false;
    uint32_t r = rank_by_id_[id];
    if (r == kNoRank) return false;
    *rank = r;
    return true;
  }

  /// Number of ranked ids.
  size_t size() const { return num_ranked_; }

  /// Sorts `ids` by this ordering: ranked ids ascending by rank; unranked
  /// ids (absent from the corpus the ordering was built on) first — they
  /// are rarer than anything seen — among themselves by dictionary text.
  /// Requires an ordering built by FromIdFrequencies.
  void SortIds(std::vector<TokenId>* ids) const;

  /// Approximate heap footprint in bytes. The shared dictionary is not
  /// counted here; it is accounted once by its owner (the index catalog).
  size_t MemoryUsage() const;

 private:
  static constexpr uint32_t kNoRank = UINT32_MAX;

  const TokenDictionary* dict_ = nullptr;
  std::vector<uint32_t> rank_by_id_;  ///< kNoRank where unranked
  size_t num_ranked_ = 0;
};

}  // namespace falcon

#endif  // FALCON_INDEX_TOKEN_ORDERING_H_
