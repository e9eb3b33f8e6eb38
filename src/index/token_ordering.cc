#include "index/token_ordering.h"

#include <algorithm>
#include <cassert>

namespace falcon {

TokenOrdering TokenOrdering::FromIdFrequencies(
    const TokenDictionary* dict, const std::vector<uint64_t>& freq) {
  std::vector<TokenId> ids;
  ids.reserve(freq.size());
  for (TokenId id = 0; id < freq.size(); ++id) {
    if (freq[id] > 0) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [&](TokenId a, TokenId b) {
    if (freq[a] != freq[b]) return freq[a] < freq[b];
    return dict->Text(a) < dict->Text(b);
  });
  TokenOrdering out;
  out.dict_ = dict;
  out.rank_by_id_.assign(freq.size(), kNoRank);
  for (uint32_t i = 0; i < ids.size(); ++i) out.rank_by_id_[ids[i]] = i;
  out.num_ranked_ = ids.size();
  return out;
}

void TokenOrdering::SortIds(std::vector<TokenId>* ids) const {
  assert(dict_ != nullptr && "SortIds requires an id-based ordering");
  std::sort(ids->begin(), ids->end(), [this](TokenId a, TokenId b) {
    uint32_t ra;
    uint32_t rb;
    bool ka = RankId(a, &ra);
    bool kb = RankId(b, &rb);
    if (ka != kb) return !ka;  // unranked (rarest) first
    if (!ka) return dict_->Text(a) < dict_->Text(b);
    return ra < rb;
  });
}

size_t TokenOrdering::MemoryUsage() const {
  return rank_by_id_.capacity() * sizeof(uint32_t);
}

}  // namespace falcon
