#include "index/btree_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace falcon {

BTreeIndex BTreeIndex::Build(const Table& table, size_t col) {
  BTreeIndex idx;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    double v = table.GetNumeric(r, col);
    if (std::isnan(v)) {
      idx.missing_.push_back(r);
      continue;
    }
    idx.Insert(v, r);
  }
  idx.Finalize();
  return idx;
}

void BTreeIndex::Insert(double key, RowId row) {
  assert(!std::isnan(key));
  entries_.emplace_back(key, row);
  finalized_ = false;
}

void BTreeIndex::Finalize() {
  std::stable_sort(
      entries_.begin(), entries_.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  finalized_ = true;
}

void BTreeIndex::ProbeRange(double lo, double hi,
                            std::vector<RowId>* out) const {
  assert(finalized_ && "ProbeRange before Finalize");
  if (!(lo <= hi)) return;
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), lo,
      [](const auto& entry, double key) { return entry.first < key; });
  for (; it != entries_.end() && it->first <= hi; ++it) {
    out->push_back(it->second);
  }
}

size_t BTreeIndex::MemoryUsage() const {
  return entries_.capacity() * sizeof(entries_[0]) +
         missing_.capacity() * sizeof(RowId);
}

}  // namespace falcon
