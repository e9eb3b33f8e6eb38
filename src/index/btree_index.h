// Range index for the range filter.
//
// Built over a numeric attribute of table A; probed with a range
// [b.val - v, b.val + v] for predicates on abs_diff / rel_diff (Section 7.4,
// filter 2). The paper calls this index a B-tree. It is only ever
// bulk-built and then probed, so it is stored as the leaf level of a
// bulk-loaded B-tree: one array of (key, row) pairs sorted by key. A probe
// binary-searches the low bound and scans forward. The index reports its
// memory footprint for the mapper-memory-fit decisions of Section 10.1.
#ifndef FALCON_INDEX_BTREE_INDEX_H_
#define FALCON_INDEX_BTREE_INDEX_H_

#include <utility>
#include <vector>

#include "table/table.h"

namespace falcon {

/// Sorted (key, row) array mapping double keys to row ids. Duplicate keys
/// allowed.
///
/// Build protocol: Insert()/AddMissing() for every row, then Finalize()
/// once; ProbeRange() is valid only after Finalize().
class BTreeIndex {
 public:
  /// Builds (and finalizes) over numeric column `col` of `table`. Rows whose
  /// value is missing (NaN) are excluded from the keys and tracked
  /// separately.
  static BTreeIndex Build(const Table& table, size_t col);

  /// Stages a single (key, row) pair.
  void Insert(double key, RowId row);

  /// Records a row whose value is missing (NaN).
  void AddMissing(RowId row) { missing_.push_back(row); }

  /// Stable-sorts the staged pairs by key, so equal keys keep insertion
  /// order.
  void Finalize();

  /// Appends to *out all rows with key in [lo, hi] (inclusive): keys
  /// ascending, equal keys in insertion order. Nothing if !(lo <= hi), which
  /// covers an empty range and a NaN bound. Finalize() first.
  void ProbeRange(double lo, double hi, std::vector<RowId>* out) const;

  /// Rows whose indexed value was missing (NaN).
  const std::vector<RowId>& missing_rows() const { return missing_; }

  size_t size() const { return entries_.size(); }

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const;

 private:
  std::vector<std::pair<double, RowId>> entries_;
  std::vector<RowId> missing_;
  bool finalized_ = false;
};

}  // namespace falcon

#endif  // FALCON_INDEX_BTREE_INDEX_H_
