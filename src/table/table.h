// In-memory columnar table.
//
// Tables A and B are the inputs to an EM task. Values are stored as strings;
// numeric attributes additionally cache their parsed double (NaN for
// missing/unparseable), since blocking-rule predicates and feature functions
// evaluate numeric attributes many times per tuple.
#ifndef FALCON_TABLE_TABLE_H_
#define FALCON_TABLE_TABLE_H_

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "table/schema.h"

namespace falcon {

/// Row id within a table.
using RowId = uint32_t;

/// A columnar table with string storage and numeric caches.
///
/// Missing values are represented by the empty string (and NaN in the numeric
/// cache). Falcon's filter and rule semantics treat missing values as
/// "cannot prove non-match" (see blocking/filters.h).
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return schema_.num_attrs(); }

  /// Appends a row. `values.size()` must equal the schema width.
  Status AppendRow(const std::vector<std::string>& values);

  /// String value at (row, col). Empty string means missing.
  std::string_view Get(RowId row, size_t col) const {
    return cols_[col][row];
  }

  /// Parsed numeric value at (row, col); NaN if missing or non-numeric.
  /// Valid for any column (string columns parse opportunistically at append).
  double GetNumeric(RowId row, size_t col) const { return num_cols_[col][row]; }

  /// True if the value at (row, col) is missing (empty string).
  bool IsMissing(RowId row, size_t col) const { return cols_[col][row].empty(); }

  /// Approximate heap footprint in bytes (used for memory-fit decisions).
  size_t MemoryUsage() const;

  /// Returns a new table with the same schema containing the given rows.
  Table Project(const std::vector<RowId>& rows) const;

  /// Stable FNV-1a hash over the schema and every cell, independent of
  /// platform and load path. Session snapshots store it as the table's
  /// identity so a resume against different data is refused instead of
  /// producing silently divergent results.
  uint64_t ContentHash() const;

 private:
  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<std::vector<std::string>> cols_;
  std::vector<std::vector<double>> num_cols_;
};

}  // namespace falcon

#endif  // FALCON_TABLE_TABLE_H_
