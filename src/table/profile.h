// Attribute profiling.
//
// Falcon generates features fully automatically (Section 8 of the paper):
// it infers the *type* and *characteristic* of every attribute, then picks
// similarity functions per the rules of Figure 5. The characteristics are:
// single-word string, multi-word short string (<=5 words), medium string
// (6-10 words), long string (>=11 words), and numeric.
#ifndef FALCON_TABLE_PROFILE_H_
#define FALCON_TABLE_PROFILE_H_

#include <string>
#include <vector>

#include "table/table.h"

namespace falcon {

/// Attribute characteristic per Figure 5 of the paper. Ordered so that a
/// larger enum value corresponds to a lower row of Figure 5; when two
/// corresponded attributes disagree, the lower row (larger value) wins.
enum class AttrCharacteristic {
  kSingleWordString = 0,
  kShortString = 1,   ///< 2-5 words
  kMediumString = 2,  ///< 6-10 words
  kLongString = 3,    ///< >= 11 words
  kNumeric = 4,
};

const char* AttrCharacteristicName(AttrCharacteristic c);

/// Profile of a single attribute.
struct AttrProfile {
  std::string name;
  AttrCharacteristic characteristic = AttrCharacteristic::kSingleWordString;
  /// Fraction of rows with a missing (empty) value.
  double missing_fraction = 0.0;
  /// Mean number of whitespace-delimited words among non-missing values.
  double avg_words = 0.0;
};

/// Profiles every attribute of `table` on its first 5000 rows. An attribute
/// is numeric exactly when its declared type is; any other attribute is
/// classified by its mean word count.
std::vector<AttrProfile> ProfileTable(const Table& table);

}  // namespace falcon

#endif  // FALCON_TABLE_PROFILE_H_
