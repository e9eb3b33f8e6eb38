#include "table/profile.h"

#include <algorithm>

#include "common/strings.h"

namespace falcon {

const char* AttrCharacteristicName(AttrCharacteristic c) {
  switch (c) {
    case AttrCharacteristic::kSingleWordString:
      return "single-word string";
    case AttrCharacteristic::kShortString:
      return "short string";
    case AttrCharacteristic::kMediumString:
      return "medium string";
    case AttrCharacteristic::kLongString:
      return "long string";
    case AttrCharacteristic::kNumeric:
      return "numeric";
  }
  return "unknown";
}

namespace {

size_t CountWords(std::string_view s) {
  size_t words = 0;
  bool in_word = false;
  for (char c : s) {
    bool space = (c == ' ' || c == '\t' || c == '\n' || c == '\r');
    if (!space && !in_word) {
      ++words;
      in_word = true;
    } else if (space) {
      in_word = false;
    }
  }
  return words;
}

}  // namespace

std::vector<AttrProfile> ProfileTable(const Table& table) {
  constexpr size_t kSampleRows = 5000;  // a prefix sample, for speed
  std::vector<AttrProfile> profiles;
  profiles.reserve(table.num_cols());
  const size_t rows = std::min(table.num_rows(), kSampleRows);
  for (size_t c = 0; c < table.num_cols(); ++c) {
    AttrProfile p;
    p.name = table.schema().attr(c).name;
    size_t missing = 0;
    size_t total_words = 0;
    size_t present = 0;
    for (RowId r = 0; r < rows; ++r) {
      if (table.IsMissing(r, c)) {
        ++missing;
        continue;
      }
      ++present;
      total_words += CountWords(table.Get(r, c));
    }
    p.missing_fraction =
        rows == 0 ? 0.0 : static_cast<double>(missing) / rows;
    p.avg_words =
        present == 0 ? 0.0 : static_cast<double>(total_words) / present;
    if (table.schema().attr(c).type == AttrType::kNumeric) {
      p.characteristic = AttrCharacteristic::kNumeric;
    } else if (p.avg_words <= 1.2) {
      p.characteristic = AttrCharacteristic::kSingleWordString;
    } else if (p.avg_words <= 5.0) {
      p.characteristic = AttrCharacteristic::kShortString;
    } else if (p.avg_words <= 10.0) {
      p.characteristic = AttrCharacteristic::kMediumString;
    } else {
      p.characteristic = AttrCharacteristic::kLongString;
    }
    profiles.push_back(std::move(p));
  }
  return profiles;
}

}  // namespace falcon
