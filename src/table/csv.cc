#include "table/csv.h"

#include <fstream>
#include <sstream>
#include <string_view>

#include "common/strings.h"

namespace falcon {
namespace {

// Parses one CSV record starting at *pos; advances *pos past the record's
// trailing newline. Returns false at end of input.
bool ParseRecord(const std::string& text, size_t* pos, char delim,
                 std::vector<std::string>* fields, Status* status) {
  fields->clear();
  size_t i = *pos;
  if (i >= text.size()) return false;
  std::string field;
  bool in_quotes = false;
  bool record_done = false;
  while (i < text.size() && !record_done) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field.push_back(c);
        ++i;
      }
    } else {
      if (c == '"' && field.empty()) {
        in_quotes = true;
        ++i;
      } else if (c == delim) {
        fields->push_back(std::move(field));
        field.clear();
        ++i;
      } else if (c == '\n') {
        ++i;
        record_done = true;
      } else if (c == '\r') {
        ++i;  // tolerate \r\n and stray \r
      } else {
        field.push_back(c);
        ++i;
      }
    }
  }
  if (in_quotes) {
    *status = Status::IoError("unterminated quoted CSV field");
    return false;
  }
  fields->push_back(std::move(field));
  *pos = i;
  return true;
}

bool NeedsQuoting(std::string_view v, char delim) {
  for (char c : v) {
    if (c == delim || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(std::string* out, std::string_view v, char delim) {
  if (!NeedsQuoting(v, delim)) {
    out->append(v);
    return;
  }
  out->push_back('"');
  for (char c : v) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<Table> ReadCsvString(const std::string& text, const CsvOptions& opts,
                            const Schema* schema) {
  size_t pos = 0;
  Status status;
  std::vector<std::string> fields;
  std::vector<std::string> header;
  if (opts.has_header) {
    if (!ParseRecord(text, &pos, opts.delimiter, &fields, &status)) {
      if (!status.ok()) return status;
      return Status::IoError("empty CSV input (missing header)");
    }
    header = fields;
  }

  // Collect all records first (types may need inference over the whole file).
  std::vector<std::vector<std::string>> rows;
  size_t start = pos;
  while (ParseRecord(text, &pos, opts.delimiter, &fields, &status)) {
    // Skip blank lines. A quoted empty field ("") is a record: it is how a
    // one-column table writes a missing value.
    std::string_view record(text.data() + start, pos - start);
    start = pos;
    if (record.find_first_not_of("\r\n") == std::string_view::npos) continue;
    rows.push_back(fields);
  }
  if (!status.ok()) return status;

  size_t width = schema           ? schema->num_attrs()
                 : !header.empty() ? header.size()
                 : !rows.empty()   ? rows[0].size()
                                   : 0;
  if (width == 0) return Status::IoError("cannot determine CSV width");

  Schema effective;
  if (schema) {
    effective = *schema;
  } else {
    std::vector<AttrDef> attrs(width);
    for (size_t c = 0; c < width; ++c) {
      attrs[c].name =
          c < header.size() ? header[c] : "col" + std::to_string(c);
      bool numeric = false;
      bool any = false;
      numeric = true;
      for (const auto& row : rows) {
        if (c >= row.size() || row[c].empty()) continue;
        any = true;
        double d;
        if (!ParseDouble(row[c], &d)) {
          numeric = false;
          break;
        }
      }
      attrs[c].type =
          (numeric && any) ? AttrType::kNumeric : AttrType::kString;
    }
    effective = Schema(std::move(attrs));
  }

  Table table(effective);
  for (auto& row : rows) {
    if (row.size() != width) {
      return Status::IoError("CSV row width " + std::to_string(row.size()) +
                             " != expected " + std::to_string(width));
    }
    FALCON_RETURN_NOT_OK(table.AppendRow(row));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& opts,
                          const Schema* schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ReadCsvString(ss.str(), opts, schema);
}

std::string WriteCsvString(const Table& table, const CsvOptions& opts) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_attrs(); ++c) {
    if (c > 0) out.push_back(opts.delimiter);
    AppendField(&out, schema.attr(c).name, opts.delimiter);
  }
  out.push_back('\n');
  for (RowId r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_attrs(); ++c) {
      if (c > 0) out.push_back(opts.delimiter);
      AppendField(&out, table.Get(r, c), opts.delimiter);
    }
    // A lone empty field would be a blank line, which the reader skips.
    if (schema.num_attrs() == 1 && table.IsMissing(r, 0)) out.append("\"\"");
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& opts) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << WriteCsvString(table, opts);
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace falcon
