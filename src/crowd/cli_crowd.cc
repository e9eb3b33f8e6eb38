#include "crowd/cli_crowd.h"

#include <chrono>
#include <istream>
#include <ostream>

#include "common/strings.h"

namespace falcon {

CliCrowd::CliCrowd(const Table* a, const Table* b, std::istream* in,
                   std::ostream* out)
    : a_(a), b_(b), in_(in), out_(out) {}

void CliCrowd::Render(RowId a_row, RowId b_row) {
  *out_ << "\n--- do these records match? ---\n";
  const Schema& schema = a_->schema();
  for (size_t c = 0; c < schema.num_attrs(); ++c) {
    std::string_view va = a_->Get(a_row, c);
    // Render B by the same attribute name where it exists.
    int cb = b_->schema().IndexOf(schema.attr(c).name);
    std::string_view vb = cb >= 0 ? b_->Get(b_row, cb) : "";
    *out_ << "  " << schema.attr(c).name << ": [" << va << "]  vs  [" << vb
          << "]\n";
  }
  *out_ << "same? [y/n] " << std::flush;
}

Result<LabelResult> CliCrowd::LabelBatch(const LabelRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  FALCON_ASSIGN_OR_RETURN(
      LabelResult result,
      CollectAnswers(request, [&](const PairQuestion& q) -> Result<bool> {
        for (;;) {
          Render(q.first, q.second);
          std::string line;
          if (!std::getline(*in_, line)) {
            return Status::IoError("labeling aborted: input stream closed");
          }
          std::string answer = ToLower(Trim(line));
          if (answer == "y" || answer == "yes" || answer == "1") return true;
          if (answer == "n" || answer == "no" || answer == "0") return false;
          *out_ << "please answer y or n\n";
        }
      }));
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  result.latency = VDuration::Seconds(took.count());
  Record(result);
  return result;
}

}  // namespace falcon
