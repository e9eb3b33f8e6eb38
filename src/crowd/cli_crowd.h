// Interactive labeling "crowd".
//
// The paper's Example 1 notes that users who do not want to pay a crowd can
// label the pairs themselves. CliCrowd renders each question's two tuples
// on an output stream and reads same/different answers from an input
// stream — stdin for a live session, a prepared stream in tests. Latency is
// the real wall-clock time the labeler took.
#ifndef FALCON_CROWD_CLI_CROWD_H_
#define FALCON_CROWD_CLI_CROWD_H_

#include <iosfwd>

#include "crowd/crowd.h"
#include "table/table.h"

namespace falcon {

/// A single interactive labeler reading from a stream.
class CliCrowd : public SingleLabelerCrowd {
 public:
  /// Streams must outlive the crowd. `a`/`b` are rendered per question.
  CliCrowd(const Table* a, const Table* b, std::istream* in,
           std::ostream* out);

  /// Accepts answers per pair: "y"/"yes"/"1" = match, "n"/"no"/"0" =
  /// non-match (case-insensitive); anything else reprompts, EOF fails with
  /// kIoError. The vote scheme is ignored (one human, one answer); questions
  /// already decided by prior votes, or capped at zero new answers, are not
  /// asked.
  Result<LabelResult> LabelBatch(const LabelRequest& request) override;

 private:
  void Render(RowId a_row, RowId b_row);

  const Table* a_;
  const Table* b_;
  std::istream* in_;
  std::ostream* out_;
};

}  // namespace falcon

#endif  // FALCON_CROWD_CLI_CROWD_H_
