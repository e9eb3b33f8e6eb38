// Crowd-answer journaling and replay.
//
// A workflow session must never re-ask (and re-pay for) a crowd question
// after a crash. JournalingCrowd wraps any CrowdPlatform and records every
// LabelPairs call — the pairs asked, the vote scheme, the aggregated
// answers, the accounting, and the wrapped platform's state *after* the
// call — as one journal entry. On resume, a session reloads the journal and
// the wrapper serves the recorded results positionally: as long as the
// resumed run issues the same questions in the same order (the pipeline is
// seed-deterministic, so it does), the wrapped platform is not contacted
// until the journal is exhausted, at which point its state is exactly what
// it was when the original run died and labeling continues seamlessly.
//
// The journal doubles as a write-ahead log: Serialize() produces a
// standalone artifact (magic + version + CRC) that can be persisted more
// often than full snapshots, and WorkflowSession::Resume accepts one to
// replay the tail of crowd work past the last snapshot boundary.
#ifndef FALCON_CROWD_JOURNAL_H_
#define FALCON_CROWD_JOURNAL_H_

#include <string>
#include <string_view>
#include <vector>

#include "crowd/crowd.h"

namespace falcon {

/// One recorded LabelBatch call. The full request (pairs, scheme, priors,
/// caps) is journaled so replay can verify the resumed run issues the exact
/// same call; the result is the MERGED result the caller saw — when the
/// wrapped platform is a retrying decorator, its internal retries and
/// requeues happened below this record, so replay never repeats them.
struct CrowdJournalEntry {
  LabelRequest request;
  /// The aggregated result the caller saw (labels parallel to the request's
  /// pairs).
  LabelResult result;
  /// Wrapped-platform state immediately after this call (its RNG and
  /// accounting), so replay leaves the platform where the recording did.
  std::string inner_state_after;
};

/// An ordered log of every crowd interaction of one session.
struct CrowdJournal {
  std::vector<CrowdJournalEntry> entries;

  /// Standalone artifact: magic + format version + CRC32-checked payload.
  std::string Serialize() const;
  /// Rejects corrupted payloads (CRC), future format versions and entries
  /// whose request or result vectors are not parallel to their pairs.
  static Result<CrowdJournal> Parse(std::string_view data);
};

/// CrowdPlatform decorator that journals passthrough calls and replays
/// loaded journal entries. Quorum semantics are the wrapped platform's.
/// `inner` must outlive the wrapper.
class JournalingCrowd : public CrowdDecorator {
 public:
  explicit JournalingCrowd(CrowdPlatform* inner) : CrowdDecorator(inner) {}

  /// Replays the next journal entry if one is pending (verifying the caller
  /// asked the recorded question), otherwise forwards to the wrapped
  /// platform and appends a new entry.
  Result<LabelResult> LabelBatch(const LabelRequest& request) override;

  const CrowdJournal& journal() const { return journal_; }

  /// Entries consumed or produced so far (== journal size except while
  /// replaying a loaded journal).
  size_t position() const { return cursor_; }
  /// Entries served from the journal instead of the wrapped platform.
  size_t replayed_total() const { return replayed_; }

  /// Installs a journal for replay, with `position` entries already
  /// reflected in this wrapper's restored accounting (i.e. the snapshot
  /// boundary). Entries past `position` replay on subsequent LabelPairs
  /// calls. Fails if `position` exceeds the journal.
  Status LoadJournal(CrowdJournal journal, size_t position);

 protected:
  uint32_t StateKind() const override { return 3; }
  /// Own state = the full journal + cursor, so SaveState()/RestoreState()
  /// round-trips the whole decorator.
  void SaveOwnState(BinaryWriter* w) const override;
  Status RestoreOwnState(BinaryReader* r) override;

 private:
  CrowdJournal journal_;
  size_t cursor_ = 0;
  size_t replayed_ = 0;
};

}  // namespace falcon

#endif  // FALCON_CROWD_JOURNAL_H_
