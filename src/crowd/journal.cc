#include "crowd/journal.h"

#include "common/serde.h"

namespace falcon {
namespace {

constexpr uint32_t kJournalMagic = 0x464A524Eu;  // "FJRN"
// Version 2: entries journal the full LabelRequest (priors, answer caps)
// and the extended LabelResult (per-question answer counts, yes votes,
// truncation marker) introduced by the crowd robustness layer.
constexpr uint32_t kJournalVersion = 2;

// The smallest encoding of one entry, which bounds the entry count
// (BinaryReader::Count): nine u64s (six element counts, the question and
// answer tallies, the length of the platform state), two f64s (cost,
// latency) and two u8s (scheme, truncation).
constexpr size_t kEntryBytes = 9 * 8 + 2 * 8 + 2;

void WriteEntry(const CrowdJournalEntry& e, BinaryWriter* w) {
  w->Seq(e.request.pairs, PutU32Pair);
  w->U8(static_cast<uint8_t>(e.request.scheme));
  w->Seq(e.request.prior, [](const PriorVotes& p, BinaryWriter* w) {
    w->U32(p.yes);
    w->U32(p.no);
  });
  w->Seq(e.request.max_new_answers, PutU32);
  w->Seq(e.result.labels,
         [](bool label, BinaryWriter* w) { w->U8(label ? 1 : 0); });
  w->U64(e.result.num_questions);
  w->U64(e.result.num_answers);
  w->F64(e.result.cost);
  w->F64(e.result.latency.seconds);
  w->Seq(e.result.answers_per_question, PutU32);
  w->Seq(e.result.yes_votes, PutU32);
  w->U8(e.result.truncated ? 1 : 0);
  w->Str(e.inner_state_after);
}

/// Latches failure on a truncated entry, an unknown vote scheme, or request
/// or result vectors not parallel to the entry's pairs: replay hands the
/// result to the operators, which index it by question.
CrowdJournalEntry ReadEntry(BinaryReader* r) {
  CrowdJournalEntry e;
  r->Seq(8, &e.request.pairs, GetU32Pair);
  const uint8_t scheme = r->U8();
  if (scheme > static_cast<uint8_t>(VoteScheme::kStrongMajority7)) {
    r->Fail();
  } else {
    e.request.scheme = static_cast<VoteScheme>(scheme);
  }
  r->Seq(8, &e.request.prior, [](BinaryReader* r) {
    PriorVotes p;
    p.yes = r->U32();
    p.no = r->U32();
    return p;
  });
  r->Seq(4, &e.request.max_new_answers, GetU32);
  r->Seq(1, &e.result.labels, [](BinaryReader* r) { return r->U8() != 0; });
  e.result.num_questions = static_cast<size_t>(r->U64());
  e.result.num_answers = static_cast<size_t>(r->U64());
  e.result.cost = r->F64();
  e.result.latency = VDuration::Seconds(r->F64());
  r->Seq(4, &e.result.answers_per_question, GetU32);
  r->Seq(4, &e.result.yes_votes, GetU32);
  e.result.truncated = r->U8() != 0;
  e.inner_state_after = r->Str();
  if (!e.request.CheckShape().ok() ||
      !e.result.ParallelTo(e.request.pairs.size())) {
    r->Fail();
  }
  return e;
}

Result<std::vector<CrowdJournalEntry>> ReadEntries(BinaryReader* r) {
  std::vector<CrowdJournalEntry> entries;
  if (!r->Seq(kEntryBytes, &entries, ReadEntry)) {
    return Status::IoError(
        "crowd journal entries are truncated, or an entry's priors, caps, "
        "labels or vote counts are not parallel to its pairs");
  }
  return entries;
}

}  // namespace

std::string CrowdJournal::Serialize() const {
  BinaryWriter payload;
  payload.Seq(entries, WriteEntry);
  BinaryWriter w;
  w.U32(kJournalMagic);
  w.U32(kJournalVersion);
  w.Framed(payload.data());
  return w.Take();
}

Result<CrowdJournal> CrowdJournal::Parse(std::string_view data) {
  BinaryReader r(data);
  if (r.U32() != kJournalMagic) {
    return Status::IoError("not a crowd journal (bad magic)");
  }
  uint32_t version = r.U32();
  if (version != kJournalVersion) {
    return Status::IoError("crowd journal format version " +
                           std::to_string(version) +
                           " is newer than this build supports (" +
                           std::to_string(kJournalVersion) + ")");
  }
  FALCON_ASSIGN_OR_RETURN(std::string_view payload,
                          r.Framed("crowd journal payload"));
  BinaryReader pr(payload);
  CrowdJournal journal;
  FALCON_ASSIGN_OR_RETURN(journal.entries, ReadEntries(&pr));
  if (!r.exhausted() || !pr.exhausted()) {
    return Status::IoError("crowd journal has trailing bytes");
  }
  return journal;
}

Result<LabelResult> JournalingCrowd::LabelBatch(const LabelRequest& request) {
  if (cursor_ < journal_.entries.size()) {
    const CrowdJournalEntry& e = journal_.entries[cursor_];
    if (!(e.request == request)) {
      return Status::Internal(
          "crowd journal divergence: the resumed run asked a different "
          "question than the recorded one at entry " +
          std::to_string(cursor_) +
          " (resume requires an unchanged config and identical tables)");
    }
    ++cursor_;
    ++replayed_;
    // Leave the wrapped platform exactly where the recording left it, so
    // the first passthrough call after replay continues the original
    // answer/latency stream. With retrying decorators below, the journaled
    // result already merged their retries: a replayed entry re-asks (and
    // re-pays for) nothing.
    if (!e.inner_state_after.empty()) {
      FALCON_RETURN_NOT_OK(inner_->RestoreState(e.inner_state_after));
    }
    Record(e.result);
    return e.result;
  }
  FALCON_ASSIGN_OR_RETURN(LabelResult result, LabelInner(request));
  CrowdJournalEntry e;
  e.request = request;
  e.result = result;
  e.inner_state_after = inner_->SaveState();
  journal_.entries.push_back(std::move(e));
  ++cursor_;
  Record(result);
  return result;
}

Status JournalingCrowd::LoadJournal(CrowdJournal journal, size_t position) {
  if (position > journal.entries.size()) {
    return Status::InvalidArgument(
        "journal position " + std::to_string(position) + " exceeds its " +
        std::to_string(journal.entries.size()) + " entries");
  }
  journal_ = std::move(journal);
  cursor_ = position;
  return Status::OK();
}

void JournalingCrowd::SaveOwnState(BinaryWriter* w) const {
  w->Seq(journal_.entries, WriteEntry);
  w->U64(cursor_);
}

Status JournalingCrowd::RestoreOwnState(BinaryReader* r) {
  FALCON_ASSIGN_OR_RETURN(journal_.entries, ReadEntries(r));
  cursor_ = static_cast<size_t>(r->U64());
  if (cursor_ > journal_.entries.size()) {
    return Status::IoError("journaling-crowd cursor exceeds its journal");
  }
  return Status::OK();
}

}  // namespace falcon
