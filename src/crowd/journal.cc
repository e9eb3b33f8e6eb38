#include "crowd/journal.h"

#include "common/crc32.h"

namespace falcon {
namespace {

constexpr uint32_t kJournalMagic = 0x464A524Eu;  // "FJRN"
// Version 2: entries journal the full LabelRequest (priors, answer caps)
// and the extended LabelResult (per-question answer counts, yes votes,
// truncation marker) introduced by the crowd robustness layer.
constexpr uint32_t kJournalVersion = 2;

void WriteEntry(const CrowdJournalEntry& e, BinaryWriter* w) {
  w->U64(e.request.pairs.size());
  for (const auto& [a, b] : e.request.pairs) {
    w->U32(a);
    w->U32(b);
  }
  w->U8(static_cast<uint8_t>(e.request.scheme));
  w->U64(e.request.prior.size());
  for (const PriorVotes& p : e.request.prior) {
    w->U32(p.yes);
    w->U32(p.no);
  }
  w->U64(e.request.max_new_answers.size());
  for (uint32_t cap : e.request.max_new_answers) w->U32(cap);
  w->U64(e.result.labels.size());
  for (bool label : e.result.labels) w->U8(label ? 1 : 0);
  w->U64(e.result.num_questions);
  w->U64(e.result.num_answers);
  w->F64(e.result.cost);
  w->F64(e.result.latency.seconds);
  w->U64(e.result.answers_per_question.size());
  for (uint32_t c : e.result.answers_per_question) w->U32(c);
  w->U64(e.result.yes_votes.size());
  for (uint32_t c : e.result.yes_votes) w->U32(c);
  w->U8(e.result.truncated ? 1 : 0);
  w->Str(e.inner_state_after);
}

Result<CrowdJournalEntry> ReadEntry(BinaryReader* r) {
  CrowdJournalEntry e;
  uint64_t npairs = r->U64();
  if (!r->ok() || npairs > r->remaining()) {
    return Status::IoError("journal entry pair count out of range");
  }
  e.request.pairs.reserve(static_cast<size_t>(npairs));
  for (uint64_t i = 0; i < npairs; ++i) {
    uint32_t a = r->U32();
    uint32_t b = r->U32();
    e.request.pairs.emplace_back(a, b);
  }
  uint8_t scheme = r->U8();
  if (scheme > static_cast<uint8_t>(VoteScheme::kStrongMajority7)) {
    return Status::IoError("journal entry has unknown vote scheme");
  }
  e.request.scheme = static_cast<VoteScheme>(scheme);
  uint64_t nprior = r->U64();
  if (!r->ok() || nprior > r->remaining()) {
    return Status::IoError("journal entry prior count out of range");
  }
  e.request.prior.reserve(static_cast<size_t>(nprior));
  for (uint64_t i = 0; i < nprior; ++i) {
    PriorVotes p;
    p.yes = r->U32();
    p.no = r->U32();
    e.request.prior.push_back(p);
  }
  uint64_t ncaps = r->U64();
  if (!r->ok() || ncaps > r->remaining()) {
    return Status::IoError("journal entry cap count out of range");
  }
  e.request.max_new_answers.reserve(static_cast<size_t>(ncaps));
  for (uint64_t i = 0; i < ncaps; ++i) {
    e.request.max_new_answers.push_back(r->U32());
  }
  uint64_t nlabels = r->U64();
  if (!r->ok() || nlabels > r->remaining()) {
    return Status::IoError("journal entry label count out of range");
  }
  e.result.labels.reserve(static_cast<size_t>(nlabels));
  for (uint64_t i = 0; i < nlabels; ++i) e.result.labels.push_back(r->U8() != 0);
  e.result.num_questions = static_cast<size_t>(r->U64());
  e.result.num_answers = static_cast<size_t>(r->U64());
  e.result.cost = r->F64();
  e.result.latency = VDuration::Seconds(r->F64());
  uint64_t ncounts = r->U64();
  if (!r->ok() || ncounts > r->remaining()) {
    return Status::IoError("journal entry answer-count size out of range");
  }
  e.result.answers_per_question.reserve(static_cast<size_t>(ncounts));
  for (uint64_t i = 0; i < ncounts; ++i) {
    e.result.answers_per_question.push_back(r->U32());
  }
  uint64_t nyes = r->U64();
  if (!r->ok() || nyes > r->remaining()) {
    return Status::IoError("journal entry yes-vote size out of range");
  }
  e.result.yes_votes.reserve(static_cast<size_t>(nyes));
  for (uint64_t i = 0; i < nyes; ++i) e.result.yes_votes.push_back(r->U32());
  e.result.truncated = r->U8() != 0;
  e.inner_state_after = r->Str();
  if (!r->ok()) return Status::IoError("truncated journal entry");
  // Replay hands the result to the operators, which index it by question.
  if (!e.request.CheckShape().ok() ||
      !e.result.ParallelTo(e.request.pairs.size())) {
    return Status::IoError(
        "journal entry's priors, caps, labels or vote counts are not "
        "parallel to its pairs");
  }
  return e;
}

void WriteEntries(const std::vector<CrowdJournalEntry>& entries,
                  BinaryWriter* w) {
  w->U64(entries.size());
  for (const auto& e : entries) WriteEntry(e, w);
}

Result<std::vector<CrowdJournalEntry>> ReadEntries(BinaryReader* r) {
  uint64_t n = r->U64();
  if (!r->ok() || n > r->remaining()) {
    return Status::IoError("journal entry count out of range");
  }
  std::vector<CrowdJournalEntry> entries;
  entries.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    FALCON_ASSIGN_OR_RETURN(CrowdJournalEntry e, ReadEntry(r));
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace

std::string CrowdJournal::Serialize() const {
  BinaryWriter payload;
  WriteEntries(entries, &payload);
  BinaryWriter w;
  w.U32(kJournalMagic);
  w.U32(kJournalVersion);
  w.U64(payload.data().size());
  w.U32(Crc32(payload.data()));
  w.Raw(payload.data().data(), payload.data().size());
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
  uint64_t len = r.U64();
  uint32_t crc = r.U32();
  if (!r.ok() || len != r.remaining()) {
    return Status::IoError("crowd journal is truncated");
  }
  std::string_view payload = data.substr(data.size() - r.remaining());
  if (Crc32(payload) != crc) {
    return Status::IoError("crowd journal payload failed its CRC check");
  }
  BinaryReader pr(payload);
  CrowdJournal journal;
  FALCON_ASSIGN_OR_RETURN(journal.entries, ReadEntries(&pr));
  if (!pr.exhausted()) {
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
  WriteEntries(journal_.entries, w);
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
