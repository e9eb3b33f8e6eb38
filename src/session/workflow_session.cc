#include "session/workflow_session.h"

#include <utility>

namespace falcon {

WorkflowSession::WorkflowSession(std::string id, const Table* a,
                                 const Table* b, CrowdPlatform* crowd,
                                 Cluster* cluster, FalconConfig config)
    : id_(std::move(id)),
      a_(a),
      b_(b),
      journal_(crowd),
      pipeline_(a, b, &journal_, cluster, std::move(config)) {}

Result<std::unique_ptr<WorkflowSession>> WorkflowSession::Resume(
    std::string_view snapshot, const Table* a, const Table* b,
    CrowdPlatform* crowd, Cluster* cluster, FalconConfig config) {
  auto session = std::make_unique<WorkflowSession>(
      "", a, b, crowd, cluster, std::move(config));
  FALCON_RETURN_NOT_OK(LoadSnapshot(snapshot, *a, *b, &session->journal_,
                                    &session->pipeline_, &session->id_));
  session->resume_rebuild_time_ = session->pipeline_.Rehydrate();
  return session;
}

Status WorkflowSession::Step() {
  if (!started()) FALCON_RETURN_NOT_OK(Start());
  return pipeline_.Step();
}

Status WorkflowSession::RunToCompletion() {
  if (!started()) FALCON_RETURN_NOT_OK(Start());
  while (!done()) FALCON_RETURN_NOT_OK(pipeline_.Step());
  return Status::OK();
}

std::string WorkflowSession::SaveSnapshot() const {
  return WriteSnapshot(id_, pipeline_, *a_, *b_, journal_,
                       pipeline_.config());
}

Status WorkflowSession::ImportJournalTail(CrowdJournal journal) {
  if (journal.entries.size() < journal_.position()) {
    return Status::InvalidArgument(
        "journal tail is shorter than the snapshot's crowd history");
  }
  return journal_.LoadJournal(std::move(journal), journal_.position());
}

}  // namespace falcon
