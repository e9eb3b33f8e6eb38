// Resumable workflow sessions.
//
// A WorkflowSession wraps one FalconPipeline run as a restartable unit of a
// cloud EM service: it drives the pipeline through its operator boundaries
// (Step()), journals every crowd interaction through a JournalingCrowd, and
// can serialize its complete state to a snapshot blob at any boundary.
// Resuming from a snapshot — in a new process, over freshly loaded copies of
// the same tables — continues the run byte-identically: same matches, same
// rule sequence, and zero re-asked (re-paid) crowd questions, because
// labeling calls replay from the journal instead of reaching the platform.
//
// The crowd journal doubles as a write-ahead log: ImportJournalTail() lets a
// session resumed from an OLDER snapshot replay Q&A recorded past that
// boundary, so crowd work done between the last checkpoint and the crash is
// still not re-paid.
//
// A session is driven by one thread at a time: whoever steps it is also the
// only one reading it. EmService reads each session it owns only on the
// worker stepping it and hands it to the next worker under its lock, so the
// stage accessors read the pipeline's own state with no mirror.
#ifndef FALCON_SESSION_WORKFLOW_SESSION_H_
#define FALCON_SESSION_WORKFLOW_SESSION_H_

#include <memory>
#include <string>

#include "core/pipeline.h"
#include "crowd/journal.h"
#include "session/snapshot.h"

namespace falcon {

class WorkflowSession {
 public:
  /// Starts a fresh session. `a`, `b`, `crowd`, and `cluster` must outlive
  /// it; `crowd` is the real platform — the session journals it internally.
  WorkflowSession(std::string id, const Table* a, const Table* b,
                  CrowdPlatform* crowd, Cluster* cluster, FalconConfig config);

  /// Reconstructs a session from a snapshot. `crowd` must be a fresh
  /// platform of the same type the original session used (its state is
  /// overwritten from the snapshot). On success the session sits at the
  /// checkpointed operator boundary with all transient caches rebuilt;
  /// the rebuild cost is reported via resume_rebuild_time(), not charged to
  /// the run's metrics.
  static Result<std::unique_ptr<WorkflowSession>> Resume(
      std::string_view snapshot, const Table* a, const Table* b,
      CrowdPlatform* crowd, Cluster* cluster, FalconConfig config);

  Status Start() { return pipeline_.Start(); }
  /// Runs exactly one operator.
  Status Step();
  /// Start if needed, then Step until done.
  Status RunToCompletion();

  bool started() const { return pipeline_.started(); }
  bool done() const { return pipeline_.done(); }
  PipelineStage next_stage() const { return pipeline_.state().next; }

  /// Serializes the full durable state at the current operator boundary.
  std::string SaveSnapshot() const;

  /// The crowd journal serialized as a standalone write-ahead log.
  std::string ExportJournal() const { return journal_.journal().Serialize(); }

  /// Installs a journal recorded PAST this session's snapshot boundary (the
  /// WAL-tail case). The already-replayed prefix stays as-is; subsequent
  /// labeling calls replay the tail before reaching the platform.
  Status ImportJournalTail(CrowdJournal journal);

  /// Crowd questions served from the journal instead of the platform.
  size_t replayed_questions() const { return journal_.replayed_total(); }

  Result<MatchResult> TakeResult() { return pipeline_.TakeResult(); }

  const std::string& id() const { return id_; }
  FalconPipeline& pipeline() { return pipeline_; }
  const FalconPipeline& pipeline() const { return pipeline_; }
  /// Cost of rebuilding transient caches on resume (zero for new sessions).
  VDuration resume_rebuild_time() const { return resume_rebuild_time_; }

 private:
  std::string id_;
  const Table* a_;
  const Table* b_;
  JournalingCrowd journal_;
  FalconPipeline pipeline_;
  VDuration resume_rebuild_time_;
};

}  // namespace falcon

#endif  // FALCON_SESSION_WORKFLOW_SESSION_H_
