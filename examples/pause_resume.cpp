// Pause & resume: the checkpoint/recovery subsystem that turns the
// pipeline into a restartable cloud service. This demo runs a session over
// synthetic product catalogs, checkpoints it at an operator boundary, keeps
// working (more paid crowd questions land in the journal — the write-ahead
// log), then "crashes". A fresh session recovers from the snapshot plus the
// journal tail, replays the post-checkpoint Q&A without contacting the
// platform, and finishes with exactly the same matches and the same total
// crowd spend as an uninterrupted run.
//
//   ./build/examples/pause_resume [--steps N] [--snapshot falcon.snap]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "session/snapshot.h"
#include "session/workflow_session.h"
#include "workload/generator.h"

using namespace falcon;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "pause_resume: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int pause_after = 4;
  std::string snapshot_path = "falcon.snap";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--steps" && i + 1 < argc) pause_after = std::atoi(argv[++i]);
    else if (flag == "--snapshot" && i + 1 < argc) snapshot_path = argv[++i];
  }

  // --- the task: synthetic catalogs + simulated crowd -----------------------
  WorkloadOptions opt;
  opt.size_a = 250;
  opt.size_b = 700;
  opt.seed = 77;
  auto data = GenerateProducts(opt);
  std::printf("task: %zu x %zu synthetic products\n", data.a.num_rows(),
              data.b.num_rows());

  FalconConfig config;
  config.seed = 7;
  config.sample_size = 4000;
  config.matcher_only_max_bytes = 64 << 10;  // force the full blocking plan
  config.deterministic_rule_cost = true;     // reproducible operator choices
  SimulatedCrowdConfig ccfg;
  ccfg.error_rate = 0.03;
  ccfg.seed = 7;
  Cluster cluster{ClusterConfig{}};

  // --- reference: one uninterrupted run -------------------------------------
  size_t reference_matches = 0;
  size_t reference_questions = 0;
  {
    SimulatedCrowd crowd(ccfg, data.truth.MakeOracle());
    WorkflowSession session("reference", &data.a, &data.b, &crowd, &cluster,
                            config);
    if (Status st = session.RunToCompletion(); !st.ok()) return Fail(st);
    auto result = session.TakeResult();
    if (!result.ok()) return Fail(result.status());
    reference_matches = result->matches.size();
    reference_questions = result->metrics.questions;
    std::printf("uninterrupted run: %zu matches, %zu crowd questions\n",
                reference_matches, reference_questions);
  }

  // --- first "process": checkpoint, keep working, crash ---------------------
  const std::string wal_path = snapshot_path + ".wal";
  {
    SimulatedCrowd crowd(ccfg, data.truth.MakeOracle());
    WorkflowSession session("demo", &data.a, &data.b, &crowd, &cluster,
                            config);
    if (Status st = session.Start(); !st.ok()) return Fail(st);
    for (int i = 0; i < pause_after && !session.done(); ++i) {
      if (Status st = session.Step(); !st.ok()) return Fail(st);
      std::printf("  step %d done, next operator: %s\n", i + 1,
                  PipelineStageName(session.next_stage()));
    }
    std::string blob = session.SaveSnapshot();
    std::ofstream(snapshot_path, std::ios::binary) << blob;
    std::printf("checkpointed %zu bytes to %s\n", blob.size(),
                snapshot_path.c_str());

    // Work continues past the checkpoint: more paid questions, every one
    // recorded in the crowd journal (continuously persistable as a WAL).
    for (int i = 0; i < 2 && !session.done(); ++i) {
      if (Status st = session.Step(); !st.ok()) return Fail(st);
      std::printf("  post-checkpoint step, next operator: %s\n",
                  PipelineStageName(session.next_stage()));
    }
    std::ofstream(wal_path, std::ios::binary) << session.ExportJournal();
    std::printf("journal (WAL) persisted to %s — simulating a crash here\n",
                wal_path.c_str());
    // The session and its crowd platform are destroyed: the "process" dies.
  }

  // --- second "process": recover from snapshot + journal tail ---------------
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  std::string blob = slurp(snapshot_path);

  // Cheap inspection before committing to a full load.
  auto meta = ReadSnapshotMeta(blob);
  if (!meta.ok()) return Fail(meta.status());
  std::printf("snapshot v%u, session '%s', paused before %s\n",
              meta->format_version, meta->session_id.c_str(),
              PipelineStageName(meta->next));

  SimulatedCrowd crowd(ccfg, data.truth.MakeOracle());
  auto resumed = WorkflowSession::Resume(blob, &data.a, &data.b, &crowd,
                                         &cluster, config);
  if (!resumed.ok()) return Fail(resumed.status());
  WorkflowSession& session = **resumed;
  std::printf("resumed; rebuilt transient caches in %s (not charged)\n",
              session.resume_rebuild_time().ToString().c_str());

  // Install the post-checkpoint journal: crowd work done between the
  // snapshot and the crash replays instead of being re-asked (re-paid).
  auto wal = CrowdJournal::Parse(slurp(wal_path));
  if (!wal.ok()) return Fail(wal.status());
  if (Status st = session.ImportJournalTail(std::move(*wal)); !st.ok())
    return Fail(st);

  if (Status st = session.RunToCompletion(); !st.ok()) return Fail(st);
  auto result = session.TakeResult();
  if (!result.ok()) return Fail(result.status());
  std::printf("resumed run: %zu matches, %zu total questions, %zu of them "
              "replayed from the journal (already paid for)\n",
              result->matches.size(), result->metrics.questions,
              session.replayed_questions());

  if (result->matches.size() != reference_matches ||
      result->metrics.questions != reference_questions) {
    std::fprintf(stderr,
                 "FATAL: resumed run (%zu matches, %zu questions) diverged "
                 "from the uninterrupted run (%zu matches, %zu questions)\n",
                 result->matches.size(), result->metrics.questions,
                 reference_matches, reference_questions);
    return 1;
  }
  std::printf(
      "resumed output and crowd spend match the uninterrupted run exactly\n");
  return 0;
}
