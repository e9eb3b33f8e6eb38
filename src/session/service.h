// Multi-tenant EM service scheduler (the paper's Example 1 as a system).
//
// EmService multiplexes many tenants' matching workflows over one shared
// Cluster. Each submission owns a resumable WorkflowSession from its first
// step after admission until it is evicted or finishes; the service schedules
// pipeline *steps* — operator boundaries, not whole runs — so one
// tenant's giant job cannot monopolize the cluster between checkpoints.
//
//   - Admission control: at most `max_resident_sessions` sessions hold live
//     pipeline state (feature vectors, token stores, indexes); overflow
//     queues, and freed slots go to the least-served tenant's oldest
//     queued submission (FIFO within a tenant).
//   - Fair share: every step's consumption — the session's machine-vtime
//     delta plus its crowd-cost delta converted at `crowd_cost_vtime_weight`
//     — is charged to the owning tenant's virtual runtime, normalized by the
//     tenant's priority weight. The scheduler always steps a session of the
//     tenant with the minimum normalized vruntime (deficit-style fair
//     queuing: a tenant's lag behind the leader is exactly the deficit it is
//     owed, and it keeps winning the pick until the deficit is repaid).
//     In-flight steps carry a provisional charge (the mean settled charge,
//     trued up at settle), so concurrent workers cannot all hand a
//     multi-session tenant one quantum each before its first charge lands.
//   - Budget isolation: each tenant's crowd spend is tracked in a shared
//     TenantLedger enforced by a LedgeredCrowd decorator that sits directly
//     beneath each session's JournalingCrowd. Reservation-commit accounting
//     makes the cap a hard invariant even when ResilientCrowd retries and
//     requeues run underneath, or when several of the tenant's sessions
//     label concurrently.
//   - Preemption & eviction: scheduling decisions happen at checkpoint
//     boundaries (a step is atomic). When sessions queue while the resident
//     set is full, the most-served tenant's idle session is evicted to an
//     in-memory snapshot (WorkflowSession::SaveSnapshot) and re-queued; it
//     resumes — byte-identically, per the session contract — when its turn
//     comes back. Resident memory therefore stays bounded by the admission
//     cap regardless of how many tenants are active.
//
// Thread safety: every public method is safe to call from any thread, and
// Drain(workers) steps distinct sessions from several worker threads at
// once (sessions are isolated by construction; the cluster's pool is
// shared). A session is only ever stepped by one worker at a time. The
// service mutex covers the scheduling decisions (admit, evict, pick,
// settle) and an eviction's snapshot, but not the sessions' work: admission
// only takes a slot, and the worker whose turn first picks the admitted
// submission builds its session (resumed from the snapshot, or fresh)
// outside the lock, steps it, and installs it at settle.
#ifndef FALCON_SESSION_SERVICE_H_
#define FALCON_SESSION_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "crowd/crowd.h"
#include "session/workflow_session.h"

namespace falcon {

/// Scheduler knobs.
struct ServiceConfig {
  /// Admission cap: sessions with live (rehydrated) pipeline state at once.
  size_t max_resident_sessions = 8;
  /// Steps a session is guaranteed after (re-)admission before it becomes an
  /// eviction candidate — bounds snapshot/rehydrate thrash under pressure.
  size_t min_steps_before_evict = 4;
  /// Fairness exchange rate: vtime seconds charged per crowd dollar, so
  /// crowd-heavy steps and machine-heavy steps meter the same ledger.
  double crowd_cost_vtime_weight = 60.0;
};

/// Per-tenant isolation parameters.
struct TenantConfig {
  /// Hard cap on the tenant's total crowd spend across all its sessions
  /// (dollars). Sessions degrade gracefully at the cap — they finish with
  /// the labels already paid for (the paper's C_max contract).
  double budget_cap = std::numeric_limits<double>::infinity();
  /// Fair-share priority weight (2.0 = entitled to twice the share).
  double weight = 1.0;
  /// Worst-case per-answer price used for budget reservations; must be at
  /// least the wrapped platform's actual price or the cap can overshoot by
  /// one batch.
  double cost_per_answer = 0.02;
};

/// Thread-safe reservation ledger for one tenant's crowd budget, shared by
/// every LedgeredCrowd the service wraps that tenant's sessions with.
/// Reserve-then-commit keeps `spent + reserved <= cap` a hard invariant
/// under concurrent batches: a batch's worst-case cost is reserved before
/// the platform is contacted and the unspent remainder released after.
class TenantLedger {
 public:
  explicit TenantLedger(double cap) : cap_(cap) {}

  struct Reservation {
    size_t questions = 0;  ///< prefix of the batch covered
    double amount = 0.0;   ///< worst-case dollars reserved
  };

  /// Reserves the longest prefix of `question_bounds` (worst-case dollars
  /// per question, in posting order) that fits in the unreserved remainder.
  Reservation ReservePrefix(const std::vector<double>& question_bounds);
  /// Settles a reservation at its actual cost (<= reserved amount).
  void Commit(const Reservation& r, double actual_cost);
  /// Returns a reservation unused (the platform call failed).
  void Release(const Reservation& r);

  double cap() const { return cap_; }
  double spent() const;
  double reserved() const;
  double remaining() const;  ///< cap - spent - reserved

 private:
  mutable std::mutex mu_;
  double cap_;
  double spent_ = 0.0;
  double reserved_ = 0.0;
};

/// CrowdPlatform decorator enforcing a TenantLedger at the JournalingCrowd
/// boundary: the session journals THROUGH this wrapper, so every labeling
/// call — including ResilientCrowd retries and requeues happening below —
/// settles against the tenant's shared budget exactly once, at the merged
/// result the journal records. When the remaining budget covers only part
/// of a batch, the affordable prefix is posted and the rest returned as
/// unanswered provisional labels with `truncated` set; when it covers
/// nothing, LabelBatch fails with kBudgetExhausted (callers stop asking and
/// keep the labels already paid for). `inner` and `ledger` must outlive the
/// wrapper; the ledger is service-owned and deliberately NOT part of the
/// saved state (restoring an old snapshot must not resurrect spent budget).
class LedgeredCrowd : public CrowdDecorator {
 public:
  LedgeredCrowd(CrowdPlatform* inner, TenantLedger* ledger,
                double cost_per_answer)
      : CrowdDecorator(inner),
        ledger_(ledger),
        cost_per_answer_(cost_per_answer) {}

  Result<LabelResult> LabelBatch(const LabelRequest& request) override;

  /// Batches cut short (prefix posted) or refused outright at the cap.
  uint64_t truncated_batches() const { return truncated_batches_; }
  uint64_t refused_batches() const { return refused_batches_; }

 protected:
  uint32_t StateKind() const override { return 6; }
  /// Own state is the enforcement counters; the tenant ledger itself lives
  /// with the service.
  void SaveOwnState(BinaryWriter* w) const override;
  Status RestoreOwnState(BinaryReader* r) override;

 private:
  TenantLedger* ledger_;
  double cost_per_answer_;
  uint64_t truncated_batches_ = 0;
  uint64_t refused_batches_ = 0;
};

/// Point-in-time tenant accounting (see EmService::tenant_stats).
struct TenantStats {
  double machine_vtime_s = 0.0;  ///< machine vtime charged to the tenant
  double crowd_cost = 0.0;       ///< crowd dollars charged to the tenant
  double vruntime_s = 0.0;       ///< normalized fair-share clock
  double budget_spent = 0.0;     ///< TenantLedger::spent()
  double budget_cap = 0.0;
  uint64_t steps = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t evictions = 0;
  /// Submissions awaiting (re)admission — the tenant's backlog. While this
  /// is nonzero the tenant is contending for resident slots; once it drops
  /// to zero the tenant's remaining work is all being served.
  uint64_t waiting = 0;
};

/// Point-in-time service accounting.
struct ServiceStats {
  size_t resident = 0;       ///< submissions holding a slot
  size_t queued = 0;         ///< waiting for admission (fresh or evicted)
  size_t peak_resident = 0;  ///< high-water mark; never exceeds the cap
  uint64_t admissions = 0;   ///< fresh sessions admitted
  uint64_t resumes = 0;      ///< evicted sessions re-admitted from snapshot
  uint64_t evictions = 0;
  uint64_t steps = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
};

/// What one scheduler turn did (see EmService::StepOnce).
struct StepEvent {
  std::string session_id;
  std::string tenant;
  PipelineStage stage = PipelineStage::kInit;  ///< stage the step executed
  bool session_done = false;
  bool session_failed = false;
  double charged_vtime_s = 0.0;  ///< fair-share charge for this step
  double wall_ms = 0.0;          ///< real latency of the step
};

/// The multi-tenant scheduler. `cluster` must outlive the service.
class EmService {
 public:
  explicit EmService(Cluster* cluster, ServiceConfig config = {});
  ~EmService();

  EmService(const EmService&) = delete;
  EmService& operator=(const EmService&) = delete;

  /// Declares a tenant's budget/priority. Fails on duplicate names.
  /// Submitting under an unknown tenant auto-registers it with defaults.
  Status RegisterTenant(const std::string& tenant, TenantConfig config = {});

  /// Enqueues one matching task for `tenant`. `a`, `b`, and `crowd` are
  /// caller-owned and must outlive the service; the service wraps `crowd`
  /// with the tenant's LedgeredCrowd before the session journals it.
  /// Fails on duplicate session ids. Safe from any thread, including while
  /// Drain() runs.
  Status Submit(const std::string& tenant, std::string session_id,
                const Table* a, const Table* b, CrowdPlatform* crowd,
                FalconConfig config);

  /// One scheduler turn: performs any pending admissions/evictions, then
  /// steps the fair-share pick, first building its session if it was
  /// admitted since its last step. Returns kNotFound when there is nothing
  /// left to do. The event's step_status-equivalent is folded into
  /// session_failed (query FinalStatus for the error); a session that fails
  /// to build fails its submission the same way.
  Result<StepEvent> StepOnce();

  /// Runs scheduler turns from `workers` threads until every submitted
  /// session has completed or failed. Individual session failures do not
  /// abort the drain; inspect FinalStatus/failed_sessions() afterwards.
  Status Drain(int workers = 1);

  /// Moves a completed session's result out. Fails with the session's
  /// final status if it failed, kInvalidArgument if it is still in flight.
  Result<MatchResult> TakeResult(const std::string& session_id);

  /// Terminal status of a finished session (OK for completed ones); nullopt
  /// while the session is still queued/running or the id is unknown.
  std::optional<Status> FinalStatus(const std::string& session_id) const;
  std::vector<std::string> failed_sessions() const;

  ServiceStats stats() const;
  Result<TenantStats> tenant_stats(const std::string& tenant) const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct Tenant;
  struct Submission;

  Status SubmitLocked(const std::string& tenant, std::string session_id,
                      const Table* a, const Table* b, CrowdPlatform* crowd,
                      FalconConfig config);
  Tenant* GetOrCreateTenantLocked(const std::string& name);
  /// Settled vruntime plus provisional charges for in-flight steps — the
  /// value every scheduling comparison (admit, evict, pick) uses, so
  /// concurrent workers cannot all read a multi-session tenant as
  /// least-served before its first charge lands.
  static double EffectiveVruntime(const Tenant* t);
  /// Mean settled step charge — the pick-time provisional estimate.
  double MeanChargeLocked() const;
  /// Fills free resident slots deficit-aware: each slot goes to the queued
  /// submission of the least-served (minimum-vruntime) tenant; equal
  /// vruntime prefers the tenant holding fewer resident slots, then queue
  /// position, so order stays FIFO within a tenant. Builds no session: the
  /// first StepOnce that picks the submission does, outside the lock.
  void AdmitLocked();
  /// Under queue pressure, snapshots the most-served tenant's idle session
  /// out of the resident set (respecting min_steps_before_evict). A victim
  /// never stepped since admission has no session and is requeued as is.
  void MaybeEvictLocked();
  /// The deficit/fair-share pick: idle resident session of the minimum-
  /// vruntime tenant (FIFO admission order within a tenant).
  Submission* PickLocked();
  /// Retires the pick-time provisional charge, charges the step to the
  /// tenant, and retires done/failed sessions. A null `sub->session` means
  /// the session failed to build with `status`: nothing ran, so nothing is
  /// charged.
  void SettleLocked(Submission* sub, const Status& status, StepEvent* event);

  ServiceConfig config_;
  Cluster* cluster_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::map<std::string, std::unique_ptr<Submission>> submissions_;
  std::deque<Submission*> queue_;      ///< awaiting admission, submit order
  std::vector<Submission*> resident_;  ///< admitted, live pipeline state
  uint64_t admit_seq_ = 0;
  ServiceStats stats_;
  double charge_sum_s_ = 0.0;  ///< settled charges, feeds MeanChargeLocked
  uint64_t charge_count_ = 0;
};

}  // namespace falcon

#endif  // FALCON_SESSION_SERVICE_H_
