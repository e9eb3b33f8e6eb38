#include "session/service.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>
#include <utility>

namespace falcon {

namespace {

/// Maximum answers one question can consume under `scheme` (v_m / v_e).
uint32_t SchemeMaxAnswers(VoteScheme scheme) {
  switch (scheme) {
    case VoteScheme::kMajority3:
      return 3;
    case VoteScheme::kStrongMajority7:
      return 7;
  }
  return 7;
}

/// `status` with the failing session's id prefixed to its message, so a
/// failed submission's FinalStatus names the culprit.
Status AnnotateSessionStatus(const std::string& session_id,
                             const Status& status) {
  if (status.ok()) return status;
  return Status(status.code(),
                "session '" + session_id + "': " + status.message());
}

}  // namespace

// ---------------------------------------------------------------------------
// TenantLedger
// ---------------------------------------------------------------------------

TenantLedger::Reservation TenantLedger::ReservePrefix(
    const std::vector<double>& question_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  // Epsilon mirrors BudgetLedger::Charge: exact-cap batches must fit.
  double available = cap_ - spent_ - reserved_ + 1e-9;
  Reservation r;
  for (double bound : question_bounds) {
    if (r.amount + bound > available) break;
    r.amount += bound;
    ++r.questions;
  }
  reserved_ += r.amount;
  return r;
}

void TenantLedger::Commit(const Reservation& r, double actual_cost) {
  std::lock_guard<std::mutex> lock(mu_);
  reserved_ -= r.amount;
  spent_ += actual_cost;
}

void TenantLedger::Release(const Reservation& r) {
  std::lock_guard<std::mutex> lock(mu_);
  reserved_ -= r.amount;
}

double TenantLedger::spent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spent_;
}

double TenantLedger::reserved() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_;
}

double TenantLedger::remaining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cap_ - spent_ - reserved_;
}

// ---------------------------------------------------------------------------
// LedgeredCrowd
// ---------------------------------------------------------------------------

Result<LabelResult> LedgeredCrowd::LabelBatch(const LabelRequest& request) {
  FALCON_RETURN_NOT_OK(request.CheckShape());
  const size_t n = request.pairs.size();

  // Worst-case dollars per question, in posting order. A question whose
  // prior votes already reach quorum costs nothing (platforms only collect
  // missing answers); an open question can consume up to the scheme maximum
  // minus what it already holds — even requeued questions never exceed
  // v_m/v_e total answers — further capped by the request's own answer caps.
  std::vector<double> bounds(n, 0.0);
  const uint32_t scheme_max = SchemeMaxAnswers(request.scheme);
  for (size_t i = 0; i < n; ++i) {
    const PriorVotes prior = request.PriorFor(i);
    if (inner_->QuorumReached(request.scheme, prior.yes, prior.no)) continue;
    uint32_t worst = scheme_max > prior.total() ? scheme_max - prior.total()
                                                : uint32_t{1};
    worst = std::min(worst, request.CapFor(i));
    bounds[i] = static_cast<double>(worst) * cost_per_answer_;
  }

  TenantLedger::Reservation reservation = ledger_->ReservePrefix(bounds);
  const size_t posted = reservation.questions;

  if (posted == 0 && n > 0) {
    ledger_->Release(reservation);
    ++refused_batches_;
    return Status::BudgetExhausted(
        "tenant crowd budget exhausted (spent $" +
        std::to_string(ledger_->spent()) + " of $" +
        std::to_string(ledger_->cap()) + ")");
  }

  // Forward the affordable prefix (the whole batch in the common case).
  LabelRequest sub = request;
  sub.pairs.resize(posted);
  if (!sub.prior.empty()) sub.prior.resize(posted);
  if (!sub.max_new_answers.empty()) sub.max_new_answers.resize(posted);

  Result<LabelResult> forwarded = LabelInner(sub);
  if (!forwarded.ok()) {
    ledger_->Release(reservation);
    return forwarded.status();
  }
  LabelResult result = std::move(forwarded).value();
  ledger_->Commit(reservation, result.cost);

  if (posted < n) {
    // The unposted tail keeps its prior-majority labels and zero new
    // answers, and the batch is flagged truncated so crowd loops wind down
    // (the C_max contract).
    ++truncated_batches_;
    result.truncated = true;
    for (size_t i = posted; i < n; ++i) result.Append(request.PriorFor(i));
  }

  Record(result);
  return result;
}

void LedgeredCrowd::SaveOwnState(BinaryWriter* w) const {
  w->U64(truncated_batches_);
  w->U64(refused_batches_);
}

Status LedgeredCrowd::RestoreOwnState(BinaryReader* r) {
  truncated_batches_ = r->U64();
  refused_batches_ = r->U64();
  // Deliberately no ledger restore: budget already spent stays spent even if
  // the session rewinds to an older snapshot.
  return Status::OK();
}

// ---------------------------------------------------------------------------
// EmService
// ---------------------------------------------------------------------------

struct EmService::Tenant {
  std::string name;
  TenantConfig config;
  TenantLedger ledger;
  double machine_vtime_s = 0.0;
  double crowd_cost = 0.0;
  double vruntime_s = 0.0;
  /// Provisional vruntime for the tenant's steps currently in flight,
  /// charged at pick time from the service-wide mean settled charge and
  /// trued up at settle. Without it, a tenant with several resident
  /// sessions reads as least-served to every concurrent worker until the
  /// first settle lands, and absorbs one quantum per worker instead of one.
  double inflight_vruntime_s = 0.0;
  uint64_t steps = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t evictions = 0;

  Tenant(std::string n, TenantConfig c)
      : name(std::move(n)), config(c), ledger(c.budget_cap) {}
};

struct EmService::Submission {
  enum class State { kQueued, kResident, kStepping, kEvicted, kDone, kFailed };

  std::string id;
  Tenant* tenant = nullptr;
  const Table* a = nullptr;
  const Table* b = nullptr;
  FalconConfig config;
  /// The budget-enforcing wrapper the session journals through; owns no
  /// crowd state of its own beyond counters, so it survives evict/resume.
  std::unique_ptr<LedgeredCrowd> crowd;
  /// Live pipeline state once stepped; null while queued, evicted or
  /// finished, and from admission until the first step builds it.
  /// Declared after `crowd` so it is destroyed first: the session's journal
  /// wraps that crowd.
  std::unique_ptr<WorkflowSession> session;

  State state = State::kQueued;
  /// Pipeline state from eviction until the next step resumes it.
  std::string snapshot;
  uint64_t admit_seq = 0;
  size_t steps_since_admit = 0;
  /// This submission's share of tenant->inflight_vruntime_s while kStepping.
  double provisional_vruntime_s = 0.0;
  /// Cumulative metrics already charged to the tenant. RunMetrics are
  /// serialized into snapshots, so these stay consistent across eviction.
  double machine_watermark_s = 0.0;
  double cost_watermark = 0.0;
  Status final_status = Status::OK();
  std::optional<MatchResult> result;

  bool Terminal() const {
    return state == State::kDone || state == State::kFailed;
  }
};

EmService::EmService(Cluster* cluster, ServiceConfig config)
    : config_(config), cluster_(cluster) {
  if (config_.max_resident_sessions == 0) config_.max_resident_sessions = 1;
}

EmService::~EmService() = default;

Status EmService::RegisterTenant(const std::string& tenant,
                                 TenantConfig config) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenants_.count(tenant) > 0) {
    return Status::InvalidArgument("duplicate tenant: " + tenant);
  }
  tenants_.emplace(tenant, std::make_unique<Tenant>(tenant, config));
  return Status::OK();
}

EmService::Tenant* EmService::GetOrCreateTenantLocked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_.emplace(name, std::make_unique<Tenant>(name, TenantConfig{}))
             .first;
  }
  return it->second.get();
}

Status EmService::Submit(const std::string& tenant, std::string session_id,
                         const Table* a, const Table* b, CrowdPlatform* crowd,
                         FalconConfig config) {
  std::lock_guard<std::mutex> lock(mu_);
  Status st = SubmitLocked(tenant, std::move(session_id), a, b, crowd,
                           std::move(config));
  if (st.ok()) cv_.notify_all();
  return st;
}

Status EmService::SubmitLocked(const std::string& tenant,
                               std::string session_id, const Table* a,
                               const Table* b, CrowdPlatform* crowd,
                               FalconConfig config) {
  if (submissions_.count(session_id) > 0) {
    return Status::InvalidArgument("duplicate session id: " + session_id);
  }
  Tenant* t = GetOrCreateTenantLocked(tenant);
  auto sub = std::make_unique<Submission>();
  sub->id = session_id;
  sub->tenant = t;
  sub->a = a;
  sub->b = b;
  sub->config = std::move(config);
  sub->crowd = std::make_unique<LedgeredCrowd>(crowd, &t->ledger,
                                               t->config.cost_per_answer);
  queue_.push_back(sub.get());
  submissions_.emplace(std::move(session_id), std::move(sub));
  ++t->submitted;
  return Status::OK();
}

void EmService::AdmitLocked() {
  while (resident_.size() < config_.max_resident_sessions && !queue_.empty()) {
    // Admission is deficit-aware, not FIFO: the slot goes to the queued
    // submission of the least-served tenant. Under eviction churn the
    // resident set IS the served set (every admission is worth at least one
    // step before the session is evictable again), so first-come-first-
    // admitted would hand a tenant share proportional to its session count
    // — exactly the unfairness the vruntime ledger exists to prevent. At
    // equal vruntime (notably the all-zero start) the tenant holding fewer
    // resident slots wins, spreading the first admission wave across
    // distinct tenants instead of letting one tenant's burst of submissions
    // grab every slot. Queue position breaks remaining ties, preserving
    // FIFO within a tenant.
    std::map<const Tenant*, size_t> slots;
    for (const Submission* res : resident_) ++slots[res->tenant];
    auto best = queue_.begin();
    for (auto it = std::next(best); it != queue_.end(); ++it) {
      const Tenant* cand = (*it)->tenant;
      const Tenant* top = (*best)->tenant;
      if (EffectiveVruntime(cand) < EffectiveVruntime(top) ||
          (EffectiveVruntime(cand) == EffectiveVruntime(top) &&
           slots[cand] < slots[top])) {
        best = it;
      }
    }
    Submission* sub = *best;
    queue_.erase(best);
    // The slot is taken now; the worker that first steps the submission
    // builds its session (StepOnce), outside mu_.
    if (sub->state == Submission::State::kEvicted) {
      ++stats_.resumes;
    } else {
      ++stats_.admissions;
    }
    sub->state = Submission::State::kResident;
    sub->admit_seq = admit_seq_++;
    sub->steps_since_admit = 0;
    resident_.push_back(sub);
    stats_.peak_resident = std::max(stats_.peak_resident, resident_.size());
  }
}

double EmService::EffectiveVruntime(const Tenant* t) {
  return t->vruntime_s + t->inflight_vruntime_s;
}

double EmService::MeanChargeLocked() const {
  return charge_count_ > 0 ? charge_sum_s_ / static_cast<double>(charge_count_)
                           : 0.0;
}

void EmService::MaybeEvictLocked() {
  if (queue_.empty() || resident_.size() < config_.max_resident_sessions) {
    return;
  }
  // Evict the most-served tenant's idle session: it is the one fair sharing
  // would step last anyway, so parking it costs the least progress.
  Submission* victim = nullptr;
  for (Submission* sub : resident_) {
    if (sub->state != Submission::State::kResident) continue;
    if (sub->steps_since_admit < config_.min_steps_before_evict) continue;
    if (victim == nullptr ||
        EffectiveVruntime(sub->tenant) > EffectiveVruntime(victim->tenant) ||
        (EffectiveVruntime(sub->tenant) == EffectiveVruntime(victim->tenant) &&
         sub->admit_seq < victim->admit_seq)) {
      victim = sub;
    }
  }
  if (victim == nullptr) return;
  // A victim admitted but never stepped (possible only at
  // min_steps_before_evict 0) has no session: it keeps the snapshot or
  // fresh config it was admitted with.
  if (victim->session != nullptr) {
    victim->snapshot = victim->session->SaveSnapshot();
    victim->session.reset();
  }
  resident_.erase(std::find(resident_.begin(), resident_.end(), victim));
  victim->state = Submission::State::kEvicted;
  queue_.push_back(victim);
  ++victim->tenant->evictions;
  ++stats_.evictions;
}

EmService::Submission* EmService::PickLocked() {
  Submission* best = nullptr;
  for (Submission* sub : resident_) {
    if (sub->state != Submission::State::kResident) continue;
    if (best == nullptr) {
      best = sub;
      continue;
    }
    const double sv = EffectiveVruntime(sub->tenant);
    const double bv = EffectiveVruntime(best->tenant);
    if (sv < bv ||
        (sv == bv && (sub->tenant->name < best->tenant->name ||
                      (sub->tenant->name == best->tenant->name &&
                       sub->admit_seq < best->admit_seq)))) {
      best = sub;
    }
  }
  return best;
}

Result<StepEvent> EmService::StepOnce() {
  std::unique_lock<std::mutex> lock(mu_);
  Submission* sub = nullptr;
  for (;;) {
    MaybeEvictLocked();
    AdmitLocked();
    sub = PickLocked();
    if (sub != nullptr) break;
    bool live = false;
    for (const auto& [id, s] : submissions_) {
      if (!s->Terminal()) {
        live = true;
        break;
      }
    }
    if (!live) return Status::NotFound("service drained: no session to step");
    // All runnable sessions are being stepped by other workers; wait for a
    // settle (or a submit) to change the picture.
    cv_.wait(lock);
  }

  sub->state = Submission::State::kStepping;
  sub->provisional_vruntime_s =
      MeanChargeLocked() / std::max(sub->tenant->config.weight, 1e-9);
  sub->tenant->inflight_vruntime_s += sub->provisional_vruntime_s;
  WorkflowSession* session = sub->session.get();
  std::string snapshot = std::exchange(sub->snapshot, std::string());
  lock.unlock();

  // A submission admitted since its last step has no session yet. The
  // worker that steps it builds it here, outside mu_, from its snapshot if
  // it was evicted after running and fresh otherwise, and installs it under
  // the lock at settle. Everything read here is fixed at submit, and no
  // other worker touches a kStepping submission.
  std::unique_ptr<WorkflowSession> built;
  Status status;
  if (session == nullptr) {
    if (snapshot.empty()) {
      built = std::make_unique<WorkflowSession>(
          sub->id, sub->a, sub->b, sub->crowd.get(), cluster_, sub->config);
    } else {
      Result<std::unique_ptr<WorkflowSession>> resumed =
          WorkflowSession::Resume(snapshot, sub->a, sub->b, sub->crowd.get(),
                                  cluster_, sub->config);
      snapshot.clear();
      snapshot.shrink_to_fit();
      if (resumed.ok()) {
        built = std::move(resumed).value();
      } else {
        status = resumed.status();
      }
    }
    session = built.get();
  }
  StepEvent event{.session_id = sub->id, .tenant = sub->tenant->name};
  if (session != nullptr) {
    event.stage = session->next_stage();
    const auto t0 = std::chrono::steady_clock::now();
    status = session->Step();
    const auto t1 = std::chrono::steady_clock::now();
    event.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
  }

  lock.lock();
  if (built != nullptr) sub->session = std::move(built);
  SettleLocked(sub, status, &event);
  cv_.notify_all();
  return event;
}

void EmService::SettleLocked(Submission* sub, const Status& status,
                             StepEvent* event) {
  Tenant* t = sub->tenant;
  // True up: retire the provisional pick-time debit; a step that ran lands
  // its real charge below.
  t->inflight_vruntime_s =
      std::max(0.0, t->inflight_vruntime_s - sub->provisional_vruntime_s);
  sub->provisional_vruntime_s = 0.0;

  // Null only if the session failed to build, so nothing ran to charge.
  WorkflowSession* session = sub->session.get();
  if (session != nullptr) {
    ++stats_.steps;
    ++t->steps;
    ++sub->steps_since_admit;
    // Charge the step's consumption delta to the tenant. Metrics must be
    // read BEFORE TakeResult (which moves them out with the result).
    const RunMetrics& m = session->pipeline().state().out.metrics;
    const double machine_s = m.machine_time.seconds;
    const double cost = m.cost;
    const double delta_machine = machine_s - sub->machine_watermark_s;
    const double delta_cost = cost - sub->cost_watermark;
    sub->machine_watermark_s = machine_s;
    sub->cost_watermark = cost;
    const double charged =
        delta_machine + config_.crowd_cost_vtime_weight * delta_cost;
    charge_sum_s_ += charged;
    ++charge_count_;
    t->machine_vtime_s += delta_machine;
    t->crowd_cost += delta_cost;
    t->vruntime_s += charged / std::max(t->config.weight, 1e-9);
    event->charged_vtime_s = charged;
  }

  if (!status.ok()) {
    sub->state = Submission::State::kFailed;
    sub->final_status = AnnotateSessionStatus(sub->id, status);
    event->session_failed = true;
    ++t->failed;
    ++stats_.failed;
  } else if (session->done()) {
    Result<MatchResult> result = session->TakeResult();
    if (result.ok()) {
      sub->result = std::move(result).value();
      sub->state = Submission::State::kDone;
      event->session_done = true;
      ++t->completed;
      ++stats_.completed;
    } else {
      sub->state = Submission::State::kFailed;
      sub->final_status = AnnotateSessionStatus(sub->id, result.status());
      event->session_failed = true;
      ++t->failed;
      ++stats_.failed;
    }
  } else {
    sub->state = Submission::State::kResident;
    return;  // stays resident
  }

  // Terminal: drop the session's heavy state and free the resident slot.
  sub->session.reset();
  resident_.erase(std::find(resident_.begin(), resident_.end(), sub));
}

Status EmService::Drain(int workers) {
  workers = std::max(workers, 1);
  auto drain_loop = [this] {
    for (;;) {
      Result<StepEvent> event = StepOnce();
      if (!event.ok()) return;  // kNotFound: drained
    }
  };
  if (workers == 1) {
    drain_loop();
    return Status::OK();
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) threads.emplace_back(drain_loop);
  for (auto& th : threads) th.join();
  return Status::OK();
}

Result<MatchResult> EmService::TakeResult(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = submissions_.find(session_id);
  if (it == submissions_.end()) {
    return Status::NotFound("no session with id: " + session_id);
  }
  Submission* sub = it->second.get();
  switch (sub->state) {
    case Submission::State::kDone:
      if (!sub->result.has_value()) {
        return Status::InvalidArgument("session '" + session_id +
                                       "': result already taken");
      }
      {
        MatchResult out = std::move(*sub->result);
        sub->result.reset();
        return out;
      }
    case Submission::State::kFailed:
      return sub->final_status;
    default:
      return Status::InvalidArgument("session '" + session_id +
                                     "' is still in flight");
  }
}

std::optional<Status> EmService::FinalStatus(
    const std::string& session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = submissions_.find(session_id);
  if (it == submissions_.end()) return std::nullopt;
  const Submission* sub = it->second.get();
  if (!sub->Terminal()) return std::nullopt;
  return sub->final_status;
}

std::vector<std::string> EmService::failed_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [id, sub] : submissions_) {
    if (sub->state == Submission::State::kFailed) out.push_back(id);
  }
  return out;
}

ServiceStats EmService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s = stats_;
  s.resident = resident_.size();
  s.queued = queue_.size();
  return s;
}

Result<TenantStats> EmService::tenant_stats(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("no tenant: " + tenant);
  }
  const Tenant* t = it->second.get();
  TenantStats s;
  s.machine_vtime_s = t->machine_vtime_s;
  s.crowd_cost = t->crowd_cost;
  s.vruntime_s = t->vruntime_s;
  s.budget_spent = t->ledger.spent();
  s.budget_cap = t->ledger.cap();
  s.steps = t->steps;
  s.submitted = t->submitted;
  s.completed = t->completed;
  s.failed = t->failed;
  s.evictions = t->evictions;
  for (const Submission* sub : queue_) {
    if (sub->tenant == t) ++s.waiting;
  }
  return s;
}

}  // namespace falcon
