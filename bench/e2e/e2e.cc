// End-to-end Falcon benchmark: one task instance (or one service batch) in
// one fresh process. README.md describes the workloads, the metrics and how
// run.py drives this binary.
//
//   falcon_e2e --workload products_spec|songs_zipf|matcher_only|service_mix
//              --seed N [--order-seed S] [--size bench|smoke]
//              [--trace out.json]
//
// The binary generates the instance's tables from --seed and serializes them
// to CSV, the upload a user would make. It then times everything from CSV
// parsing to the final result, calling only public library entry points:
// ReadCsvString, the FalconPipeline constructor and Start/Step, EmService
// Submit/StepOnce, and the accounting accessors. Every layer is measured from
// outside; nothing inside the library is instrumented.
//
// Output is one JSON object on stdout with a fingerprint of the outputs and
// the metrics, each with its unit. The exit status is 0 only when the outputs
// pass the correctness checks. With --trace the binary also records spans
// around every call into a layer, writes them as Chrome trace-event JSON
// (open it in Perfetto) and adds the per-layer metrics to its output.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "session/service.h"
#include "table/csv.h"
#include "workload/generator.h"
#include "workload/quality.h"

using namespace falcon;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// User + system CPU seconds of the process (RUSAGE_SELF) or of the calling
/// thread (RUSAGE_THREAD).
double CpuSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5)];
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// --- workload constants ------------------------------------------------------

/// Table and task sizes per --size tier. "bench" is small enough that one
/// timed run covers a catalog of instances, some several times; "smoke" only
/// checks that every path still runs.
struct Sizes {
  double products_spec_scale;  ///< of products 500x2500, sample 6000
  double songs_zipf_scale;     ///< of songs 1200x1200, sample 12000
  size_t matcher_only_a, matcher_only_b;
  int tenants, sessions_per_tenant;
  double service_blocking_scale;  ///< of products 500x2500, sample 6000
  size_t service_small_a, service_small_b;
};

constexpr Sizes kBenchSizes = {1.0, 0.5, 100, 500, 8, 2, 0.4, 30, 60};
constexpr Sizes kSmokeSizes = {0.3, 0.3, 30, 120, 2, 2, 0.2, 30, 60};

/// Threads a run may use: 4, or fewer on a smaller machine. Pipelines run
/// that many cluster threads; the service runs that many workers, each
/// stepping its session on one thread.
int Threads() {
  return static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
}

/// The crowd every workload labels with: 5% worker error, 1.5 minutes per
/// 10-question HIT (the paper's simulated-crowd setting, Section 11.4).
SimulatedCrowdConfig CrowdConfig(uint64_t seed) {
  SimulatedCrowdConfig c;
  c.error_rate = 0.05;
  c.seed = seed;
  c.hit_latency_mean = VDuration::Minutes(1.5);
  c.latency_sigma = 0.25;
  return c;
}

/// 10 nodes x 8 slots as in the paper's testbed, with the 2 GB mapper and
/// reducer memory scaled down with the data to 8 MB.
ClusterConfig BenchCluster(int local_threads) {
  ClusterConfig c;
  c.num_nodes = 10;
  c.map_slots_per_node = 8;
  c.reduce_slots_per_node = 8;
  c.job_startup = VDuration::Seconds(2.0);
  c.task_overhead = VDuration::Seconds(0.05);
  c.mapper_memory_bytes = size_t{8} * 1024 * 1024;
  c.reducer_memory_bytes = size_t{8} * 1024 * 1024;
  c.local_threads = local_threads;
  return c;
}

WorkloadOptions ProductsOptions(size_t size_a, size_t size_b, uint64_t seed) {
  WorkloadOptions opt;
  opt.size_a = size_a;
  opt.size_b = size_b;
  opt.seed = seed;
  opt.dirtiness = 0.50;
  opt.missing_rate = 0.05;
  opt.match_fraction = 0.45;
  return opt;
}

/// Blocker+Matcher settings: the pipeline is forced onto the blocking plan
/// (8 MB matcher-only budget) and its sample scales with the tables.
/// deterministic_rule_cost keeps the learned rule sequence, and with it the
/// candidate set, identical between runs of one instance.
FalconConfig BlockingConfig(double scale, uint64_t seed) {
  FalconConfig cfg;
  cfg.seed = seed;
  cfg.sample_size = static_cast<size_t>(6000 * scale);
  cfg.sample_y = 50;
  cfg.al_max_iterations = 15;
  cfg.max_rules_to_eval = 15;
  cfg.max_rules_exhaustive = 10;
  cfg.pair_selection_mask_threshold = 30000;
  cfg.matcher_only_max_bytes = size_t{8} * 1024 * 1024;
  cfg.deterministic_rule_cost = true;
  return cfg;
}

struct PipelineTask {
  GeneratedDataset data;
  FalconConfig config;
};

PipelineTask MakePipelineTask(const std::string& workload, const Sizes& sz,
                              uint64_t seed) {
  PipelineTask t;
  if (workload == "products_spec") {
    const double s = sz.products_spec_scale;
    t.data = GenerateProducts(ProductsOptions(
        static_cast<size_t>(500 * s), static_cast<size_t>(2500 * s), seed));
    t.config = BlockingConfig(s, seed);
  } else if (workload == "songs_zipf") {
    const double s = sz.songs_zipf_scale;
    WorkloadOptions opt;
    opt.size_a = static_cast<size_t>(1200 * s);
    opt.size_b = static_cast<size_t>(1200 * s);
    opt.seed = seed;
    opt.dirtiness = 0.30;
    opt.match_fraction = 0.60;
    opt.duplicate_rate = 0.30;
    opt.zipf_s = 1.2;
    t.data = GenerateSongs(opt);
    t.config = BlockingConfig(2.0 * s, seed);
  } else {  // matcher_only: default 256 MB budget, so A x B is enumerated
    t.data = GenerateProducts(
        ProductsOptions(sz.matcher_only_a, sz.matcher_only_b, seed));
    t.config = BlockingConfig(1.0, seed);
    t.config.matcher_only_max_bytes = FalconConfig().matcher_only_max_bytes;
  }
  return t;
}

/// Setup runs back to back in the task's process, at least kSetupMinRepeats
/// times and for at least kSetupMinSeconds, and setup_s is the median: a
/// single page fault or a host hiccup would otherwise decide a
/// millisecond-scale metric. The run uses what the last repetition built.
constexpr int kSetupMinRepeats = 5;
constexpr double kSetupMinSeconds = 0.5;

bool MoreSetups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return static_cast<int>(setup_s.size()) < kSetupMinRepeats ||
         total < kSetupMinSeconds;
}

/// F1 below this fails a run (for service_mix, the mean over its sessions).
/// Every catalog instance matches better; a lower score means wrong output.
constexpr double kMinF1 = 0.85;

// --- measurement -------------------------------------------------------------

/// In-memory span recorder written out as Chrome trace-event JSON.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// `args` is the body of a JSON object ("\"k\": 1, ...") or empty.
  void Span(const std::string& name, const char* cat, Clock::time_point t0,
            Clock::time_point t1, int tid, std::string args = "") {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, cat, Micros(t0), Micros(t1) - Micros(t0), tid,
                      std::move(args)});
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(f,
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": 0, \"args\": {\"name\": \"falcon_e2e\"}}");
    for (const Rec& s : spans_) {
      std::fprintf(f,
                   ",\n{\"name\": %s, \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                   "\"args\": {%s}}",
                   JsonString(s.name).c_str(), s.cat, s.ts_us, s.dur_us, s.tid,
                   s.args.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Rec {
    std::string name;
    const char* cat;
    double ts_us, dur_us;
    int tid;
    std::string args;
  };
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
};

/// Forwards every labeling call to the real platform and times it. Used only
/// in traced single-task runs: it has no snapshot state of its own, so it
/// must never sit under a session that can be evicted and resumed.
class TimedCrowd : public CrowdPlatform {
 public:
  TimedCrowd(CrowdPlatform* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  Result<LabelResult> LabelBatch(const LabelRequest& request) override {
    const auto t0 = Clock::now();
    Result<LabelResult> r = inner_->LabelBatch(request);
    const auto t1 = Clock::now();
    ++calls_;
    wall_s_ += Seconds(t0, t1);
    tracer_->Span("crowd.label_batch", "crowd", t0, t1, 0,
                  "\"questions\": " + std::to_string(request.pairs.size()));
    return r;
  }
  bool QuorumReached(VoteScheme scheme, uint32_t yes,
                     uint32_t no) const override {
    return inner_->QuorumReached(scheme, yes, no);
  }
  uint32_t MinAnswersToQuorum(VoteScheme scheme, uint32_t yes,
                              uint32_t no) const override {
    return inner_->MinAnswersToQuorum(scheme, yes, no);
  }

  uint64_t calls() const { return calls_; }
  double wall_s() const { return wall_s_; }

 private:
  CrowdPlatform* inner_;
  Tracer* tracer_;
  uint64_t calls_ = 0;
  double wall_s_ = 0.0;
};

/// Metric-name form of an operator ("gen_fvs(S)" -> "gen_fvs_s"). A service
/// session's first step runs Start() plus its first operator: "start".
std::string StageKey(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kInit: return "start";
    case PipelineStage::kGenFvsSample: return "gen_fvs_s";
    case PipelineStage::kBlockerAl: return "al_matcher_blocker";
    case PipelineStage::kGenFvsCand: return "gen_fvs_c";
    case PipelineStage::kMatcherAl: return "al_matcher_matcher";
    default: return PipelineStageName(stage);
  }
}

/// Stages reported per layer, in plan order.
const char* const kStages[] = {
    "start", "sample_pairs", "gen_fvs_s", "al_matcher_blocker",
    "get_block_rules", "eval_rules", "sel_opt_seq", "apply_block_rules",
    "gen_fvs_c", "al_matcher_matcher", "apply_matcher", "estimate_accuracy"};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool IsIndexJob(const std::string& name) {
  return StartsWith(name, "build-") || StartsWith(name, "tokenize-store") ||
         StartsWith(name, "token-freq") || StartsWith(name, "token-sort");
}

/// Metrics in output order, each with its unit. Add() accumulates, so a
/// service run sums per-session counters into one metric.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    Find(name, unit)->value = value;
  }
  void Add(const std::string& name, double value, const char* unit) {
    Find(name, unit)->value += value;
  }
  std::string Json() const {
    std::string out = "{";
    for (const Item& m : items_) {
      if (out.size() > 1) out += ", ";
      out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  Item* Find(const std::string& name, const char* unit) {
    for (Item& m : items_) {
      if (m.name == name) return &m;
    }
    items_.push_back({name, 0.0, unit});
    return &items_.back();
  }
  std::vector<Item> items_;
};

/// Per-operator wall and CPU time plus turn/step latencies. In a single-task
/// run a turn is one Step() call; in the service it is one StepOnce() call,
/// which also admits, resumes and evicts sessions under the service lock.
struct StageClock {
  std::map<std::string, double> wall_s, cpu_s;
  std::vector<double> turn_ms, step_ms;

  void Record(const std::string& stage, double turn_s, double step_s,
              double cpu) {
    wall_s[stage] += step_s;
    cpu_s[stage] += cpu;
    turn_ms.push_back(1e3 * turn_s);
    step_ms.push_back(1e3 * step_s);
  }

  void Report(MetricSet* layer) const {
    double turn = 0.0, wall = 0.0, cpu = 0.0;
    for (double ms : turn_ms) turn += ms / 1e3;
    for (double ms : step_ms) wall += ms / 1e3;
    for (const auto& [stage, s] : cpu_s) cpu += s;
    layer->Set("core.steps", static_cast<double>(step_ms.size()), "count");
    layer->Set("core.step_wall_s", wall, "s");
    layer->Set("core.step_cpu_s", cpu, "s");
    // Stage shares rather than seconds: a stage a workload never runs reads
    // 0 %, and core.step_wall_s / core.step_cpu_s give the base.
    for (const char* stage : kStages) {
      auto w = wall_s.find(stage);
      auto c = cpu_s.find(stage);
      layer->Set(std::string("core.") + stage + ".wall_pct",
                 w == wall_s.end() ? 0.0 : 100 * w->second / wall, "%");
      layer->Set(std::string("core.") + stage + ".cpu_pct",
                 c == cpu_s.end() ? 0.0 : 100 * c->second / cpu, "%");
    }
    layer->Set("session.turn_p50_ms", Percentile(turn_ms, 0.50), "ms");
    layer->Set("session.turn_p95_ms", Percentile(turn_ms, 0.95), "ms");
    layer->Set("session.step_p50_ms", Percentile(step_ms, 0.50), "ms");
    layer->Set("session.step_p95_ms", Percentile(step_ms, 0.95), "ms");
    layer->Set("session.sched_wait_pct", 100 * (turn - wall) / turn, "%");
  }
};

/// MapReduce, index and blocking counters from the cluster's job ledger.
/// `stage_of_job[i]` names the operator that ran job i ("" when unknown:
/// service sessions interleave on one cluster).
void ReportJobs(const std::vector<JobStats>& jobs,
                const std::vector<std::string>& stage_of_job,
                size_t candidates, MetricSet* layer) {
  double map_tasks = 0, reduce_tasks = 0, inter_rec = 0, inter_bytes = 0;
  double out_rec = 0, straggler = 1.0, index_jobs = 0, al_scored = 0;
  double eval_out = 0, apply_out = 0, spec_pairs = 0, emitted = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobStats& j = jobs[i];
    const double out = static_cast<double>(j.output_records);
    map_tasks += static_cast<double>(j.num_map_tasks);
    reduce_tasks += static_cast<double>(j.num_reduce_tasks);
    inter_rec += static_cast<double>(j.intermediate_records);
    inter_bytes += static_cast<double>(j.intermediate_bytes);
    out_rec += out;
    straggler = std::max({straggler, j.map_load.straggler_ratio,
                          j.reduce_load.straggler_ratio});
    const bool index = IsIndexJob(j.name);
    if (index) ++index_jobs;
    if (j.name == "al-pair-selection") {
      al_scored += static_cast<double>(j.input_records);
    }
    if (stage_of_job[i] == "eval_rules") {
      eval_out += out;
      if (!index) spec_pairs += out;
    } else if (stage_of_job[i] == "apply_block_rules") {
      apply_out += out;
      if (!index) emitted += out;
    }
  }
  emitted += spec_pairs;
  layer->Set("mapreduce.jobs", static_cast<double>(jobs.size()), "count");
  layer->Set("mapreduce.map_tasks", map_tasks, "count");
  layer->Set("mapreduce.reduce_tasks", reduce_tasks, "count");
  layer->Set("mapreduce.intermediate_records", inter_rec, "count");
  layer->Set("mapreduce.intermediate_bytes", inter_bytes, "bytes");
  layer->Set("mapreduce.output_records", out_rec, "count");
  layer->Set("mapreduce.straggler_ratio", straggler, "ratio");
  layer->Set("mapreduce.eval_rules.output_records", eval_out, "count");
  layer->Set("mapreduce.apply_block_rules.output_records", apply_out,
             "count");
  layer->Set("index.build_jobs", index_jobs, "count");
  layer->Set("learn.al_scored_pairs", al_scored, "count");
  layer->Set("blocking.spec_pairs", spec_pairs, "count");
  layer->Set("blocking.pairs_emitted", emitted, "count");
  layer->Set("blocking.useful_ratio",
             emitted > 0 ? static_cast<double>(candidates) / emitted : 0,
             "ratio");
}

/// Adds one finished task's result-side counters (summed over a service
/// batch's sessions).
void AddResultCounters(const RunMetrics& m, MetricSet* layer) {
  double index_vtime = 0.0;
  for (const OperatorTiming& op : m.operators) {
    if (StartsWith(op.name, "index_build")) index_vtime += op.raw.seconds;
  }
  layer->Add("index.build_vtime_s", index_vtime, "virtual_s");
  layer->Add("blocking.candidates", static_cast<double>(m.candidate_size),
             "count");
  layer->Add("blocking.speculated_rules", m.speculated_rules, "count");
  layer->Add("blocking.spec_rule_reused", m.spec_rule_reused ? 1 : 0,
             "count");
  layer->Add("blocking.candidate_rules",
             static_cast<double>(m.num_candidate_rules), "count");
  layer->Add("blocking.retained_rules",
             static_cast<double>(m.num_retained_rules), "count");
  const std::pair<const char*, uint64_t> intersect[] = {
      {"scalar", m.intersect_scalar}, {"small", m.intersect_small},
      {"gallop", m.intersect_gallop}, {"simd", m.intersect_simd},
      {"early_exit", m.intersect_early_exit},
      {"contains", m.intersect_contains}};
  for (const auto& [kernel, calls] : intersect) {
    layer->Add(std::string("text.intersect.") + kernel,
               static_cast<double>(calls), "count");
  }
  layer->Add("common.alloc_count", static_cast<double>(m.alloc_count),
             "count");
  layer->Add("common.alloc_bytes", static_cast<double>(m.alloc_bytes),
             "bytes");
  layer->Add("crowd.vtime_s", m.crowd_time.seconds, "virtual_s");
}

/// FNV-1a 64 over each sorted pair list in turn (matches, then candidates).
class Fingerprint {
 public:
  void AddPairs(std::vector<CandidatePair> pairs) {
    std::sort(pairs.begin(), pairs.end());
    Mix(pairs.size());
    for (const auto& [a, b] : pairs) Mix((uint64_t{a} << 32) | b);
  }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t h_ = 14695981039346656037ull;
};

struct Outcome {
  std::string error;  ///< empty when every correctness check passed
  Fingerprint fp;
  size_t matches = 0, candidates = 0;
  MetricSet e2e, layer;
};

/// Parses a task's two uploaded tables.
Status Ingest(const std::string& csv_a, const std::string& csv_b, Table* a,
              Table* b) {
  for (auto [csv, table] : {std::pair{&csv_a, a}, std::pair{&csv_b, b}}) {
    Result<Table> t = ReadCsvString(*csv, CsvOptions{});
    if (!t.ok()) return t.status();
    *table = std::move(t).value();
  }
  return Status::OK();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Times the rules layer on its own: feature-set generation for one task.
void FeatureSetMetrics(const Table& a, const Table& b, MetricSet* layer) {
  const auto t0 = Clock::now();
  FeatureSet fs = FeatureSet::Generate(a, b);
  layer->Add("rules.feature_set_s", Seconds(t0, Clock::now()), "s");
  layer->Add("rules.features", static_cast<double>(fs.size()), "count");
}

void SetEndToEnd(double setup_s, double run_s, double cpu_s,
                 double turnaround_s, double vtime, double unmasked,
                 double cost, double f1, MetricSet* e2e) {
  e2e->Set("setup_s", setup_s, "s");
  e2e->Set("run_wall_s", run_s, "s");
  e2e->Set("cpu_s", cpu_s, "s");
  e2e->Set("peak_rss_mb", PeakRssMb(), "MB");
  e2e->Set("turnaround_s", turnaround_s, "s");
  e2e->Set("total_vtime_s", vtime, "virtual_s");
  e2e->Set("unmasked_machine_vtime_s", unmasked, "virtual_s");
  e2e->Set("crowd_cost_usd", cost, "usd");
  e2e->Set("f1", f1, "ratio");
}

// --- single-task workloads ---------------------------------------------------

Outcome RunPipelineWorkload(const std::string& workload, const Sizes& sz,
                            uint64_t seed, Tracer* tracer) {
  Outcome o;
  MetricSet& layer = o.layer;
  PipelineTask task = MakePipelineTask(workload, sz, seed);
  const std::string csv_a = WriteCsvString(task.data.a);
  const std::string csv_b = WriteCsvString(task.data.b);
  task.data.a = Table();
  task.data.b = Table();
  const GroundTruth& truth = task.data.truth;
  SimulatedCrowd sim(CrowdConfig(seed), truth.MakeOracle());
  std::unique_ptr<TimedCrowd> timed;
  if (tracer != nullptr) timed = std::make_unique<TimedCrowd>(&sim, tracer);
  CrowdPlatform* crowd =
      timed ? static_cast<CrowdPlatform*>(timed.get()) : &sim;
  // Setup: parse the upload, build the pipeline (feature generation), Start.
  Cluster cluster(BenchCluster(Threads()));
  Table a, b;
  std::optional<FalconPipeline> pipeline;
  Status st;
  std::vector<double> setup_s, ingest_s;
  Clock::time_point t_setup;
  while (MoreSetups(setup_s)) {
    pipeline.reset();
    t_setup = Clock::now();
    st = Ingest(csv_a, csv_b, &a, &b);
    if (!st.ok()) {
      o.error = "ingest: " + st.ToString();
      return o;
    }
    const auto t_ingest = Clock::now();
    pipeline.emplace(&a, &b, crowd, &cluster, task.config);
    const auto t_ctor = Clock::now();
    st = pipeline->Start();
    const auto t_end = Clock::now();
    ingest_s.push_back(Seconds(t_setup, t_ingest));
    setup_s.push_back(Seconds(t_setup, t_end));
    if (tracer != nullptr) {
      tracer->Span("setup.ingest", "table", t_setup, t_ingest, 0);
      tracer->Span("setup.pipeline", "rules", t_ingest, t_ctor, 0);
      tracer->Span("setup.start", "core", t_ctor, t_end, 0);
      tracer->Span("setup", "setup", t_setup, t_end, 0);
    }
  }
  const auto t_run = Clock::now();

  // Run: one Step() per operator until the result is ready.
  const double cpu0 = CpuSeconds(RUSAGE_SELF);
  StageClock clock;
  std::vector<std::string> stage_of_job;
  while (st.ok() && !pipeline->done()) {
    const std::string stage = StageKey(pipeline->state().next);
    const double crowd0 = timed ? timed->wall_s() : 0.0;
    const double cpu_step0 = CpuSeconds(RUSAGE_SELF);
    const auto t0 = Clock::now();
    st = pipeline->Step();
    const auto t1 = Clock::now();
    if (tracer == nullptr) continue;
    const double step_s = Seconds(t0, t1);
    clock.Record(stage, step_s, step_s, CpuSeconds(RUSAGE_SELF) - cpu_step0);
    // Attribute the jobs this step ran by diffing the job ledger.
    const size_t first = stage_of_job.size();
    const std::vector<JobStats> jobs = cluster.JobHistorySnapshot();
    stage_of_job.resize(jobs.size(), stage);
    double out_rec = 0;
    for (size_t i = first; i < jobs.size(); ++i) {
      out_rec += static_cast<double>(jobs[i].output_records);
    }
    const double crowd_s = timed->wall_s() - crowd0;
    tracer->Span("step." + stage, "core", t0, t1, 0,
                 "\"mr_jobs\": " + std::to_string(jobs.size() - first) +
                     ", \"mr_output_records\": " + JsonNumber(out_rec) +
                     ", \"crowd_s\": " + JsonNumber(crowd_s) +
                     ", \"self_s\": " + JsonNumber(step_s - crowd_s));
  }
  const auto t_end = Clock::now();
  const double cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;
  if (!st.ok()) {
    o.error = "pipeline: " + st.ToString();
    return o;
  }
  Result<MatchResult> res = pipeline->TakeResult();
  if (!res.ok()) {
    o.error = "result: " + res.status().ToString();
    return o;
  }
  const RunMetrics& m = res->metrics;
  const QualityMetrics q = EvaluateMatches(res->matches, truth);
  o.matches = res->matches.size();
  o.candidates = res->candidates.size();
  o.fp.AddPairs(res->matches);
  o.fp.AddPairs(res->candidates);
  if (q.f1 < kMinF1) {
    o.error = "f1 " + JsonNumber(q.f1) + " below " + JsonNumber(kMinF1);
  }
  const double run_s = Seconds(t_run, t_end);
  SetEndToEnd(Median(setup_s), run_s, cpu_s, Median(setup_s) + run_s,
              m.total_time.seconds, m.machine_unmasked.seconds, m.cost, q.f1,
              &o.e2e);
  if (tracer == nullptr) return o;

  tracer->Span("workload." + workload, "workload", t_setup, t_end, 0);
  layer.Set("table.ingest_s", Median(ingest_s), "s");
  layer.Set("table.csv_bytes",
            static_cast<double>(csv_a.size() + csv_b.size()), "bytes");
  clock.Report(&layer);
  AddResultCounters(m, &layer);
  ReportJobs(cluster.JobHistorySnapshot(), stage_of_job, o.candidates, &layer);
  FeatureSetMetrics(a, b, &layer);
  layer.Set("learn.features_per_pair", m.matcher_features_per_pair, "count");
  layer.Set("learn.trees_per_pair", m.matcher_trees_per_pair, "count");
  layer.Set("crowd.calls", static_cast<double>(timed->calls()), "count");
  layer.Set("crowd.questions", static_cast<double>(sim.total_questions()),
            "count");
  layer.Set("crowd.wall_pct", 100 * timed->wall_s() / run_s, "%");
  layer.Set("session.evictions", 0, "count");
  layer.Set("session.resumes", 0, "count");
  layer.Set("session.peak_resident", 1, "count");
  return o;
}

// --- service_mix -------------------------------------------------------------

struct ServiceTask {
  std::string tenant, id;
  std::string csv_a, csv_b;
  GroundTruth truth;
  Table a, b;
  std::unique_ptr<SimulatedCrowd> crowd;
  FalconConfig config;
  double done_s = 0.0;  ///< result ready, seconds after setup began
};

/// Per-tenant crowd budget. Generous enough never to bind (a binding cap
/// would make results depend on scheduling order), so the check that no
/// ledger overspends is a pure invariant check.
constexpr double kTenantBudget = 500.0;

/// A closed batch: every session is submitted at t = 0 and Threads() workers
/// take scheduler turns until the service drains. Session j's tables come
/// from generator seed `seed + j`; every third session is a Blocker+Matcher
/// task, the rest small Matcher-only tasks, all with AL capped at 6
/// iterations. `order_seed` shuffles which tenant submits which session and
/// in what order, which changes admission, eviction and interleaving.
Outcome RunServiceWorkload(const Sizes& sz, uint64_t seed, uint64_t order_seed,
                           Tracer* tracer) {
  Outcome o;
  MetricSet& layer = o.layer;
  const int total = sz.tenants * sz.sessions_per_tenant;
  std::vector<int> order(static_cast<size_t>(total));
  for (int j = 0; j < total; ++j) order[j] = j;
  Rng rng(order_seed);
  rng.Shuffle(&order);
  std::vector<std::unique_ptr<ServiceTask>> tasks;
  for (int pos = 0; pos < total; ++pos) {
    const int j = order[pos];
    const uint64_t task_seed = seed + static_cast<uint64_t>(j);
    auto t = std::make_unique<ServiceTask>();
    char tenant[32];
    std::snprintf(tenant, sizeof(tenant), "tenant-%02d", pos % sz.tenants);
    t->tenant = tenant;
    t->id = "task-" + std::to_string(j);
    const double s = sz.service_blocking_scale;
    GeneratedDataset data = GenerateProducts(
        j % 3 == 0
            ? ProductsOptions(static_cast<size_t>(500 * s),
                              static_cast<size_t>(2500 * s), task_seed)
            : ProductsOptions(sz.service_small_a, sz.service_small_b,
                              task_seed));
    t->csv_a = WriteCsvString(data.a);
    t->csv_b = WriteCsvString(data.b);
    t->truth = std::move(data.truth);
    t->config = BlockingConfig(s, task_seed);
    t->config.al_max_iterations = 6;
    tasks.push_back(std::move(t));
  }

  ClusterConfig ccfg = BenchCluster(1);
  ccfg.job_startup = VDuration::Seconds(0.5);
  ccfg.task_overhead = VDuration::Seconds(0.01);
  Cluster cluster(ccfg);
  ServiceConfig scfg;
  scfg.max_resident_sessions = 8;
  scfg.min_steps_before_evict = 1;

  // Setup: ingest every upload and submit every session.
  std::optional<EmService> service;
  std::vector<double> setup_s, ingest_s;
  Clock::time_point t_setup;
  while (MoreSetups(setup_s)) {
    service.reset();
    t_setup = Clock::now();
    for (auto& t : tasks) {
      Status st = Ingest(t->csv_a, t->csv_b, &t->a, &t->b);
      if (!st.ok()) {
        o.error = "ingest: " + st.ToString();
        return o;
      }
    }
    ingest_s.push_back(Seconds(t_setup, Clock::now()));
    service.emplace(&cluster, scfg);
    for (int i = 0; i < sz.tenants; ++i) {
      TenantConfig tc;
      tc.budget_cap = kTenantBudget;
      Status st = service->RegisterTenant(tasks[i]->tenant, tc);
      if (!st.ok()) {
        o.error = "register: " + st.ToString();
        return o;
      }
    }
    for (auto& t : tasks) {
      // Tenant crowds are not wrapped: the session snapshots a platform's
      // state on eviction, and a wrapper would drop the simulator's RNG.
      const GroundTruth* truth = &t->truth;
      t->crowd = std::make_unique<SimulatedCrowd>(
          CrowdConfig(t->config.seed),
          [truth](RowId ar, RowId br) { return truth->IsMatch(ar, br); });
      Status st = service->Submit(t->tenant, t->id, &t->a, &t->b,
                                  t->crowd.get(), t->config);
      if (!st.ok()) {
        o.error = "submit: " + st.ToString();
        return o;
      }
    }
    const auto t_end = Clock::now();
    setup_s.push_back(Seconds(t_setup, t_end));
    if (tracer != nullptr) tracer->Span("setup", "setup", t_setup, t_end, 0);  }
  const auto t_run = Clock::now();

  // Run: the workers take scheduler turns until the service drains.
  std::mutex mu;
  StageClock clock;
  std::map<std::string, ServiceTask*> by_id;
  for (auto& t : tasks) by_id[t->id] = t.get();
  const double cpu0 = CpuSeconds(RUSAGE_SELF);
  auto worker = [&](int tid) {
    for (;;) {
      const double cpu_turn0 = CpuSeconds(RUSAGE_THREAD);
      const auto t0 = Clock::now();
      Result<StepEvent> ev = service->StepOnce();
      const auto t1 = Clock::now();
      if (!ev.ok()) return;  // drained
      const double cpu = CpuSeconds(RUSAGE_THREAD) - cpu_turn0;
      std::lock_guard<std::mutex> lock(mu);
      if (ev->session_done || ev->session_failed) {
        by_id[ev->session_id]->done_s = Seconds(t_setup, t1);
      }
      if (tracer == nullptr) continue;
      const std::string stage = StageKey(ev->stage);
      clock.Record(stage, Seconds(t0, t1), ev->wall_ms / 1e3, cpu);
      const std::string tags = "\"tenant\": " + JsonString(ev->tenant) +
                               ", \"session\": " + JsonString(ev->session_id);
      tracer->Span("turn", "session", t0, t1, tid, tags);
      // Only the step's duration is known, and the settle after it is
      // short, so the step span is aligned to the end of its turn.
      const auto step = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(ev->wall_ms));
      tracer->Span("step." + stage, "core", t1 - step, t1, tid, tags);
    }
  };
  std::vector<std::thread> workers;
  for (int i = 1; i <= Threads(); ++i) workers.emplace_back(worker, i);
  for (auto& w : workers) w.join();
  const auto t_end = Clock::now();
  const double cpu_s = CpuSeconds(RUSAGE_SELF) - cpu0;

  // Correctness: every session succeeded, residency stayed under the cap,
  // no tenant overspent, and the matches are accurate.
  const ServiceStats stats = service->stats();
  if (stats.failed != 0) {
    o.error = std::to_string(stats.failed) + " sessions failed";
  } else if (stats.peak_resident > scfg.max_resident_sessions) {
    o.error = "peak resident " + std::to_string(stats.peak_resident) +
              " above the cap";
  }
  for (int i = 0; i < sz.tenants && o.error.empty(); ++i) {
    Result<TenantStats> ts = service->tenant_stats(tasks[i]->tenant);
    if (!ts.ok() || ts->budget_spent > ts->budget_cap) {
      o.error = "tenant " + tasks[i]->tenant + " overspent its budget";
    }
  }
  if (!o.error.empty()) return o;
  double cost = 0, vtime = 0, unmasked = 0, f1 = 0, fpp = 0, tpp = 0;
  double questions = 0;
  std::vector<double> turnaround;
  // Results in session-id order, so the fingerprint ignores order_seed.
  for (const auto& [id, t] : by_id) {
    Result<MatchResult> res = service->TakeResult(id);
    if (!res.ok()) {
      o.error = "result " + id + ": " + res.status().ToString();
      return o;
    }
    const RunMetrics& m = res->metrics;
    const double n = total;
    o.matches += res->matches.size();
    o.candidates += res->candidates.size();
    o.fp.AddPairs(res->matches);
    o.fp.AddPairs(res->candidates);
    cost += m.cost;
    vtime += m.total_time.seconds;
    unmasked += m.machine_unmasked.seconds;
    f1 += EvaluateMatches(res->matches, t->truth).f1 / n;
    fpp += m.matcher_features_per_pair / n;
    tpp += m.matcher_trees_per_pair / n;
    questions += static_cast<double>(t->crowd->total_questions());
    turnaround.push_back(t->done_s);
    if (tracer != nullptr) AddResultCounters(m, &layer);
  }
  if (f1 < kMinF1) {
    o.error = "mean f1 " + JsonNumber(f1) + " below " + JsonNumber(kMinF1);
  }
  SetEndToEnd(Median(setup_s), Seconds(t_run, t_end), cpu_s,
              Median(turnaround), vtime, unmasked, cost, f1, &o.e2e);
  if (tracer == nullptr) return o;

  tracer->Span("workload.service_mix", "workload", t_setup, t_end, 0);
  double csv_bytes = 0;
  for (auto& t : tasks) {
    csv_bytes += static_cast<double>(t->csv_a.size() + t->csv_b.size());
  }
  layer.Set("table.ingest_s", Median(ingest_s), "s");
  layer.Set("table.csv_bytes", csv_bytes, "bytes");
  clock.Report(&layer);
  const std::vector<JobStats> jobs = cluster.JobHistorySnapshot();
  ReportJobs(jobs, std::vector<std::string>(jobs.size()), o.candidates,
             &layer);
  for (auto& t : tasks) FeatureSetMetrics(t->a, t->b, &layer);
  layer.Set("learn.features_per_pair", fpp, "count");
  layer.Set("learn.trees_per_pair", tpp, "count");
  layer.Set("crowd.calls", 0, "count");
  layer.Set("crowd.questions", questions, "count");
  layer.Set("crowd.wall_pct", 0, "%");
  layer.Set("session.evictions", static_cast<double>(stats.evictions),
            "count");
  layer.Set("session.resumes", static_cast<double>(stats.resumes), "count");
  layer.Set("session.peak_resident", static_cast<double>(stats.peak_resident),
            "count");
  return o;
}

int Usage(const std::string& msg) {
  std::fprintf(stderr,
               "falcon_e2e: %s\nusage: falcon_e2e --workload "
               "products_spec|songs_zipf|matcher_only|service_mix --seed N "
               "[--order-seed S] [--size bench|smoke] "
               "[--trace out.json]\n",
               msg.c_str());
  return 2;
}

bool ParseSeed(const std::string& s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return !s.empty() && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, size = "bench", trace_path;
  uint64_t seed = 0, order_seed = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      if (!ParseSeed(value, &seed)) return Usage("bad --seed " + value);
      have_seed = true;
    } else if (key == "--order-seed") {
      if (!ParseSeed(value, &order_seed)) return Usage("bad --order-seed");
    } else if (key == "--size") {
      size = value;
    } else if (key == "--trace") {
      trace_path = value;
    } else {
      return Usage("unknown flag " + key);
    }
  }
  const Sizes* sizes = size == "bench"   ? &kBenchSizes
                       : size == "smoke" ? &kSmokeSizes
                                         : nullptr;
  if (sizes == nullptr) return Usage("bad --size " + size);
  if (!have_seed) return Usage("--seed is required");
  const bool pipeline = workload == "products_spec" ||
                        workload == "songs_zipf" || workload == "matcher_only";
  if (!pipeline && workload != "service_mix") {
    return Usage("bad --workload " + workload);
  }

  std::unique_ptr<Tracer> tracer;
  if (!trace_path.empty()) tracer = std::make_unique<Tracer>();
  Outcome o =
      pipeline ? RunPipelineWorkload(workload, *sizes, seed, tracer.get())
               : RunServiceWorkload(*sizes, seed, order_seed, tracer.get());
  if (tracer != nullptr && o.error.empty() && !tracer->Write(trace_path)) {
    o.error = "cannot write trace " + trace_path;
  }
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"size\": %s, \"ok\": %s, "
      "\"error\": %s, \"outputs\": {\"matches_fp\": \"%s\", \"matches\": %zu, "
      "\"candidates\": %zu}, \"end_to_end\": %s, \"per_layer\": %s}\n",
      JsonString(workload).c_str(), static_cast<unsigned long long>(seed),
      JsonString(size).c_str(), o.error.empty() ? "true" : "false",
      JsonString(o.error).c_str(), o.fp.Hex().c_str(), o.matches,
      o.candidates, o.e2e.Json().c_str(), o.layer.Json().c_str());
  return o.error.empty() ? 0 : 1;
}
