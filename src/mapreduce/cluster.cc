#include "mapreduce/cluster.h"

#include <algorithm>
#include <queue>

#include "common/thread_pool.h"

namespace falcon {

const char* ShufflePartitionerName(ShufflePartitioner p) {
  switch (p) {
    case ShufflePartitioner::kStableHash:
      return "fnv";
    case ShufflePartitioner::kSkewAware:
      return "skew";
  }
  return "unknown";
}

Cluster::Cluster(ClusterConfig config) : config_(config) {}

Cluster::~Cluster() = default;

int Cluster::local_threads() const {
  if (config_.local_threads <= 0) return ThreadPool::HardwareThreads();
  return config_.local_threads;
}

ThreadPool* Cluster::pool() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!pool_created_) {
    pool_created_ = true;
    int threads = local_threads();
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

ArenaPool* Cluster::arena_pool() {
  std::lock_guard<std::mutex> lock(mu_);
  if (arena_pool_ == nullptr) arena_pool_ = std::make_unique<ArenaPool>();
  return arena_pool_.get();
}

JobStats::Phase JobStats::PhaseAt(VDuration t) const {
  if (t.seconds < 0) return Phase::kNotStarted;
  VDuration acc = startup;
  if (t < acc) return Phase::kMap;  // startup counts toward the map phase
  acc += map_time;
  if (t < acc) return Phase::kMap;
  acc += shuffle_time;
  if (t < acc) return Phase::kShuffle;
  acc += reduce_time;
  if (t < acc) return Phase::kReduce;
  return Phase::kDone;
}

double JobStats::ReduceFractionAt(VDuration t) const {
  VDuration reduce_start = startup + map_time + shuffle_time;
  if (reduce_time.seconds <= 0.0) return t >= reduce_start ? 1.0 : 0.0;
  double f = (t - reduce_start).seconds / reduce_time.seconds;
  return std::clamp(f, 0.0, 1.0);
}

VDuration Cluster::ScheduleMakespan(const std::vector<double>& task_seconds,
                                    int workers) const {
  if (task_seconds.empty()) return VDuration::Zero();
  workers = std::max(workers, 1);
  std::vector<double> tasks = task_seconds;
  std::sort(tasks.begin(), tasks.end(), std::greater<double>());
  // Min-heap of worker loads (greedy LPT).
  std::priority_queue<double, std::vector<double>, std::greater<double>> loads;
  for (int i = 0; i < workers; ++i) loads.push(0.0);
  const double overhead = config_.task_overhead.seconds;
  for (double t : tasks) {
    double load = loads.top();
    loads.pop();
    loads.push(load + t * config_.core_speed_factor + overhead);
  }
  double makespan = 0.0;
  while (!loads.empty()) {
    makespan = loads.top();
    loads.pop();
  }
  return VDuration::Seconds(makespan);
}

TaskLoadStats Cluster::ComputeTaskLoad(
    const std::vector<double>& task_seconds) const {
  TaskLoadStats load;
  load.tasks = task_seconds.size();
  if (task_seconds.empty()) return load;
  std::vector<double> vt(task_seconds.size());
  for (size_t i = 0; i < task_seconds.size(); ++i) {
    vt[i] = task_seconds[i] * config_.core_speed_factor +
            config_.task_overhead.seconds;
  }
  std::sort(vt.begin(), vt.end());
  double sum = 0.0;
  for (double t : vt) sum += t;
  load.max_seconds = vt.back();
  load.mean_seconds = sum / static_cast<double>(vt.size());
  // Nearest-rank p99 (== max below 100 tasks).
  const size_t rank =
      std::min(vt.size() - 1,
               static_cast<size_t>(0.99 * static_cast<double>(vt.size())));
  load.p99_seconds = vt[rank];
  load.straggler_ratio =
      (vt.size() > 1 && load.mean_seconds > 0.0)
          ? load.max_seconds / load.mean_seconds
          : 1.0;
  return load;
}

TaskLoadStats RollupTaskLoad(const std::vector<JobStats>& jobs) {
  TaskLoadStats rollup;
  double vsum = 0.0;
  for (const JobStats& job : jobs) {
    for (const TaskLoadStats* load : {&job.map_load, &job.reduce_load}) {
      if (load->tasks == 0) continue;
      rollup.tasks += load->tasks;
      vsum += load->mean_seconds * static_cast<double>(load->tasks);
      rollup.max_seconds = std::max(rollup.max_seconds, load->max_seconds);
      rollup.p99_seconds = std::max(rollup.p99_seconds, load->p99_seconds);
      rollup.straggler_ratio =
          std::max(rollup.straggler_ratio, load->straggler_ratio);
    }
  }
  rollup.mean_seconds =
      rollup.tasks == 0 ? 0.0 : vsum / static_cast<double>(rollup.tasks);
  return rollup;
}

VDuration Cluster::ShuffleTime(size_t bytes) const {
  // Aggregate shuffle bandwidth: 200 MB/s per node.
  constexpr double kBandwidthPerNode = 200.0 * 1024 * 1024;
  double bandwidth = kBandwidthPerNode * std::max(config_.num_nodes, 1);
  return VDuration::Seconds(static_cast<double>(bytes) / bandwidth);
}

void Cluster::RecordJob(const JobStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  job_history_.push_back(stats);
}

std::vector<JobStats> Cluster::JobHistorySnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return job_history_;
}

VDuration Cluster::total_machine_time() const {
  std::lock_guard<std::mutex> lock(mu_);
  VDuration total = VDuration::Zero();
  for (const JobStats& job : job_history_) total += job.Total();
  return total;
}

// Callers that reset between measurement lanes (benches, A/B harnesses) must
// quiesce their own jobs first: the reset itself is synchronized, but a job
// recorded after it is attributed to the new lane.
void Cluster::ResetAccounting() {
  std::lock_guard<std::mutex> lock(mu_);
  job_history_.clear();
}

}  // namespace falcon
