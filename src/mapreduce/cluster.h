// Simulated Hadoop cluster.
//
// The paper runs Falcon on a 10-node Hadoop cluster (8-core Xeon, 8 GB per
// node). This module reproduces the *contract* of that cluster on a single
// machine: jobs are expressed as map/reduce functions, inputs are divided
// into splits, user code is executed for real (so outputs are exact), and
// job durations are accounted on a virtual clock that models parallel
// execution across the configured nodes/slots, per-task scheduling overhead,
// job startup cost, and shuffle bandwidth. Cluster-size scaling experiments
// (Section 11.4) and the crowd-time masking scheduler (Section 10.2) consume
// these virtual durations.
#ifndef FALCON_MAPREDUCE_CLUSTER_H_
#define FALCON_MAPREDUCE_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/counters.h"
#include "common/status.h"
#include "common/vtime.h"

namespace falcon {

class ThreadPool;

/// How the shuffle assigns reduce work to partitions.
enum class ShufflePartitioner {
  /// Stable FNV-1a key hash, partition = hash % R. Stateless and
  /// byte-stable across platforms; the default. Vulnerable to hot blocks:
  /// one oversized key group lands on a single reduce task.
  kStableHash,
  /// Skew-aware plan (mapreduce/skew.h): after the map-side merge the
  /// engine knows every block's exact weight, splits blocks above a pair
  /// budget into contiguous pair ranges (jobs that declare their reduce
  /// function splittable), and packs shards onto partitions greedy
  /// largest-first. Outputs are byte-identical to kStableHash — shard
  /// results are concatenated in the canonical (block, pair-range) order
  /// the hash path reduces in. Serial-ordered jobs ignore this and keep
  /// the hash path.
  kSkewAware,
};

const char* ShufflePartitionerName(ShufflePartitioner p);

/// Static description of the simulated cluster.
struct ClusterConfig {
  /// Number of worker nodes.
  int num_nodes = 10;
  /// Parallel map tasks per node (cores).
  int map_slots_per_node = 8;
  /// Parallel reduce tasks per node.
  int reduce_slots_per_node = 8;
  /// Memory available to each mapper for in-memory indexes. The paper's
  /// experiments use 2 GB / 1 GB / 500 MB; benches scale this together with
  /// the data.
  size_t mapper_memory_bytes = size_t{2} * 1024 * 1024 * 1024;
  /// Memory available to each reducer (used by the intermediate-output
  /// optimization of Section 7.3, which ships B-tuple ids instead of tuples
  /// when an id->tuple index of B fits in reducer memory).
  size_t reducer_memory_bytes = size_t{2} * 1024 * 1024 * 1024;
  /// Fixed virtual cost of launching a job (JVM spin-up, scheduling).
  VDuration job_startup = VDuration::Seconds(2.0);
  /// Per-task scheduling overhead.
  VDuration task_overhead = VDuration::Seconds(0.05);
  /// Virtual speed of one cluster core relative to the local CPU executing
  /// the user code (>1 means cluster cores are slower).
  double core_speed_factor = 1.0;
  /// Local execution threads for real task parallelism (wall clock only;
  /// virtual-time accounting is unaffected because per-task durations are
  /// measured with thread CPU time). 0 = hardware_concurrency, 1 = the exact
  /// legacy serial path (no thread pool is created).
  int local_threads = 0;
  /// Shuffle partitioning strategy; see ShufflePartitioner.
  ShufflePartitioner partitioner = ShufflePartitioner::kStableHash;
  /// Pair budget per reduce task for hot-block splitting under kSkewAware.
  /// 0 derives it from the stage's total weight (AutoPairBudget).
  size_t skew_pair_budget = 0;
};

/// Per-task load distribution of one job phase, on the virtual clock
/// (per-task vtime = measured seconds * core_speed_factor + task overhead).
/// The straggler ratio max/mean is the skew headline: 1.0 means perfectly
/// balanced tasks, >> 1 means the stage waits on one hot task.
struct TaskLoadStats {
  size_t tasks = 0;
  double max_seconds = 0.0;
  double mean_seconds = 0.0;
  double p99_seconds = 0.0;
  double straggler_ratio = 1.0;  ///< max/mean; 1.0 when tasks <= 1
};

/// Virtual-time breakdown of one executed job.
struct JobStats {
  std::string name;
  VDuration startup;
  VDuration map_time;      ///< virtual makespan of the map phase
  VDuration shuffle_time;  ///< intermediate data transfer
  VDuration reduce_time;   ///< virtual makespan of the reduce phase
  size_t num_map_tasks = 0;
  size_t num_reduce_tasks = 0;
  size_t input_records = 0;
  size_t intermediate_records = 0;
  size_t intermediate_bytes = 0;
  size_t output_records = 0;
  /// Work counted by this job's own map and reduce tasks, plus the heap
  /// pages its task and shuffle arenas acquired (common/counters.h).
  CounterSet counters;
  /// Per-task load distributions (map splits, reduce tasks).
  TaskLoadStats map_load;
  TaskLoadStats reduce_load;

  VDuration Total() const {
    return startup + map_time + shuffle_time + reduce_time;
  }

  /// Phase of the job at virtual offset `t` from job start.
  enum class Phase { kNotStarted, kMap, kShuffle, kReduce, kDone };
  Phase PhaseAt(VDuration t) const;

  /// Fraction of the reduce phase complete at offset `t` (0 before the
  /// reduce phase, 1 after it).
  double ReduceFractionAt(VDuration t) const;
};

/// Rolls the per-phase load distributions of a job ledger (e.g.
/// Cluster::JobHistorySnapshot()) up into one: total tasks, the hottest
/// single task, the task-weighted mean, and the worst phase's p99 and
/// straggler ratio.
TaskLoadStats RollupTaskLoad(const std::vector<JobStats>& jobs);

/// A simulated cluster: configuration plus accumulated accounting.
///
/// Thread safety: RecordJob/ResetAccounting are synchronized so concurrent
/// jobs (or jobs issued from pool tasks) account correctly; configuration is
/// immutable after construction and may be read from any thread.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return config_; }

  int total_map_slots() const {
    return config_.num_nodes * config_.map_slots_per_node;
  }
  int total_reduce_slots() const {
    return config_.num_nodes * config_.reduce_slots_per_node;
  }

  /// Computes the virtual makespan of scheduling `task_seconds` (real
  /// measured seconds of user code per task) onto `workers` parallel slots
  /// using greedy longest-processing-time assignment, including per-task
  /// overhead and the core speed factor.
  VDuration ScheduleMakespan(const std::vector<double>& task_seconds,
                             int workers) const;

  /// Virtual time to shuffle `bytes` across the cluster.
  VDuration ShuffleTime(size_t bytes) const;

  /// Per-task load distribution of one phase from its measured task seconds
  /// (each converted to vtime via the core speed factor + task overhead).
  TaskLoadStats ComputeTaskLoad(const std::vector<double>& task_seconds) const;

  /// Records a finished job in the accounting ledger.
  void RecordJob(const JobStats& stats);

  /// Sum of virtual durations of all executed jobs, summed over the ledger
  /// under its lock, so sibling sessions can roll up metrics mid-run.
  VDuration total_machine_time() const;
  /// Synchronized copy of the ledger, safe against concurrent RecordJob
  /// (e.g. a session rolling up metrics while sibling sessions run jobs).
  std::vector<JobStats> JobHistorySnapshot() const;
  void ResetAccounting();

  /// Resolved local thread count (config.local_threads, with 0 mapped to
  /// the hardware concurrency).
  int local_threads() const;

  /// Lazily created shared thread pool for real task execution, or nullptr
  /// when local_threads() == 1 (the legacy serial path runs inline).
  ThreadPool* pool();

  /// Lazily created pool of reusable task arenas, shared by every job's
  /// map, shuffle and reduce buffers.
  ArenaPool* arena_pool();

 private:
  ClusterConfig config_;
  std::vector<JobStats> job_history_;

  mutable std::mutex mu_;  ///< guards accounting and lazy pool creation
  std::unique_ptr<ThreadPool> pool_;
  bool pool_created_ = false;
  std::unique_ptr<ArenaPool> arena_pool_;
};

}  // namespace falcon

#endif  // FALCON_MAPREDUCE_CLUSTER_H_
