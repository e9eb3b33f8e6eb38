// MapReduce job execution.
//
// Jobs are expressed with C++ lambdas for map and reduce. User code runs for
// real (outputs are exact); real per-task CPU time is measured and converted
// to a virtual makespan by Cluster::ScheduleMakespan, so the same execution
// yields both correct results and cluster-calibrated virtual durations.
//
// Execution is genuinely multi-threaded: map splits and reduce partitions
// run concurrently on the cluster's shared thread pool (see
// ClusterConfig::local_threads; 1 selects the exact legacy serial path).
// Three contracts are preserved regardless of thread count:
//
//   Determinism — each split owns a private Emitter; emitted pairs are merged
//   into shuffle partitions in split-index order and reduce outputs are
//   concatenated in partition order, so a parallel run is byte-identical to
//   a serial run. Partitioning uses a stable FNV-1a key hash (not the
//   implementation-defined std::hash), so partition assignment is identical
//   across standard libraries. Output order within a partition is not: each
//   partition groups keys in a std::unordered_map and reduces them in its
//   iteration order, which is implementation-defined, so two standard
//   libraries may order one partition's outputs differently (one build
//   still gives the same order at every thread count).
//
//   Virtual time — per-task seconds are measured with per-thread CPU time
//   (CLOCK_THREAD_CPUTIME_ID), so concurrently running tasks do not inflate
//   each other's measured durations and the virtual makespan matches the
//   serial baseline within measurement noise.
//
//   Counters — each task's counts are the change in its executing thread's
//   CounterSet (common/counters.h) across the task, so JobStats::counters
//   holds exactly the job's own tasks' work: the same at any thread count,
//   however many other jobs or sessions run meanwhile (the allocation
//   counters below excepted).
//
// Memory discipline (common/arena.h): every map/reduce task leases a bump
// arena from the cluster's ArenaPool for its buffers — emitter pairs
// (pre-sized from the split-size hint), shuffle bucket vectors, split and
// reduce outputs — and the arena is reset, not freed, at task end, so a warm
// pool serves whole jobs without heap traffic. Per-task heap allocations
// (arena page acquisitions) are charged to Counter::kAllocCount and
// kAllocBytes. These two counters measure real memory-system behavior —
// pool warmth, thread scheduling — so unlike the work counters they are not
// required to be identical between serial and parallel runs; job outputs
// still are. Worker-thread scratch (ThreadScratch) is likewise reset after
// every task.
#ifndef FALCON_MAPREDUCE_JOB_H_
#define FALCON_MAPREDUCE_JOB_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/counters.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "mapreduce/cluster.h"
#include "mapreduce/skew.h"

namespace falcon {

// --- intermediate byte-size estimation --------------------------------------

inline size_t EstimateBytes(const std::string& s) { return s.size() + 16; }
inline size_t EstimateBytes(uint32_t) { return sizeof(uint32_t); }
inline size_t EstimateBytes(uint64_t) { return sizeof(uint64_t); }
inline size_t EstimateBytes(int32_t) { return sizeof(int32_t); }
inline size_t EstimateBytes(int64_t) { return sizeof(int64_t); }
inline size_t EstimateBytes(double) { return sizeof(double); }
template <typename A, typename B>
size_t EstimateBytes(const std::pair<A, B>& p) {
  return EstimateBytes(p.first) + EstimateBytes(p.second);
}
template <typename T>
size_t EstimateBytes(const std::vector<T>& v) {
  size_t bytes = 16;
  for (const auto& x : v) bytes += EstimateBytes(x);
  return bytes;
}

// --- task-local containers ---------------------------------------------------

/// Output buffer of one map/reduce task, backed by the task's leased arena.
/// Map and reduce functions append to these; default-constructed instances
/// (tests, direct use) are plain heap vectors.
template <typename T>
using TaskVector = ArenaVector<T>;

/// One shuffle bucket: all values emitted under one key, in emission order.
template <typename V>
using ValueList = ArenaVector<V>;

// --- emitter -----------------------------------------------------------------

/// Collects (key, value) pairs emitted by one map task. Each map task owns a
/// private Emitter, so user map functions never share one across threads.
template <typename K, typename V>
class Emitter {
 public:
  Emitter() = default;
  /// Engine constructor: the pair buffer draws from `alloc` and is pre-sized
  /// to `reserve_hint` (the split size — the common one-emit-per-input case
  /// then never regrows from zero).
  explicit Emitter(const ArenaAllocator<std::pair<K, V>>& alloc,
                   size_t reserve_hint = 0)
      : pairs_(alloc) {
    if (reserve_hint > 0) pairs_.reserve(reserve_hint);
  }

  void Emit(K key, V value) {
    bytes_ += EstimateBytes(key) + EstimateBytes(value);
    pairs_.emplace_back(std::move(key), std::move(value));
  }

  TaskVector<std::pair<K, V>>& pairs() { return pairs_; }
  size_t bytes() const { return bytes_; }

 private:
  TaskVector<std::pair<K, V>> pairs_;
  size_t bytes_ = 0;
};

/// Options controlling split/partition counts and virtual setup cost.
struct JobOptions {
  std::string name = "job";
  /// Number of input splits; 0 = 2 tasks per map slot.
  size_t num_splits = 0;
  /// Number of reduce partitions; 0 = one per reduce slot.
  size_t num_reducers = 0;
  /// Virtual seconds charged to every map task before user code, modeling
  /// e.g. loading filter indexes into mapper memory (map-setup of
  /// Algorithm 1).
  double map_setup_seconds = 0.0;
  /// Forces this job onto the serial in-order path even when the cluster has
  /// a thread pool. Set for jobs whose map/reduce functions mutate shared
  /// state in input order (e.g. index construction, reservoir sampling).
  bool serial = false;
  /// The reduce function is a pure per-value map: calling it on contiguous
  /// sub-ranges of one key's value list and concatenating the fragment
  /// outputs in range order is byte-identical to one call on the full list.
  /// Only such jobs let the skew-aware partitioner pair-range split hot
  /// blocks; others are still bin-packed whole (never split).
  bool splittable_reduce = false;
};

/// Result of a job: exact output plus virtual-time stats.
template <typename OutT>
struct JobOutput {
  std::vector<OutT> output;
  JobStats stats;
};

namespace internal {

/// CPU seconds consumed by the calling thread, or a negative value when the
/// clock is unavailable.
inline double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
  }
#endif
  return -1.0;
}

/// Measures the seconds `fn` takes using per-thread CPU time, falling back
/// to steady_clock wall time where the thread clock is unavailable. Thread
/// CPU time is immune both to other host processes stealing the core and to
/// sibling pool tasks running concurrently, so virtual-time accounting is
/// identical in serial and parallel execution.
inline double MeasureSeconds(const std::function<void()>& fn) {
  const double c0 = ThreadCpuSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  if (c0 >= 0.0) {
    const double c1 = ThreadCpuSeconds();
    if (c1 >= 0.0) return c1 - c0;
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

inline std::vector<std::pair<size_t, size_t>> MakeSplits(size_t n,
                                                         size_t num_splits) {
  std::vector<std::pair<size_t, size_t>> splits;
  if (n == 0) return splits;
  num_splits = std::max<size_t>(1, std::min(num_splits, n));
  size_t base = n / num_splits;
  size_t rem = n % num_splits;
  size_t begin = 0;
  for (size_t i = 0; i < num_splits; ++i) {
    size_t len = base + (i < rem ? 1 : 0);
    splits.emplace_back(begin, begin + len);
    begin += len;
  }
  return splits;
}

/// Stable shuffle hash: identical partition assignment on every platform and
/// standard library, unlike std::hash.
template <typename K>
uint64_t StableKeyHash(const K& k) {
  if constexpr (std::is_convertible_v<const K&, std::string_view>) {
    return Fnv1a(std::string_view(k));
  } else if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
    const uint64_t v = static_cast<uint64_t>(k);
    return Fnv1a(&v, sizeof(v));
  } else {
    static_assert(std::is_trivially_copyable_v<K>,
                  "no stable hash for this key type");
    return Fnv1a(&k, sizeof(k));
  }
}

template <typename A, typename B>
uint64_t StableKeyHash(const std::pair<A, B>& p) {
  const uint64_t h[2] = {StableKeyHash(p.first), StableKeyHash(p.second)};
  return Fnv1a(h, sizeof(h));
}

/// Per-task arena leases for one job phase. Acquires `n` arenas from the
/// cluster's pool and returns them — reset, pages retained — on
/// ReleaseAll/destruction. Leasing happens on the coordinating thread; each
/// leased arena is then touched by exactly one task.
class ArenaLease {
 public:
  ArenaLease(Cluster* cluster, size_t n) : pool_(cluster->arena_pool()) {
    leases_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Arena* arena = pool_->Acquire();
      leases_.push_back({arena, arena->total_pages_acquired(),
                         arena->total_page_bytes_acquired()});
    }
  }
  ~ArenaLease() { ReleaseAll(); }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  Arena* operator[](size_t i) const { return leases_[i].arena; }
  size_t size() const { return leases_.size(); }

  /// Charges the heap allocations of task `i` — the pages its arena
  /// acquired since the lease began — to `c`.
  void AddAllocCounters(size_t i, CounterSet* c) const {
    const Lease& l = leases_[i];
    (*c)[Counter::kAllocCount] +=
        l.arena->total_pages_acquired() - l.base_pages;
    (*c)[Counter::kAllocBytes] +=
        l.arena->total_page_bytes_acquired() - l.base_bytes;
  }

  /// Callers must destroy (or finish reading) everything allocated from the
  /// leased arenas before releasing them back to the pool.
  void ReleaseAll() {
    for (const Lease& l : leases_) pool_->Release(l.arena);
    leases_.clear();
  }

 private:
  struct Lease {
    Arena* arena;
    uint64_t base_pages;
    uint64_t base_bytes;
  };

  ArenaPool* pool_;
  std::vector<Lease> leases_;
};

/// Runs fn(0..n-1), one task per leased arena (n = arenas.size()), on the
/// cluster pool, or inline in index order when the job opted out of
/// parallelism, the task count is trivial, or the cluster resolves to a
/// single local thread. Adds each task's work to `*counters`: the change in
/// its executing thread's CounterSet across the task, plus the pages its
/// arena acquired. The executing thread's scratch arena is reset after every
/// task (per-task reset discipline: scratch capacity never outlives the task
/// that grew it by more than the retention bound).
inline void RunTasks(Cluster* cluster, bool serial, const ArenaLease& arenas,
                     const std::function<void(size_t)>& fn,
                     CounterSet* counters) {
  const size_t n = arenas.size();
  std::vector<CounterSet> task_counts(n);
  const std::function<void(size_t)> task = [&](size_t i) {
    const CounterSet before = ThreadCounters();
    fn(i);
    task_counts[i] = ThreadCounters() - before;
    ThreadScratch().Reset();
  };
  ThreadPool* pool = (serial || n <= 1) ? nullptr : cluster->pool();
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) task(i);
  } else {
    pool->ParallelFor(n, task);
  }
  for (size_t i = 0; i < n; ++i) {
    *counters += task_counts[i];
    arenas.AddAllocCounters(i, counters);
  }
}

/// Moves the task outputs, in order, onto the end of `*out`, reserving the
/// total once instead of growing `*out` output by output.
template <typename OutT>
void MoveConcat(std::vector<TaskVector<OutT>>& parts,
                std::vector<OutT>* out) {
  size_t total = out->size();
  for (const auto& part : parts) total += part.size();
  out->reserve(total);
  for (auto& part : parts) {
    out->insert(out->end(), std::make_move_iterator(part.begin()),
                std::make_move_iterator(part.end()));
  }
}

}  // namespace internal

/// Runs a full map-shuffle-reduce job over `input`.
///
/// `map_fn(item, emitter)` is invoked once per input item;
/// `reduce_fn(key, values, output)` once per distinct key.
///
/// Unless `opts.serial` is set, map splits (and then reduce partitions) run
/// concurrently on the cluster's thread pool; map_fn/reduce_fn must then be
/// safe to call from multiple threads for *distinct* splits/partitions —
/// i.e. they may freely use their arguments and read shared state, but any
/// writes to captured state must be disjoint per input index or atomic.
template <typename InT, typename K, typename V, typename OutT>
JobOutput<OutT> RunMapReduce(
    Cluster* cluster, const std::vector<InT>& input, const JobOptions& opts,
    const std::function<void(const InT&, Emitter<K, V>*)>& map_fn,
    const std::function<void(const K&, const ValueList<V>&,
                             TaskVector<OutT>*)>& reduce_fn) {
  JobOutput<OutT> result;
  JobStats& stats = result.stats;
  stats.name = opts.name;
  stats.startup = cluster->config().job_startup;
  stats.input_records = input.size();

  const size_t num_splits =
      opts.num_splits > 0
          ? opts.num_splits
          : static_cast<size_t>(2 * cluster->total_map_slots());
  const size_t num_reducers =
      opts.num_reducers > 0
          ? opts.num_reducers
          : static_cast<size_t>(cluster->total_reduce_slots());

  auto splits = internal::MakeSplits(input.size(), num_splits);
  stats.num_map_tasks = splits.size();

  // --- map phase ---
  // Each split writes only its own Emitter and seconds slot, so tasks can run
  // on any thread in any order; everything order-sensitive happens in the
  // split-index-order merge below. Each emitter's pair buffer draws from the
  // split's leased arena and is pre-sized to the split.
  internal::ArenaLease map_arenas(cluster, splits.size());
  std::vector<Emitter<K, V>> emitters;
  emitters.reserve(splits.size());
  for (size_t t = 0; t < splits.size(); ++t) {
    emitters.emplace_back(ArenaAllocator<std::pair<K, V>>(map_arenas[t]),
                          splits[t].second - splits[t].first);
  }
  std::vector<double> map_task_seconds(splits.size());
  internal::RunTasks(
      cluster, opts.serial, map_arenas,
      [&](size_t t) {
        const auto [begin, end] = splits[t];
        Emitter<K, V>* emitter = &emitters[t];
        map_task_seconds[t] = internal::MeasureSeconds([&] {
          for (size_t i = begin; i < end; ++i) map_fn(input[i], emitter);
        });
        map_task_seconds[t] += opts.map_setup_seconds;
      },
      &stats.counters);

  // Merge in split-index order: byte counts and the shuffle see the same
  // sequence a serial run produces. Bucket vectors live in a per-job shuffle
  // arena that outlives the reduce phase.
  internal::ArenaLease shuffle_arena(cluster, 1);
  const ArenaAllocator<V> bucket_alloc(shuffle_arena[0]);
  std::vector<std::unordered_map<K, ValueList<V>>> partitions(num_reducers);
  size_t intermediate_records = 0;
  size_t intermediate_bytes = 0;
  for (auto& emitter : emitters) {
    intermediate_records += emitter.pairs().size();
    intermediate_bytes += emitter.bytes();
    // Partition the emitted pairs by stable key hash (the shuffle).
    for (auto& [k, v] : emitter.pairs()) {
      size_t p = internal::StableKeyHash(k) % num_reducers;
      auto [it, inserted] = partitions[p].try_emplace(std::move(k),
                                                      bucket_alloc);
      it->second.push_back(std::move(v));
    }
  }
  shuffle_arena.AddAllocCounters(0, &stats.counters);
  // Map buffers are fully consumed; destroy them before their arenas return
  // to the pool (use-after-reset discipline).
  emitters.clear();
  map_arenas.ReleaseAll();
  stats.intermediate_records = intermediate_records;
  stats.intermediate_bytes = intermediate_bytes;
  stats.map_time = cluster->ScheduleMakespan(map_task_seconds,
                                             cluster->total_map_slots());
  stats.map_load = cluster->ComputeTaskLoad(map_task_seconds);
  stats.shuffle_time = cluster->ShuffleTime(intermediate_bytes);

  // --- reduce phase ---
  // Hash path: non-empty partitions become reduce tasks; each writes a
  // private output vector on its leased arena, concatenated in partition
  // order afterwards. Skew-aware path: the same blocks are re-planned into
  // budget-capped shards packed largest-first onto bins (see below); output
  // bytes are identical either way.
  std::vector<double> reduce_task_seconds;
  const bool skew_aware =
      cluster->config().partitioner == ShufflePartitioner::kSkewAware &&
      !opts.serial;
  if (!skew_aware) {
    std::vector<size_t> active;
    active.reserve(partitions.size());
    for (size_t p = 0; p < partitions.size(); ++p) {
      if (!partitions[p].empty()) active.push_back(p);
    }
    internal::ArenaLease reduce_arenas(cluster, active.size());
    std::vector<TaskVector<OutT>> reduce_outputs;
    reduce_outputs.reserve(active.size());
    for (size_t t = 0; t < active.size(); ++t) {
      reduce_outputs.emplace_back(ArenaAllocator<OutT>(reduce_arenas[t]));
    }
    reduce_task_seconds.assign(active.size(), 0.0);
    internal::RunTasks(
        cluster, opts.serial, reduce_arenas,
        [&](size_t t) {
          auto& groups = partitions[active[t]];
          TaskVector<OutT>* out = &reduce_outputs[t];
          reduce_task_seconds[t] = internal::MeasureSeconds([&] {
            for (auto& [key, values] : groups) reduce_fn(key, values, out);
          });
        },
        &stats.counters);
    internal::MoveConcat(reduce_outputs, &result.output);
    stats.num_reduce_tasks = active.size();

    // Destroy everything arena-resident before the leases end.
    reduce_outputs.clear();
    reduce_arenas.ReleaseAll();
  } else {
    // Skew-aware reduce. Blocks are enumerated in the exact order the hash
    // path reduces them — partition index, then that partition's iteration
    // order — so the canonical shard sequence reproduces the hash path's
    // output byte stream when fragments are concatenated in shard order.
    // Exact block weights are free here (the shuffle is in-process); the
    // index-build profile (InvertedIndex::profile) predicts this skew ahead
    // of time for planning/observability.
    struct BlockRef {
      const K* key;
      ValueList<V>* values;
    };
    std::vector<BlockRef> blocks;
    std::vector<size_t> weights;
    for (auto& groups : partitions) {
      for (auto& [key, values] : groups) {
        blocks.push_back(BlockRef{&key, &values});
        weights.push_back(values.size());
      }
    }
    const ShardPlan plan =
        PlanReduceShards(weights, num_reducers,
                         cluster->config().skew_pair_budget,
                         opts.splittable_reduce);
    size_t split_blocks = 0;
    for (size_t s = 0; s + 1 < plan.shards.size(); ++s) {
      if (plan.shards[s].block == plan.shards[s + 1].block &&
          (s == 0 || plan.shards[s].block != plan.shards[s - 1].block)) {
        ++split_blocks;
      }
    }
    stats.counters[Counter::kSkewShards] += plan.shards.size();
    stats.counters[Counter::kSkewSplitBlocks] += split_blocks;

    // Bins with work become reduce tasks, in bin-index order.
    std::vector<std::vector<size_t>> bin_shards(num_reducers);
    for (size_t s = 0; s < plan.shards.size(); ++s) {
      bin_shards[plan.bin_of[s]].push_back(s);
    }
    std::vector<size_t> active;
    std::vector<size_t> task_of_bin(num_reducers, 0);
    for (size_t b = 0; b < num_reducers; ++b) {
      if (!bin_shards[b].empty()) {
        task_of_bin[b] = active.size();
        active.push_back(b);
      }
    }
    internal::ArenaLease reduce_arenas(cluster, active.size());
    // One output fragment per shard, drawing from the owning task's arena;
    // fragments are only ever touched by that one task.
    std::vector<TaskVector<OutT>> fragments;
    fragments.reserve(plan.shards.size());
    for (size_t s = 0; s < plan.shards.size(); ++s) {
      fragments.emplace_back(
          ArenaAllocator<OutT>(reduce_arenas[task_of_bin[plan.bin_of[s]]]));
    }
    reduce_task_seconds.assign(active.size(), 0.0);
    internal::RunTasks(
        cluster, opts.serial, reduce_arenas,
        [&](size_t t) {
          Arena* arena = reduce_arenas[t];
          reduce_task_seconds[t] = internal::MeasureSeconds([&] {
            for (size_t s : bin_shards[active[t]]) {
              const ReduceShard& shard = plan.shards[s];
              const BlockRef& block = blocks[shard.block];
              TaskVector<OutT>* out = &fragments[s];
              if (shard.begin == 0 && shard.end == block.values->size()) {
                reduce_fn(*block.key, *block.values, out);
              } else {
                // Split shard: materialize the contiguous value sub-range
                // on this task's arena. The copy is charged to the task —
                // it models the extra shuffle traffic a real engine pays to
                // fan a hot block out across reducers.
                ValueList<V> slice{ArenaAllocator<V>(arena)};
                slice.reserve(shard.end - shard.begin);
                for (size_t i = shard.begin; i < shard.end; ++i) {
                  slice.push_back((*block.values)[i]);
                }
                reduce_fn(*block.key, slice, out);
              }
            }
          });
        },
        &stats.counters);
    // Canonical shard order == the hash path's (block, pair-range) order.
    internal::MoveConcat(fragments, &result.output);
    stats.num_reduce_tasks = active.size();

    fragments.clear();
    reduce_arenas.ReleaseAll();
  }
  stats.reduce_time = cluster->ScheduleMakespan(
      reduce_task_seconds, cluster->total_reduce_slots());
  stats.reduce_load = cluster->ComputeTaskLoad(reduce_task_seconds);
  stats.output_records = result.output.size();
  partitions.clear();
  shuffle_arena.ReleaseAll();

  cluster->RecordJob(stats);
  return result;
}

/// Runs a map-only job: `map_fn(item, output)` appends output records.
///
/// Unless `opts.serial` is set, splits run concurrently; each split appends
/// to a private output vector and the vectors are concatenated in split
/// order, so output order matches the serial path exactly.
template <typename InT, typename OutT>
JobOutput<OutT> RunMapOnly(
    Cluster* cluster, const std::vector<InT>& input, const JobOptions& opts,
    const std::function<void(const InT&, TaskVector<OutT>*)>& map_fn) {
  JobOutput<OutT> result;
  JobStats& stats = result.stats;
  stats.name = opts.name;
  stats.startup = cluster->config().job_startup;
  stats.input_records = input.size();

  const size_t num_splits =
      opts.num_splits > 0
          ? opts.num_splits
          : static_cast<size_t>(2 * cluster->total_map_slots());
  auto splits = internal::MakeSplits(input.size(), num_splits);
  stats.num_map_tasks = splits.size();

  internal::ArenaLease arenas(cluster, splits.size());
  std::vector<TaskVector<OutT>> split_outputs;
  split_outputs.reserve(splits.size());
  for (size_t t = 0; t < splits.size(); ++t) {
    split_outputs.emplace_back(ArenaAllocator<OutT>(arenas[t]));
    split_outputs.back().reserve(splits[t].second - splits[t].first);
  }
  std::vector<double> task_seconds(splits.size());
  internal::RunTasks(
      cluster, opts.serial, arenas,
      [&](size_t t) {
        const auto [begin, end] = splits[t];
        TaskVector<OutT>* out = &split_outputs[t];
        task_seconds[t] = internal::MeasureSeconds([&] {
          for (size_t i = begin; i < end; ++i) map_fn(input[i], out);
        });
        task_seconds[t] += opts.map_setup_seconds;
      },
      &stats.counters);
  internal::MoveConcat(split_outputs, &result.output);
  split_outputs.clear();
  arenas.ReleaseAll();
  stats.map_time =
      cluster->ScheduleMakespan(task_seconds, cluster->total_map_slots());
  stats.map_load = cluster->ComputeTaskLoad(task_seconds);
  stats.output_records = result.output.size();
  cluster->RecordJob(stats);
  return result;
}

}  // namespace falcon

#endif  // FALCON_MAPREDUCE_JOB_H_
