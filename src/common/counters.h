// Work counters: one dense registry of everything the program counts.
//
// Every counter is an id of `Counter`, registered here once. Hot code bumps
// one with `Count(id, n)`, which adds to the calling thread's CounterSet: a
// plain add to a thread_local array, with no lock, no atomic and no call.
// A thread's set is only ever read by that thread, so it needs no
// synchronization.
//
// Attribution is the MapReduce engine's job (mapreduce/job.h): it snapshots
// the executing thread's set before and after each map/reduce task, so the
// difference is exactly that task's work, and sums the task differences into
// JobStats::counters. A job's counts are therefore its own tasks' work at any
// local_threads, whatever other threads do meanwhile. Counts made outside a
// task (on the thread coordinating a job) belong to no job; code running on
// one thread can still bracket itself the same way with ThreadCounters().
#ifndef FALCON_COMMON_COUNTERS_H_
#define FALCON_COMMON_COUNTERS_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace falcon {

enum class Counter : uint8_t {
  /// Heap allocations: task-arena page acquisitions (charged by the engine)
  /// plus vectors a map function materializes outside its arena.
  kAllocCount,
  kAllocBytes,
  /// Adaptive intersection calls (text/intersect.h), by the strategy that
  /// resolved them, plus threshold calls decided before a full merge and
  /// SortedSetContains membership probes.
  kIntersectScalar,
  kIntersectSmall,
  kIntersectGallop,
  kIntersectSimd,
  kIntersectEarlyExit,
  kIntersectContains,
  /// Candidate pairs a blocking reducer checked against the rule sequence.
  kCandidatesExamined,
  /// Lazy feature evaluations and trees traversed by the fused
  /// apply_matcher.
  kFeaturesComputed,
  kTreesVoted,
  /// Skew-aware reduce plan: shards, and blocks cut into pair ranges.
  kSkewShards,
  kSkewSplitBlocks,
  kNum,
};

inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kNum);

/// One value per registered counter.
class CounterSet {
 public:
  uint64_t operator[](Counter c) const { return v_[Index(c)]; }
  uint64_t& operator[](Counter c) { return v_[Index(c)]; }

  CounterSet& operator+=(const CounterSet& o) {
    for (size_t i = 0; i < kNumCounters; ++i) v_[i] += o.v_[i];
    return *this;
  }
  CounterSet operator-(const CounterSet& o) const {
    CounterSet d;
    for (size_t i = 0; i < kNumCounters; ++i) d.v_[i] = v_[i] - o.v_[i];
    return d;
  }
  bool operator==(const CounterSet&) const = default;

 private:
  static constexpr size_t Index(Counter c) { return static_cast<size_t>(c); }

  std::array<uint64_t, kNumCounters> v_{};
};

namespace internal {
/// The calling thread's running totals since it started.
inline constinit thread_local CounterSet thread_counters;
}  // namespace internal

/// Adds `n` to counter `c` of the calling thread.
inline void Count(Counter c, uint64_t n = 1) {
  internal::thread_counters[c] += n;
}

/// The calling thread's running totals; subtract two reads on one thread to
/// count the work done between them.
inline const CounterSet& ThreadCounters() { return internal::thread_counters; }

}  // namespace falcon

#endif  // FALCON_COMMON_COUNTERS_H_
