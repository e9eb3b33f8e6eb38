#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

namespace falcon {
namespace {

ClusterConfig FastConfig() {
  ClusterConfig c;
  c.job_startup = VDuration::Seconds(2.0);
  c.task_overhead = VDuration::Seconds(0.05);
  return c;
}

TEST(ClusterTest, SlotCounts) {
  Cluster cluster(FastConfig());
  EXPECT_EQ(cluster.total_map_slots(), 80);
  EXPECT_EQ(cluster.total_reduce_slots(), 80);
}

TEST(ClusterTest, MakespanSingleWorkerIsSum) {
  Cluster cluster(FastConfig());
  std::vector<double> tasks = {1.0, 2.0, 3.0};
  VDuration m = cluster.ScheduleMakespan(tasks, 1);
  EXPECT_NEAR(m.seconds, 6.0 + 3 * 0.05, 1e-9);
}

TEST(ClusterTest, MakespanManyWorkersIsMax) {
  Cluster cluster(FastConfig());
  std::vector<double> tasks = {1.0, 2.0, 3.0};
  VDuration m = cluster.ScheduleMakespan(tasks, 10);
  EXPECT_NEAR(m.seconds, 3.0 + 0.05, 1e-9);
}

TEST(ClusterTest, MakespanScalesDownWithWorkers) {
  Cluster cluster(FastConfig());
  std::vector<double> tasks(100, 1.0);
  double m5 = cluster.ScheduleMakespan(tasks, 5).seconds;
  double m10 = cluster.ScheduleMakespan(tasks, 10).seconds;
  double m20 = cluster.ScheduleMakespan(tasks, 20).seconds;
  EXPECT_GT(m5, m10);
  EXPECT_GT(m10, m20);
  // Near-perfect scaling for uniform tasks.
  EXPECT_NEAR(m5 / m10, 2.0, 0.1);
}

TEST(ClusterTest, CoreSpeedFactorStretchesTasks) {
  ClusterConfig cfg = FastConfig();
  cfg.core_speed_factor = 2.0;
  Cluster cluster(cfg);
  VDuration m = cluster.ScheduleMakespan({1.0}, 1);
  EXPECT_NEAR(m.seconds, 2.0 + 0.05, 1e-9);
}

TEST(ClusterTest, ShuffleTimeProportional) {
  Cluster cluster(FastConfig());
  double t1 = cluster.ShuffleTime(1000000).seconds;
  double t2 = cluster.ShuffleTime(2000000).seconds;
  EXPECT_NEAR(t2, 2 * t1, 1e-12);
}

// --- per-task load distribution -------------------------------------------

TEST(ComputeTaskLoadTest, EmptyInputIsNeutral) {
  Cluster cluster(FastConfig());
  TaskLoadStats load = cluster.ComputeTaskLoad({});
  EXPECT_EQ(load.tasks, 0u);
  EXPECT_EQ(load.max_seconds, 0.0);
  EXPECT_EQ(load.mean_seconds, 0.0);
  EXPECT_EQ(load.p99_seconds, 0.0);
  EXPECT_EQ(load.straggler_ratio, 1.0);
}

TEST(ComputeTaskLoadTest, MaxMeanAndStragglerRatio) {
  Cluster cluster(FastConfig());  // 0.05 s overhead per task
  TaskLoadStats load = cluster.ComputeTaskLoad({3.0, 1.0, 2.0});
  EXPECT_EQ(load.tasks, 3u);
  EXPECT_NEAR(load.max_seconds, 3.05, 1e-12);
  EXPECT_NEAR(load.mean_seconds, 2.05, 1e-12);
  // Nearest-rank p99 is the max below 100 tasks.
  EXPECT_EQ(load.p99_seconds, load.max_seconds);
  EXPECT_NEAR(load.straggler_ratio, 3.05 / 2.05, 1e-12);
}

TEST(ComputeTaskLoadTest, SingleTaskIsNeverAStraggler) {
  Cluster cluster(FastConfig());
  TaskLoadStats load = cluster.ComputeTaskLoad({5.0});
  EXPECT_EQ(load.tasks, 1u);
  EXPECT_NEAR(load.max_seconds, 5.05, 1e-12);
  EXPECT_EQ(load.mean_seconds, load.max_seconds);
  EXPECT_EQ(load.p99_seconds, load.max_seconds);
  EXPECT_EQ(load.straggler_ratio, 1.0);
}

TEST(ComputeTaskLoadTest, NearestRankP99FromHundredsOfTasks) {
  Cluster cluster(FastConfig());
  // Tasks of 1..200 s: rank floor(0.99 * 200) = 198 of the sorted vtimes,
  // i.e. the 199 s task, one below the max.
  std::vector<double> tasks(200);
  std::iota(tasks.rbegin(), tasks.rend(), 1.0);
  TaskLoadStats load = cluster.ComputeTaskLoad(tasks);
  EXPECT_EQ(load.tasks, 200u);
  EXPECT_NEAR(load.max_seconds, 200.05, 1e-9);
  EXPECT_NEAR(load.p99_seconds, 199.05, 1e-9);
  EXPECT_NEAR(load.mean_seconds, 100.55, 1e-9);
}

TEST(ComputeTaskLoadTest, CoreSpeedFactorScalesBeforeOverhead) {
  ClusterConfig config = FastConfig();
  config.core_speed_factor = 2.0;
  config.task_overhead = VDuration::Seconds(0.5);
  Cluster cluster(config);
  // vtime = measured * 2 + 0.5 -> {2.5, 6.5}.
  TaskLoadStats load = cluster.ComputeTaskLoad({1.0, 3.0});
  EXPECT_NEAR(load.max_seconds, 6.5, 1e-12);
  EXPECT_NEAR(load.mean_seconds, 4.5, 1e-12);
  EXPECT_NEAR(load.straggler_ratio, 6.5 / 4.5, 1e-12);
}

TEST(JobStatsTest, PhaseTimeline) {
  JobStats s;
  s.startup = VDuration::Seconds(2);
  s.map_time = VDuration::Seconds(10);
  s.shuffle_time = VDuration::Seconds(3);
  s.reduce_time = VDuration::Seconds(5);
  EXPECT_EQ(s.PhaseAt(VDuration::Seconds(-1)), JobStats::Phase::kNotStarted);
  EXPECT_EQ(s.PhaseAt(VDuration::Seconds(1)), JobStats::Phase::kMap);
  EXPECT_EQ(s.PhaseAt(VDuration::Seconds(11)), JobStats::Phase::kMap);
  EXPECT_EQ(s.PhaseAt(VDuration::Seconds(13)), JobStats::Phase::kShuffle);
  EXPECT_EQ(s.PhaseAt(VDuration::Seconds(16)), JobStats::Phase::kReduce);
  EXPECT_EQ(s.PhaseAt(VDuration::Seconds(25)), JobStats::Phase::kDone);
  EXPECT_DOUBLE_EQ(s.ReduceFractionAt(VDuration::Seconds(15)), 0.0);
  EXPECT_DOUBLE_EQ(s.ReduceFractionAt(VDuration::Seconds(17.5)), 0.5);
  EXPECT_DOUBLE_EQ(s.ReduceFractionAt(VDuration::Seconds(99)), 1.0);
  EXPECT_DOUBLE_EQ(s.Total().seconds, 20.0);
}

TEST(MapReduceTest, WordCount) {
  Cluster cluster(FastConfig());
  std::vector<std::string> docs = {"a b a", "b c", "a"};
  auto result = RunMapReduce<std::string, std::string, int64_t,
                             std::pair<std::string, int64_t>>(
      &cluster, docs, {.name = "wordcount"},
      [](const std::string& doc, Emitter<std::string, int64_t>* em) {
        std::string cur;
        for (char c : doc) {
          if (c == ' ') {
            if (!cur.empty()) em->Emit(cur, 1);
            cur.clear();
          } else {
            cur.push_back(c);
          }
        }
        if (!cur.empty()) em->Emit(cur, 1);
      },
      [](const std::string& word, const ValueList<int64_t>& ones,
         TaskVector<std::pair<std::string, int64_t>>* out) {
        out->emplace_back(word,
                          std::accumulate(ones.begin(), ones.end(), 0L));
      });
  std::map<std::string, int64_t> counts(result.output.begin(),
                                        result.output.end());
  EXPECT_EQ(counts["a"], 3);
  EXPECT_EQ(counts["b"], 2);
  EXPECT_EQ(counts["c"], 1);
  EXPECT_EQ(result.stats.input_records, 3u);
  EXPECT_EQ(result.stats.intermediate_records, 6u);
  EXPECT_EQ(result.stats.output_records, 3u);
  EXPECT_GT(result.stats.Total().seconds, 0.0);
}

// The map functions below count on registered ids the engine never bumps
// itself, so the job's counters hold exactly what the map tasks counted.
TEST(MapReduceTest, CountersAggregate) {
  Cluster cluster(FastConfig());
  std::vector<int> input = {1, 2, 3, 4, 5};
  auto result = RunMapReduce<int, int, int, int>(
      &cluster, input, {.name = "counters"},
      [](const int& v, Emitter<int, int>* em) {
        if (v % 2 == 0) Count(Counter::kCandidatesExamined);
        em->Emit(0, v);
      },
      [](const int&, const ValueList<int>& vals, TaskVector<int>* out) {
        out->push_back(static_cast<int>(vals.size()));
      });
  EXPECT_EQ(result.stats.counters[Counter::kCandidatesExamined], 2u);
}

TEST(MapReduceTest, EmptyInput) {
  Cluster cluster(FastConfig());
  std::vector<int> input;
  auto result = RunMapReduce<int, int, int, int>(
      &cluster, input, {.name = "empty"},
      [](const int&, Emitter<int, int>*) {},
      [](const int&, const ValueList<int>&, TaskVector<int>*) {});
  EXPECT_TRUE(result.output.empty());
  EXPECT_EQ(result.stats.num_map_tasks, 0u);
}

TEST(MapReduceTest, MapOnlyPreservesAllOutput) {
  Cluster cluster(FastConfig());
  std::vector<int> input(1000);
  for (int i = 0; i < 1000; ++i) input[i] = i;
  auto result = RunMapOnly<int, int>(
      &cluster, input, {.name = "square"},
      [](const int& v, TaskVector<int>* out) { out->push_back(v * 2); });
  ASSERT_EQ(result.output.size(), 1000u);
  // Map-only output preserves input order (splits processed in order).
  EXPECT_EQ(result.output[0], 0);
  EXPECT_EQ(result.output[999], 1998);
}

TEST(MapReduceTest, MapSetupSecondsChargedPerTask) {
  Cluster cluster(FastConfig());
  std::vector<int> input = {1};
  auto without = RunMapOnly<int, int>(
      &cluster, input, {.name = "no-setup", .num_splits = 1},
      [](const int&, TaskVector<int>*) {});
  auto with = RunMapOnly<int, int>(
      &cluster, input,
      {.name = "setup", .num_splits = 1, .map_setup_seconds = 5.0},
      [](const int&, TaskVector<int>*) {});
  EXPECT_GT(with.stats.map_time.seconds,
            without.stats.map_time.seconds + 4.0);
}

TEST(MapReduceTest, JobHistoryAccumulates) {
  Cluster cluster(FastConfig());
  std::vector<int> input = {1, 2, 3};
  RunMapOnly<int, int>(&cluster, input, {.name = "j1"},
                       [](const int&, TaskVector<int>*) {});
  RunMapOnly<int, int>(&cluster, input, {.name = "j2"},
                       [](const int&, TaskVector<int>*) {});
  EXPECT_EQ(cluster.JobHistorySnapshot().size(), 2u);
  EXPECT_EQ(cluster.JobHistorySnapshot()[0].name, "j1");
  EXPECT_GT(cluster.total_machine_time().seconds, 0.0);
  cluster.ResetAccounting();
  EXPECT_EQ(cluster.JobHistorySnapshot().size(), 0u);
  EXPECT_EQ(cluster.total_machine_time().seconds, 0.0);
}

TEST(MapReduceTest, DeterministicOutputAcrossRuns) {
  ClusterConfig cfg = FastConfig();
  std::vector<int> input(500);
  for (int i = 0; i < 500; ++i) input[i] = i % 37;
  auto run = [&]() {
    Cluster cluster(cfg);
    return RunMapReduce<int, int, int, std::pair<int, int>>(
               &cluster, input, {.name = "det"},
               [](const int& v, Emitter<int, int>* em) { em->Emit(v, 1); },
               [](const int& k, const ValueList<int>& vals,
                  TaskVector<std::pair<int, int>>* out) {
                 out->emplace_back(k, static_cast<int>(vals.size()));
               })
        .output;
  };
  EXPECT_EQ(run(), run());
}

// --- real multi-threaded execution -----------------------------------------

ClusterConfig ThreadedConfig(int threads) {
  ClusterConfig c = FastConfig();
  c.local_threads = threads;
  return c;
}

TEST(ParallelMapReduceTest, SingleThreadConfigHasNoPool) {
  Cluster serial(ThreadedConfig(1));
  EXPECT_EQ(serial.local_threads(), 1);
  EXPECT_EQ(serial.pool(), nullptr);

  Cluster wide(ThreadedConfig(4));
  EXPECT_EQ(wide.local_threads(), 4);
  ASSERT_NE(wide.pool(), nullptr);
  EXPECT_EQ(wide.pool()->num_threads(), 4);
  // The pool is created once and shared across jobs.
  EXPECT_EQ(wide.pool(), wide.pool());
}

// The core determinism contract: a 4-thread run of word count must produce
// the exact same output vector (values AND order) as the legacy serial path.
TEST(ParallelMapReduceTest, WordCountByteIdenticalToSerial) {
  std::vector<std::string> docs;
  for (int i = 0; i < 240; ++i) {
    docs.push_back("w" + std::to_string(i % 13) + " w" + std::to_string(i % 7) +
                   " common");
  }
  auto run = [&](int threads) {
    Cluster cluster(ThreadedConfig(threads));
    return RunMapReduce<std::string, std::string, int64_t,
                        std::pair<std::string, int64_t>>(
        &cluster, docs, {.name = "wc", .num_splits = 16},
        [](const std::string& doc, Emitter<std::string, int64_t>* em) {
          std::string cur;
          for (char c : doc) {
            if (c == ' ') {
              if (!cur.empty()) em->Emit(cur, 1);
              cur.clear();
            } else {
              cur.push_back(c);
            }
          }
          if (!cur.empty()) em->Emit(cur, 1);
        },
        [](const std::string& word, const ValueList<int64_t>& ones,
           TaskVector<std::pair<std::string, int64_t>>* out) {
          out->emplace_back(word,
                            std::accumulate(ones.begin(), ones.end(), 0L));
        });
  };
  auto serial = run(1);
  auto parallel = run(4);
  EXPECT_EQ(serial.output, parallel.output);
  EXPECT_EQ(serial.stats.input_records, parallel.stats.input_records);
  EXPECT_EQ(serial.stats.intermediate_records,
            parallel.stats.intermediate_records);
  EXPECT_EQ(serial.stats.output_records, parallel.stats.output_records);
  EXPECT_EQ(serial.stats.num_map_tasks, parallel.stats.num_map_tasks);
  EXPECT_EQ(serial.stats.num_reduce_tasks, parallel.stats.num_reduce_tasks);
  // Virtual time comes from per-thread CPU measurement plus deterministic
  // overheads, so parallel execution must not inflate it. The measured CPU
  // component of these tiny tasks is microseconds; the tolerance covers
  // measurement noise only.
  EXPECT_NEAR(serial.stats.Total().seconds, parallel.stats.Total().seconds,
              0.1);
}

TEST(ParallelMapReduceTest, CountersExactUnderConcurrency) {
  Cluster cluster(ThreadedConfig(4));
  std::vector<int> input(1000);
  std::iota(input.begin(), input.end(), 0);
  auto result = RunMapReduce<int, int, int, std::pair<int, int>>(
      &cluster, input, {.name = "counters-mt", .num_splits = 32},
      [](const int& v, Emitter<int, int>* em) {
        Count(Counter::kCandidatesExamined);               // seen
        if (v % 2 == 0) Count(Counter::kFeaturesComputed);  // evens
        em->Emit(v % 8, v);
      },
      [](const int& k, const ValueList<int>& vals,
         TaskVector<std::pair<int, int>>* out) {
        out->emplace_back(k, static_cast<int>(vals.size()));
      });
  EXPECT_EQ(result.stats.counters[Counter::kCandidatesExamined], 1000u);
  EXPECT_EQ(result.stats.counters[Counter::kFeaturesComputed], 500u);
  EXPECT_EQ(result.stats.input_records, 1000u);
  EXPECT_EQ(result.stats.intermediate_records, 1000u);
}

TEST(ParallelMapReduceTest, MapOnlyPreservesInputOrder) {
  std::vector<int> input(1000);
  std::iota(input.begin(), input.end(), 0);
  auto run = [&](int threads) {
    Cluster cluster(ThreadedConfig(threads));
    return RunMapOnly<int, int>(
               &cluster, input, {.name = "order", .num_splits = 16},
               [](const int& v, TaskVector<int>* out) {
                 out->push_back(v * 2);
               })
        .output;
  };
  auto serial = run(1);
  auto parallel = run(4);
  ASSERT_EQ(serial.size(), 1000u);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelMapReduceTest, MapExceptionPropagates) {
  Cluster cluster(ThreadedConfig(4));
  std::vector<int> input(100);
  std::iota(input.begin(), input.end(), 0);
  EXPECT_THROW(
      (RunMapOnly<int, int>(&cluster, input, {.name = "boom", .num_splits = 8},
                            [](const int& v, TaskVector<int>*) {
                              if (v == 63) throw std::runtime_error("boom");
                            })),
      std::runtime_error);
}

TEST(ParallelMapReduceTest, SerialOptOutRunsWithoutPool) {
  // A job flagged serial must give identical results on a threaded cluster.
  std::vector<int> input(200);
  std::iota(input.begin(), input.end(), 0);
  auto run = [&](bool serial) {
    Cluster cluster(ThreadedConfig(4));
    return RunMapOnly<int, int>(
               &cluster, input,
               {.name = "opt-out", .num_splits = 8, .serial = serial},
               [](const int& v, TaskVector<int>* out) {
                 out->push_back(v + 1);
               })
        .output;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(ParallelMapReduceTest, MeasureSecondsUsesThreadCpuTime) {
  // Sleeping burns wall time but no CPU; the thread-CPU clock keeps the
  // virtual bill near zero, which is what makes concurrent execution safe
  // for the simulated cluster's accounting.
  double s = internal::MeasureSeconds(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(100)); });
  EXPECT_GE(s, 0.0);
  EXPECT_LT(s, 0.05);
}

TEST(ParallelMapReduceTest, StableKeyHashMatchesFnv1a) {
  EXPECT_EQ(internal::StableKeyHash(std::string("abc")), Fnv1a("abc"));
  // Integral keys hash their 64-bit widening, so int and int64_t agree.
  EXPECT_EQ(internal::StableKeyHash(42),
            internal::StableKeyHash(int64_t{42}));
  auto p = std::make_pair(std::string("a"), 7);
  EXPECT_EQ(internal::StableKeyHash(p), internal::StableKeyHash(p));
}

}  // namespace
}  // namespace falcon
