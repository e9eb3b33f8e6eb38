// Tests for the arena/pool memory library (common/arena.h) and for the
// MapReduce engine's task-arena allocation accounting.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "mapreduce/job.h"
#include "text/token_dictionary.h"

namespace falcon {
namespace {

/// Delegates to the heap while recording every page acquisition/release, so
/// tests can observe exactly when an arena or pool touches the provider.
class CountingPageProvider : public PageProvider {
 public:
  void* AcquirePage(size_t bytes) override {
    ++acquires_;
    acquired_bytes_ += bytes;
    page_sizes_.push_back(bytes);
    return heap_.AcquirePage(bytes);
  }
  void ReleasePage(void* page, size_t bytes) override {
    ++releases_;
    released_bytes_ += bytes;
    heap_.ReleasePage(page, bytes);
  }

  uint64_t acquires() const { return acquires_; }
  uint64_t releases() const { return releases_; }
  uint64_t live_pages() const { return acquires_ - releases_; }
  uint64_t acquired_bytes() const { return acquired_bytes_; }
  uint64_t released_bytes() const { return released_bytes_; }
  const std::vector<size_t>& page_sizes() const { return page_sizes_; }

 private:
  HeapPageProvider heap_;
  uint64_t acquires_ = 0;
  uint64_t releases_ = 0;
  uint64_t acquired_bytes_ = 0;
  uint64_t released_bytes_ = 0;
  std::vector<size_t> page_sizes_;
};

bool IsAligned(const void* p, size_t align) {
  return (reinterpret_cast<uintptr_t>(p) & (align - 1)) == 0;
}

// --- Arena -------------------------------------------------------------------

TEST(ArenaTest, AlignmentAndZeroByteRequests) {
  Arena arena;
  EXPECT_TRUE(IsAligned(arena.Allocate(3, 1), 1));
  EXPECT_TRUE(IsAligned(arena.Allocate(5, 8), 8));
  EXPECT_TRUE(IsAligned(arena.Allocate(1, 16), 16));
  EXPECT_TRUE(IsAligned(arena.Allocate(7), alignof(std::max_align_t)));
  // Zero-byte requests still return distinct valid pointers (vector-of-empty
  // semantics depend on unique addresses).
  void* a = arena.Allocate(0, 1);
  void* b = arena.Allocate(0, 1);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(a, b);
  EXPECT_GT(arena.bytes_used(), 0u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(ArenaTest, PagesGrowGeometrically) {
  CountingPageProvider provider;
  Arena arena(&provider, /*first_page_bytes=*/64);
  // Small allocations: each new page doubles the previous request size.
  while (provider.page_sizes().size() < 4) arena.Allocate(16, 8);
  const auto& sizes = provider.page_sizes();
  EXPECT_EQ(sizes[0], 64u);
  EXPECT_EQ(sizes[1], 128u);
  EXPECT_EQ(sizes[2], 256u);
  EXPECT_EQ(sizes[3], 512u);
  EXPECT_EQ(arena.total_pages_acquired(), provider.acquires());
  EXPECT_EQ(arena.total_page_bytes_acquired(), provider.acquired_bytes());
}

TEST(ArenaTest, OversizedRequestGetsExactPage) {
  CountingPageProvider provider;
  Arena arena(&provider);
  const size_t big = 3 * Arena::kMaxPageBytes;
  void* p = arena.Allocate(big, 8);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, big);  // the whole request must be addressable
  // The dedicated page is exactly request + alignment slack — no geometric
  // rounding for long-lived arrays.
  ASSERT_EQ(provider.page_sizes().size(), 1u);
  EXPECT_EQ(provider.page_sizes()[0], big + 8);
  // The oversized page must not distort the growth schedule: the next small
  // allocation still starts at the default first-page size.
  arena.Allocate(16, 8);
  ASSERT_EQ(provider.page_sizes().size(), 2u);
  EXPECT_EQ(provider.page_sizes()[1], Arena::kDefaultFirstPageBytes);
}

TEST(ArenaTest, ResetRetainsPagesForWarmReuse) {
  CountingPageProvider provider;
  Arena arena(&provider);
  auto burn = [&] {
    for (int i = 0; i < 1000; ++i) arena.Allocate(100, 8);
  };
  burn();
  const uint64_t cold_pages = arena.total_pages_acquired();
  EXPECT_GT(cold_pages, 0u);
  // Warm laps: same workload, zero new pages — the arena no longer touches
  // the heap at all.
  for (int lap = 0; lap < 3; ++lap) {
    arena.Reset();
    EXPECT_EQ(arena.bytes_used(), 0u);
    burn();
    EXPECT_EQ(arena.total_pages_acquired(), cold_pages);
  }
  EXPECT_EQ(provider.releases(), 0u);
}

TEST(ArenaTest, TrimReleasesOnlyIdlePages) {
  CountingPageProvider provider;
  Arena arena(&provider);
  for (int i = 0; i < 1000; ++i) arena.Allocate(100, 8);
  // Pages holding live allocations are never released.
  const size_t reserved_live = arena.bytes_reserved();
  arena.Trim(0);
  EXPECT_EQ(arena.bytes_reserved(), reserved_live);
  EXPECT_EQ(provider.releases(), 0u);
  // After Reset every page is idle; Trim(0) releases them all.
  arena.Reset();
  arena.Trim(0);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(provider.live_pages(), 0u);
}

TEST(ArenaTest, MovePreservesPagesAndPointers) {
  CountingPageProvider provider;
  {
    Arena arena(&provider);
    int* v = arena.AllocateArray<int>(4);
    v[0] = 42;
    Arena moved(std::move(arena));
    EXPECT_EQ(v[0], 42);  // pages keep their addresses across a move
    EXPECT_EQ(arena.bytes_reserved(), 0u);
    EXPECT_GT(moved.bytes_reserved(), 0u);
    Arena assigned;
    assigned = std::move(moved);
    EXPECT_EQ(v[0], 42);
  }
  // Every page acquired was released exactly once despite the moves.
  EXPECT_EQ(provider.live_pages(), 0u);
  EXPECT_EQ(provider.released_bytes(), provider.acquired_bytes());
}

// --- ArenaPool ---------------------------------------------------------------

TEST(ArenaPoolTest, ReusesWarmArenasAndBoundsRetention) {
  CountingPageProvider provider;
  ArenaPool pool(&provider);
  Arena* a = pool.Acquire();
  EXPECT_EQ(pool.arenas_created(), 1u);
  // Blow past the retention bound, then release: the arena comes back warm
  // but trimmed to the cap.
  for (int i = 0; i < 10; ++i) a->Allocate(ArenaPool::kMaxRetainedBytes / 4);
  pool.Release(a);
  EXPECT_EQ(pool.arenas_free(), 1u);
  Arena* b = pool.Acquire();
  EXPECT_EQ(b, a);  // LIFO: the warm arena is handed back
  EXPECT_EQ(pool.arenas_created(), 1u);
  EXPECT_EQ(b->bytes_used(), 0u);
  EXPECT_LE(b->bytes_reserved(), ArenaPool::kMaxRetainedBytes);
  pool.Release(b);
}

// A large job's tasks grow their arenas far past what a typical task uses.
// Once they return, each idle arena keeps at most 64 KB: enough to stay
// warm for a small task, not the largest job it ever served.
TEST(ArenaPoolTest, IdleArenasKeepATypicalTasksPagesNotTheLargestJobs) {
  CountingPageProvider provider;
  ArenaPool pool(&provider);
  constexpr size_t kTasks = 16;
  constexpr size_t kTaskBytes = size_t{2} << 20;
  std::vector<Arena*> leased;
  for (size_t i = 0; i < kTasks; ++i) {
    Arena* a = pool.Acquire();
    while (a->bytes_used() < kTaskBytes) a->Allocate(4096);
    leased.push_back(a);
  }
  for (Arena* a : leased) pool.Release(a);
  EXPECT_EQ(pool.arenas_free(), kTasks);
  const uint64_t idle = provider.acquired_bytes() - provider.released_bytes();
  EXPECT_GT(idle, 0u);
  EXPECT_LE(idle, kTasks * (size_t{64} << 10));
  // A 32 KB task on a returned arena touches no new page.
  const uint64_t acquires = provider.acquires();
  Arena* warm = pool.Acquire();
  for (int i = 0; i < 8; ++i) warm->Allocate(4096);
  EXPECT_EQ(provider.acquires(), acquires);
  pool.Release(warm);
}

// --- ScratchArena ------------------------------------------------------------

TEST(ScratchArenaTest, GenerationBumpInvalidatesCachedCarves) {
  ScratchArena scratch;
  const uint64_t g0 = scratch.generation();
  EXPECT_GT(g0, 0u);  // starts above any user's cached zero
  double* buf = scratch.arena()->AllocateArray<double>(8);
  buf[0] = 1.5;
  scratch.Reset();
  EXPECT_GT(scratch.generation(), g0);  // cached (buf, g0) now stale
  EXPECT_EQ(scratch.arena()->bytes_used(), 0u);
  EXPECT_LE(scratch.arena()->bytes_reserved(), ScratchArena::kMaxRetainedBytes);
}

TEST(ScratchArenaTest, ThreadScratchIsStablePerThread) {
  ScratchArena* s1 = &ThreadScratch();
  ScratchArena* s2 = &ThreadScratch();
  EXPECT_EQ(s1, s2);
}

// --- ArenaAllocator ----------------------------------------------------------

TEST(ArenaAllocatorTest, ArenaModeBypassesTheHeap) {
  CountingPageProvider provider;
  Arena arena(&provider);
  {
    ArenaVector<int> v{ArenaAllocator<int>(&arena)};
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_GE(arena.bytes_used(), 1000 * sizeof(int));
  }
  // Vector destruction deallocates into the arena (a no-op): nothing was
  // released to the provider.
  EXPECT_EQ(provider.releases(), 0u);
}

TEST(ArenaAllocatorTest, RebindKeepsArena) {
  Arena arena;
  ArenaAllocator<int> ints(&arena);
  ArenaAllocator<char> chars(ints);
  EXPECT_EQ(chars.arena(), &arena);
  EXPECT_TRUE(ints == chars);
  EXPECT_FALSE(ints == ArenaAllocator<int>());
}

// --- provider swap through a consumer ---------------------------------------

TEST(ProviderSwapTest, TokenDictionaryRoutesPagesThroughProvider) {
  CountingPageProvider provider;
  {
    TokenDictionary dict(&provider);
    for (int i = 0; i < 5000; ++i) {
      dict.Intern("token_" + std::to_string(i));
    }
    EXPECT_EQ(dict.size(), 5000u);
    EXPECT_GT(provider.acquires(), 0u);
    // Interned ids round-trip through the provider-backed texts.
    TokenId id = 0;
    ASSERT_TRUE(dict.Find("token_123", &id));
    EXPECT_EQ(dict.Text(id), "token_123");
  }
  // Destruction returns every page to the swapped-in provider.
  EXPECT_EQ(provider.live_pages(), 0u);
}

// --- engine alloc accounting -------------------------------------------------

ClusterConfig FastCluster() {
  ClusterConfig c;
  c.job_startup = VDuration::Seconds(0.5);
  c.task_overhead = VDuration::Seconds(0.01);
  c.local_threads = 1;
  return c;
}

TEST(EngineAllocCountersTest, JobsReportRealHeapTraffic) {
  std::vector<int> input(2000);
  for (size_t i = 0; i < input.size(); ++i) input[i] = static_cast<int>(i);
  Cluster cluster(FastCluster());
  auto run = [&] {
    auto job = RunMapOnly<int, int>(
        &cluster, input, JobOptions{.name = "alloc_probe"},
        [](const int& x, TaskVector<int>* out) {
          for (int k = 0; k < 8; ++k) out->push_back(x + k);
        });
    EXPECT_EQ(job.output.size(), input.size() * 8);
    return job.stats;
  };
  // A cold arena pool acquires pages from the heap; the same job on the
  // warm pool reuses them, so it reports fewer page acquisitions.
  JobStats cold = run();
  JobStats warm = run();
  EXPECT_GT(cold.counters[Counter::kAllocCount], 0u);
  EXPECT_GT(cold.counters[Counter::kAllocBytes], 0u);
  EXPECT_LT(warm.counters[Counter::kAllocCount],
            cold.counters[Counter::kAllocCount]);
}

}  // namespace
}  // namespace falcon
