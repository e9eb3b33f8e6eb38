// Arena / pool memory for the blocking + matching hot paths.
//
// Falcon's inner loops treat map/reduce tasks as cheap, disposable units of
// work (PAPER.md §3.4), but general-purpose heap allocation makes each task
// pay malloc/free per emitted pair, per shuffle bucket, and per feature
// scratch buffer. This library provides the memory discipline instead:
//
//   PageProvider    — pluggable source of raw pages (heap by default; tests
//                     swap in a counting provider to observe acquisition).
//   Arena           — bump allocator with chunked page growth. Reset()
//                     retains pages, so a warm arena serves an entire task
//                     without touching the heap.
//   ArenaAllocator  — std-allocator adapter: arena-backed when given an
//                     Arena, plain heap when default-constructed.
//   ArenaPool       — mutex-guarded pool of reusable task arenas; arenas are
//                     reset (not freed) on release, per-task reset discipline.
//   ScratchArena    — per-thread arena with a generation counter, replacing
//                     ad-hoc `thread_local std::vector` scratch that retains
//                     peak capacity forever.
//
// Allocation accounting: Arena exposes monotonic page-acquisition counters,
// so the MapReduce engine can charge real heap traffic to each task
// (Counter::kAllocCount and kAllocBytes, common/counters.h). These counters
// measure the machine, not the computation: a warm arena reports zero page
// acquisitions for a whole task.
#ifndef FALCON_COMMON_ARENA_H_
#define FALCON_COMMON_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace falcon {

// --- page provider -----------------------------------------------------------

/// Source of raw memory pages for arenas and pools. Implementations must
/// return storage aligned to alignof(std::max_align_t). Pluggable so tests
/// can count acquisitions and future work can back arenas with mmap/hugepages.
class PageProvider {
 public:
  virtual ~PageProvider() = default;
  virtual void* AcquirePage(size_t bytes) = 0;
  virtual void ReleasePage(void* page, size_t bytes) = 0;
};

/// Default provider: operator new/delete.
class HeapPageProvider : public PageProvider {
 public:
  void* AcquirePage(size_t bytes) override { return ::operator new(bytes); }
  void ReleasePage(void* page, size_t /*bytes*/) override {
    ::operator delete(page);
  }
};

/// Process-wide shared heap provider (what `provider = nullptr` resolves to).
PageProvider* DefaultPageProvider();

// --- arena -------------------------------------------------------------------

/// Bump allocator over provider-acquired pages.
///
/// Pages grow geometrically from `first_page_bytes` up to kMaxPageBytes;
/// requests larger than the growth cap get a dedicated exact-size page (so
/// tight long-lived arrays — CSR postings, token stores — reserve no slack).
/// Reset() rewinds to empty but retains every page for reuse; Trim() bounds
/// retention. Movable (pages keep their addresses, so pointers into the
/// arena survive a move); not copyable. Not thread-safe: one owner at a time.
class Arena {
 public:
  static constexpr size_t kDefaultFirstPageBytes = size_t{1} << 14;  // 16 KB
  static constexpr size_t kMaxPageBytes = size_t{1} << 20;           // 1 MB

  explicit Arena(PageProvider* provider = nullptr,
                 size_t first_page_bytes = kDefaultFirstPageBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;

  /// Returns `bytes` of storage aligned to `align` (a power of two, at most
  /// alignof(std::max_align_t)). Never returns nullptr; a zero-byte request
  /// returns a valid unique pointer.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Typed array of `n` default-initialized slots (no constructors run;
  /// intended for trivially-destructible T — nothing is ever destroyed).
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty, retaining all pages for reuse. Everything previously
  /// allocated becomes invalid.
  void Reset();

  /// Releases retained-but-unused pages (newest first) until at most
  /// `max_retained_bytes` remain reserved. Pages holding live allocations
  /// are never released, so calling right after Reset() trims fully.
  void Trim(size_t max_retained_bytes);

  /// Bytes handed out since construction or the last Reset().
  size_t bytes_used() const { return used_; }
  /// Bytes of pages currently held (used + retained).
  size_t bytes_reserved() const { return reserved_; }
  /// Monotonic count of pages ever acquired from the provider — i.e. real
  /// heap allocations. A warm arena stops incrementing these.
  uint64_t total_pages_acquired() const { return total_pages_; }
  uint64_t total_page_bytes_acquired() const { return total_page_bytes_; }

 private:
  struct Page {
    char* data;
    size_t size;
  };

  /// Slow path: position `ptr_` in a page with >= `bytes` of aligned room.
  void* AllocateSlow(size_t bytes, size_t align);

  PageProvider* provider_;
  std::vector<Page> pages_;
  size_t active_ = 0;  ///< pages_[0..active_) are (partially) in use
  char* ptr_ = nullptr;
  char* end_ = nullptr;
  size_t next_page_bytes_;
  size_t first_page_bytes_;
  size_t used_ = 0;
  size_t reserved_ = 0;
  uint64_t total_pages_ = 0;
  uint64_t total_page_bytes_ = 0;
};

// --- std allocator adapter ---------------------------------------------------

/// std-allocator adapter with two modes:
///   arena mode (arena != nullptr) — storage comes from the arena; the
///     container's deallocate is a no-op (the arena reclaims on Reset).
///   heap mode (default-constructed) — plain operator new/delete, for
///     containers built outside the MapReduce engine (tests, direct use).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->Allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }
  void deallocate(T* p, size_t /*n*/) noexcept {
    if (arena_ == nullptr) ::operator delete(p);
  }

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& other) const {
    return !(*this == other);
  }

 private:
  Arena* arena_ = nullptr;
};

/// Vector whose buffer lives in an arena (see ArenaAllocator).
/// Default-constructed instances are plain heap vectors.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

// --- task-arena pool ---------------------------------------------------------

/// Pool of reusable task arenas for the MapReduce engine: each map/reduce
/// task leases one arena for its buffers and returns it at task end, where
/// it is reset — not freed — so pages warm up once and are recycled across
/// every subsequent job. The pool owns every arena it creates (at most as
/// many as tasks leased at once). Acquire/Release are mutex-guarded (the
/// engine leases arenas from the coordinating thread, but Cluster is
/// shared).
class ArenaPool {
 public:
  explicit ArenaPool(PageProvider* provider = nullptr);

  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  /// Leases an arena (warm if available, fresh otherwise).
  Arena* Acquire();
  /// Resets `arena` (pages retained, bounded by `max_retained_bytes`) and
  /// returns it to the pool.
  void Release(Arena* arena, size_t max_retained_bytes = kMaxRetainedBytes);

  /// Retention bound per pooled arena: generous enough to keep a typical
  /// task's working set warm, small enough that a one-off giant job does not
  /// pin its peak forever.
  static constexpr size_t kMaxRetainedBytes = size_t{4} << 20;  // 4 MB

  size_t arenas_created() const;
  size_t arenas_free() const;

 private:
  PageProvider* provider_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Arena>> arenas_;  ///< every arena created
  std::vector<Arena*> free_;  ///< LIFO: most recently warmed first
};

// --- per-thread scratch ------------------------------------------------------

/// Thread-local scratch arena with a generation counter. Users carve typed
/// buffers and cache the raw pointer together with the generation they saw;
/// after a Reset() the generation changes and the next use re-carves (cheap:
/// a bump from retained pages). The MapReduce engine resets each worker's
/// scratch at task end, so scratch no longer retains one job's peak
/// capacity forever (the old `thread_local std::vector` failure mode).
class ScratchArena {
 public:
  Arena* arena() { return &arena_; }
  uint64_t generation() const { return generation_; }

  /// Invalidates all carved buffers and rewinds the arena (pages retained,
  /// bounded by `max_retained_bytes`).
  void Reset(size_t max_retained_bytes = kMaxRetainedBytes) {
    arena_.Reset();
    arena_.Trim(max_retained_bytes);
    ++generation_;
  }

  static constexpr size_t kMaxRetainedBytes = size_t{1} << 20;  // 1 MB

 private:
  Arena arena_;
  uint64_t generation_ = 1;  ///< starts above any user's cached 0
};

/// The calling thread's scratch arena.
ScratchArena& ThreadScratch();

}  // namespace falcon

#endif  // FALCON_COMMON_ARENA_H_
