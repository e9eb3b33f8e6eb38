#include "common/arena.h"

#include <algorithm>
#include <cstring>

namespace falcon {

PageProvider* DefaultPageProvider() {
  static HeapPageProvider provider;
  return &provider;
}

// --- Arena -------------------------------------------------------------------

Arena::Arena(PageProvider* provider, size_t first_page_bytes)
    : provider_(provider != nullptr ? provider : DefaultPageProvider()),
      next_page_bytes_(std::max<size_t>(first_page_bytes, 64)),
      first_page_bytes_(next_page_bytes_) {}

Arena::~Arena() {
  for (const Page& p : pages_) provider_->ReleasePage(p.data, p.size);
}

Arena::Arena(Arena&& other) noexcept
    : provider_(other.provider_),
      pages_(std::move(other.pages_)),
      active_(other.active_),
      ptr_(other.ptr_),
      end_(other.end_),
      next_page_bytes_(other.next_page_bytes_),
      first_page_bytes_(other.first_page_bytes_),
      used_(other.used_),
      reserved_(other.reserved_),
      total_pages_(other.total_pages_),
      total_page_bytes_(other.total_page_bytes_) {
  other.pages_.clear();
  other.active_ = 0;
  other.ptr_ = other.end_ = nullptr;
  other.used_ = other.reserved_ = 0;
  other.next_page_bytes_ = other.first_page_bytes_;
}

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this == &other) return *this;
  for (const Page& p : pages_) provider_->ReleasePage(p.data, p.size);
  provider_ = other.provider_;
  pages_ = std::move(other.pages_);
  active_ = other.active_;
  ptr_ = other.ptr_;
  end_ = other.end_;
  next_page_bytes_ = other.next_page_bytes_;
  first_page_bytes_ = other.first_page_bytes_;
  used_ = other.used_;
  reserved_ = other.reserved_;
  total_pages_ = other.total_pages_;
  total_page_bytes_ = other.total_page_bytes_;
  other.pages_.clear();
  other.active_ = 0;
  other.ptr_ = other.end_ = nullptr;
  other.used_ = other.reserved_ = 0;
  other.next_page_bytes_ = other.first_page_bytes_;
  return *this;
}

namespace {

inline char* AlignUp(char* p, size_t align) {
  const uintptr_t v = reinterpret_cast<uintptr_t>(p);
  return reinterpret_cast<char*>((v + align - 1) & ~uintptr_t{align - 1});
}

}  // namespace

void* Arena::Allocate(size_t bytes, size_t align) {
  assert(align != 0 && (align & (align - 1)) == 0 && "align: power of two");
  if (bytes == 0) bytes = 1;
  char* aligned = AlignUp(ptr_, align);
  if (aligned != nullptr && aligned + bytes <= end_) {
    used_ += static_cast<size_t>(aligned + bytes - ptr_);
    ptr_ = aligned + bytes;
    return aligned;
  }
  return AllocateSlow(bytes, align);
}

void* Arena::AllocateSlow(size_t bytes, size_t align) {
  // Provider pages are max_align-aligned, so a page of `bytes + align`
  // always has room for an aligned block of `bytes`.
  const size_t need = bytes + align;
  // Reuse a retained page if one is big enough (skipped smaller pages stay
  // idle until the next Reset; pages grow geometrically so skips are rare).
  while (active_ < pages_.size()) {
    const Page& p = pages_[active_];
    ++active_;
    if (p.size >= need) {
      ptr_ = p.data;
      end_ = p.data + p.size;
      char* aligned = AlignUp(ptr_, align);
      used_ += static_cast<size_t>(aligned + bytes - ptr_);
      ptr_ = aligned + bytes;
      return aligned;
    }
  }
  // Acquire a fresh page: geometric growth for small requests, exact size
  // for oversized ones (tight long-lived arrays reserve no slack).
  size_t page_bytes = next_page_bytes_;
  if (need > page_bytes) {
    page_bytes = need;
  } else {
    next_page_bytes_ = std::min(next_page_bytes_ * 2, kMaxPageBytes);
  }
  char* data = static_cast<char*>(provider_->AcquirePage(page_bytes));
  pages_.push_back(Page{data, page_bytes});
  active_ = pages_.size();
  reserved_ += page_bytes;
  ++total_pages_;
  total_page_bytes_ += page_bytes;
  ptr_ = data;
  end_ = data + page_bytes;
  char* aligned = AlignUp(ptr_, align);
  used_ += static_cast<size_t>(aligned + bytes - ptr_);
  ptr_ = aligned + bytes;
  return aligned;
}

void Arena::Reset() {
  active_ = 0;
  ptr_ = end_ = nullptr;
  used_ = 0;
}

void Arena::Trim(size_t max_retained_bytes) {
  while (pages_.size() > active_ && reserved_ > max_retained_bytes) {
    const Page& p = pages_.back();
    reserved_ -= p.size;
    provider_->ReleasePage(p.data, p.size);
    pages_.pop_back();
  }
}

// --- ArenaPool ---------------------------------------------------------------

ArenaPool::ArenaPool(PageProvider* provider)
    : provider_(provider != nullptr ? provider : DefaultPageProvider()) {}

Arena* ArenaPool::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    Arena* a = free_.back();
    free_.pop_back();
    return a;
  }
  arenas_.push_back(std::make_unique<Arena>(provider_));
  return arenas_.back().get();
}

void ArenaPool::Release(Arena* arena) {
  if (arena == nullptr) return;
  arena->Reset();
  arena->Trim(kMaxRetainedBytes);
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(arena);
}

size_t ArenaPool::arenas_created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return arenas_.size();
}

size_t ArenaPool::arenas_free() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

// --- ScratchArena ------------------------------------------------------------

ScratchArena& ThreadScratch() {
  static thread_local ScratchArena scratch;
  return scratch;
}

}  // namespace falcon
