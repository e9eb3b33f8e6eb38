#include "text/intersect.h"

#include <algorithm>
#include <bit>

#include "common/counters.h"

#if defined(FALCON_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define FALCON_SIMD_X86 1
#include <immintrin.h>
#endif

namespace falcon {
namespace {

// --- kernel internals -------------------------------------------------------

/// Strategy cutoffs, tuned on the micro sweep in bench/micro_similarity
/// (EXPERIMENTS.md has the numbers). The SIMD block kernels need at least
/// one full 8-lane block on the SHORTER side to do any vector work, so below
/// kSimdMinShort they degenerate to the scalar tail; above it they win by
/// 3-8x on balanced and mildly lopsided shapes, which pushes the galloping
/// crossover far past the textbook ratio: galloping only pays when the
/// vector kernel is inapplicable (short side < 8, ratio >= 16) or when the
/// short side is small enough that O(short * log(long)) beats streaming the
/// long side through SIMD (short <= 20, ratio >= 32). The branchless merge
/// only ever wins on lists too tiny for anything else to matter (max <= 6).
constexpr size_t kSmallBothMax = 6;
constexpr size_t kSimdMinShort = 8;
constexpr size_t kGallopRatio = 16;
constexpr size_t kGallopRatioVsSimd = 32;
constexpr size_t kGallopShortMax = 20;

/// The galloping regime of the strategy rule; n = min, m = max, n > 0.
bool UseGallop(size_t n, size_t m) {
  if (m / n < kGallopRatio) return false;
  if (n < kSimdMinShort) return true;  // no 8-lane block possible anyway
  return n <= kGallopShortMax && m / n >= kGallopRatioVsSimd;
}

/// Lower bound of `v` in sorted[from..), located by exponential probing then
/// binary search of the bracketed range — O(log(gap)) instead of
/// O(log(size)) when matches cluster, the galloping-search building block.
size_t GallopLowerBound(std::span<const TokenId> sorted, size_t from,
                        TokenId v) {
  size_t bound = 1;
  while (from + bound < sorted.size() && sorted[from + bound] < v) {
    bound <<= 1;
  }
  size_t lo = from + (bound >> 1);
  size_t hi = std::min(from + bound, sorted.size());
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (sorted[mid] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

#if defined(FALCON_SIMD_X86)

/// SSE2 4x4 block compare: each a-lane is tested against all four b-lanes
/// via three shuffled re-comparisons; the block whose max is smaller
/// advances (both on equal maxes), which never skips a match because every
/// element of a later block exceeds the advanced block's max.
size_t IntersectSse2(std::span<const TokenId> a, std::span<const TokenId> b) {
  const size_t n = a.size();
  const size_t m = b.size();
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i + 4 <= n && j + 4 <= m) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.data() + i));
    __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.data() + j));
    __m128i eq = _mm_cmpeq_epi32(va, vb);
    vb = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, vb));
    vb = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, vb));
    vb = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, vb));
    count += static_cast<size_t>(std::popcount(static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(eq)))));
    const TokenId amax = a[i + 3];
    const TokenId bmax = b[j + 3];
    i += amax <= bmax ? 4 : 0;
    j += bmax <= amax ? 4 : 0;
  }
  return count + intersect::ScalarMerge(a.subspan(i), b.subspan(j));
}

/// AVX2 8x8 block compare: seven lane rotations of the b block test every
/// a-lane against every b-lane; sorted-unique inputs guarantee each a-lane
/// matches at most once, so the popcount of the OR'd equality mask is exact.
__attribute__((target("avx2"))) size_t IntersectAvx2(
    std::span<const TokenId> a, std::span<const TokenId> b) {
  const size_t n = a.size();
  const size_t m = b.size();
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  while (i + 8 <= n && j + 8 <= m) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a.data() + i));
    __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b.data() + j));
    __m256i eq = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      vb = _mm256_permutevar8x32_epi32(vb, rot1);
      eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, vb));
    }
    count += static_cast<size_t>(std::popcount(static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(eq)))));
    const TokenId amax = a[i + 7];
    const TokenId bmax = b[j + 7];
    i += amax <= bmax ? 8 : 0;
    j += bmax <= amax ? 8 : 0;
  }
  return count + intersect::ScalarMerge(a.subspan(i), b.subspan(j));
}

#endif  // FALCON_SIMD_X86

using SimdKernelFn = size_t (*)(std::span<const TokenId>,
                                std::span<const TokenId>);

struct SimdDispatch {
  SimdKernelFn fn = nullptr;
  const char* name = "none";
};

/// Runtime CPUID dispatch, resolved once. SSE2 is part of the x86-64
/// baseline, so the fallback needs no feature check.
SimdDispatch ResolveSimd() {
#if defined(FALCON_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return {&IntersectAvx2, "avx2"};
  return {&IntersectSse2, "sse2"};
#else
  return {};
#endif
}

const SimdDispatch& Simd() {
  static const SimdDispatch d = ResolveSimd();
  return d;
}

/// Scalar early-exit merge behind SortedIntersectionAtLeast; alpha >= 1 and
/// min(|a|,|b|) >= alpha are guaranteed by the caller.
bool AtLeastMerge(std::span<const TokenId> a, std::span<const TokenId> b,
                  size_t alpha) {
  const size_t n = a.size();
  const size_t m = b.size();
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  // The success check is cheap and runs every step; the can't-reach-alpha
  // budget check costs a min() so it runs every 16 steps — early exits fire
  // a few steps later than the tightest bound, but the verdict (and thus
  // every consumer's output) is unchanged.
  size_t budget_check = 16;
  while (i < n && j < m) {
    const TokenId av = a[i];
    const TokenId bv = b[j];
    count += av == bv;
    i += av <= bv;
    j += bv <= av;
    if (count >= alpha) {
      Count(Counter::kIntersectEarlyExit);
      return true;
    }
    if (--budget_check == 0) {
      budget_check = 16;
      if (count + std::min(n - i, m - j) < alpha) {
        Count(Counter::kIntersectEarlyExit);
        return false;
      }
    }
  }
  Count(Counter::kIntersectScalar);
  return count >= alpha;
}

/// Galloping early-exit variant for lopsided shapes: probes the longer list
/// once per short element and bails as soon as the remaining short elements
/// cannot change the verdict.
bool AtLeastGallop(std::span<const TokenId> shorter,
                   std::span<const TokenId> longer, size_t alpha) {
  const size_t n = shorter.size();
  size_t j = 0;
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (count >= alpha) {
      Count(Counter::kIntersectEarlyExit);
      return true;
    }
    if (count + (n - i) < alpha) {
      Count(Counter::kIntersectEarlyExit);
      return false;
    }
    j = GallopLowerBound(longer, j, shorter[i]);
    if (j >= longer.size()) {
      Count(Counter::kIntersectEarlyExit);
      return false;  // count < alpha here (checked above, unchanged since)
    }
    if (longer[j] == shorter[i]) {
      ++count;
      ++j;
    }
  }
  Count(Counter::kIntersectGallop);
  return count >= alpha;
}

}  // namespace

// --- raw kernels ------------------------------------------------------------

namespace intersect {

size_t ScalarMerge(std::span<const TokenId> a, std::span<const TokenId> b) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

size_t SmallMerge(std::span<const TokenId> a, std::span<const TokenId> b) {
  const size_t n = a.size();
  const size_t m = b.size();
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  // Branchless two-pointer step: every comparison outcome becomes index
  // arithmetic, so tiny inputs pay no branch-misprediction tax.
  while (i < n && j < m) {
    const TokenId av = a[i];
    const TokenId bv = b[j];
    count += av == bv;
    i += av <= bv;
    j += bv <= av;
  }
  return count;
}

size_t Gallop(std::span<const TokenId> a, std::span<const TokenId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  size_t j = 0;
  size_t count = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    j = GallopLowerBound(b, j, a[i]);
    if (j >= b.size()) break;
    if (b[j] == a[i]) {
      ++count;
      ++j;
    }
  }
  return count;
}

size_t SimdMerge(std::span<const TokenId> a, std::span<const TokenId> b) {
  const SimdDispatch& d = Simd();
  if (d.fn == nullptr) return ScalarMerge(a, b);
  return d.fn(a, b);
}

}  // namespace intersect

// --- strategy selection / entry points --------------------------------------

IntersectStrategy ChooseIntersectStrategy(size_t na, size_t nb) {
  const size_t n = std::min(na, nb);
  const size_t m = std::max(na, nb);
  if (n == 0) return IntersectStrategy::kScalar;
  if (UseGallop(n, m)) return IntersectStrategy::kGallop;
  if (m <= kSmallBothMax) return IntersectStrategy::kSmall;
  if (n < kSimdMinShort) return IntersectStrategy::kScalar;
  return IntersectStrategy::kSimd;
}

bool SimdIntersectAvailable() { return Simd().fn != nullptr; }

const char* SimdIntersectKernelName() { return Simd().name; }

size_t SortedIntersectionSize(std::span<const TokenId> a,
                              std::span<const TokenId> b) {
  if (a.empty() || b.empty()) return 0;  // trivial; not worth a counter bump
  switch (ChooseIntersectStrategy(a.size(), b.size())) {
    case IntersectStrategy::kGallop:
      Count(Counter::kIntersectGallop);
      return intersect::Gallop(a, b);
    case IntersectStrategy::kSmall:
      Count(Counter::kIntersectSmall);
      return intersect::SmallMerge(a, b);
    case IntersectStrategy::kSimd:
      if (const SimdDispatch& d = Simd(); d.fn != nullptr) {
        Count(Counter::kIntersectSimd);
        return d.fn(a, b);
      }
      [[fallthrough]];
    case IntersectStrategy::kScalar:
      break;
  }
  Count(Counter::kIntersectScalar);
  return intersect::ScalarMerge(a, b);
}

size_t SortedIntersectionSize(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = a[i].compare(b[j]);
    if (cmp == 0) {
      ++count;
      ++i;
      ++j;
    } else if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

bool SortedIntersectionAtLeast(std::span<const TokenId> a,
                               std::span<const TokenId> b, size_t alpha) {
  if (alpha == 0) return true;
  const size_t n = std::min(a.size(), b.size());
  const size_t m = std::max(a.size(), b.size());
  if (n < alpha) return false;  // free verdict, no counter bump
  if (UseGallop(n, m)) {
    return a.size() <= b.size() ? AtLeastGallop(a, b, alpha)
                                : AtLeastGallop(b, a, alpha);
  }
  return AtLeastMerge(a, b, alpha);
}

bool SortedSetContains(std::span<const TokenId> sorted, TokenId v) {
  Count(Counter::kIntersectContains);
  size_t lo = 0;
  size_t hi = sorted.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (sorted[mid] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < sorted.size() && sorted[lo] == v;
}

}  // namespace falcon
