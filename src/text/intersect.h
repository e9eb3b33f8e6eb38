// Adaptive sorted-set intersection kernels.
//
// `SortedIntersectionSize` over dictionary-encoded token ids is the innermost
// loop of both blocking (posting-list probes, multi-clause candidate
// intersection) and matching (every Jaccard/Dice/Overlap/Cosine feature).
// The similarity-join literature (PPJoin / ALL-Pairs prefix filtering) sees
// the same input regimes our workloads produce, and each has a different
// optimal kernel (cutoffs tuned on the micro sweep in EXPERIMENTS.md):
//
//   tiny lists      (max <= 6)         branchless two-pointer merge — no
//                                      mispredicted branches to amortize
//   lopsided lists  (short < 8 with    galloping: exponential + binary
//                    ratio >= 16, or   search probes of the longer list,
//                    short <= 20 with  O(short * log(long))
//                    ratio >= 32)
//   blocked lists   (min >= 8)         SSE2/AVX2 block-compare when compiled
//                                      in (FALCON_SIMD) and the CPU supports
//                                      it; the classic scalar merge otherwise
//   everything else                    the classic scalar merge
//
// The SIMD kernels need a full 8-lane block on the SHORTER side to do any
// vector work, which is why they own the mildly-lopsided regime (they stream
// the long side 8 ids per compare) and galloping is reserved for shapes
// where no block fits or the short side is tiny.
//
// Strategy selection is a pure function of the two lengths (never of the
// element values, the thread, or timing), and every kernel returns exactly
// |a ∩ b|, so results are byte-identical across thread counts, build flavors
// (FALCON_SIMD on/off), and CPUs — only the activity counters reveal which
// kernel ran. Each adaptive call counts the strategy that resolved it
// (Counter::kIntersectScalar .. kIntersectContains, common/counters.h) on
// the calling thread; the MapReduce engine charges those counts to the task
// that made them, and from JobStats they reach RunMetrics, so benches can
// report which regime dominates each workload.
#ifndef FALCON_TEXT_INTERSECT_H_
#define FALCON_TEXT_INTERSECT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "text/token_dictionary.h"

namespace falcon {

// --- entry points -----------------------------------------------------------

/// |a ∩ b| of two sorted unique id spans, via the adaptive strategy choice
/// described above. This is THE id-path intersection; all consumers
/// (similarity features, probers, benches) funnel through it.
size_t SortedIntersectionSize(std::span<const TokenId> a,
                              std::span<const TokenId> b);

/// |a ∩ b| of two sorted unique string vectors (the pre-interning path).
/// String comparisons dominate here, so this is always the scalar merge.
size_t SortedIntersectionSize(const std::vector<std::string>& a,
                              const std::vector<std::string>& b);

/// True iff |a ∩ b| >= alpha, with early exit in both directions: returns as
/// soon as `alpha` matches are found OR the remaining elements of the shorter
/// side cannot reach `alpha`. RuleApplier uses this to decide a set
/// predicate at its flip point without computing the full intersection.
/// The boolean equals `SortedIntersectionSize(a, b) >= alpha` exactly.
bool SortedIntersectionAtLeast(std::span<const TokenId> a,
                               std::span<const TokenId> b, size_t alpha);

/// Binary-search membership in one sorted unique span (the multi-set
/// candidate-intersection primitive of ClauseProber::ProbeRule).
bool SortedSetContains(std::span<const TokenId> sorted, TokenId v);

// --- strategy selection -----------------------------------------------------

enum class IntersectStrategy {
  kScalar,  ///< classic two-pointer merge (baseline and SIMD fallback)
  kSmall,   ///< branchless merge for tiny lists
  kGallop,  ///< exponential + binary search of the longer list
  kSimd,    ///< SSE2/AVX2 block-compare (preferred; falls back to kScalar)
};

/// The deterministic strategy rule (n = min, m = max): n == 0 -> kScalar;
/// gallop when (n < 8 && m/n >= 16) || (n <= 20 && m/n >= 32); m <= 6 ->
/// kSmall; n < 8 -> kScalar (no SIMD block fits); else kSimd. Depends only
/// on the two lengths, so it is identical on every thread and build.
IntersectStrategy ChooseIntersectStrategy(size_t na, size_t nb);

/// True when a SIMD kernel is both compiled in (FALCON_SIMD) and supported
/// by this CPU (runtime CPUID dispatch; AVX2 preferred, SSE2 fallback).
bool SimdIntersectAvailable();

/// "avx2", "sse2", or "none" — which block-compare kernel dispatch resolved.
const char* SimdIntersectKernelName();

// --- raw kernels (exposed for the property tests and benches) ---------------
//
// Each returns exactly |a ∩ b| for sorted unique inputs and never touches
// the activity counters; only the adaptive entry points above count.

namespace intersect {

size_t ScalarMerge(std::span<const TokenId> a, std::span<const TokenId> b);
size_t SmallMerge(std::span<const TokenId> a, std::span<const TokenId> b);
size_t Gallop(std::span<const TokenId> a, std::span<const TokenId> b);
/// The dispatched SIMD kernel; falls back to ScalarMerge when unavailable.
size_t SimdMerge(std::span<const TokenId> a, std::span<const TokenId> b);

}  // namespace intersect

}  // namespace falcon

#endif  // FALCON_TEXT_INTERSECT_H_
