// Similarity functions.
//
// Falcon uses the similarity functions of Figure 5 to generate features, and
// a subset of them ("relatively fast" ones) for blocking rules: exact match,
// Jaccard, Dice, overlap, cosine, Levenshtein, absolute/relative difference.
// The remaining functions (Jaro, Jaro-Winkler, Monge-Elkan, Needleman-Wunsch,
// Smith-Waterman, Smith-Waterman-Gotoh, TF/IDF, Soft TF/IDF) are used only
// for matcher features.
//
// All set-based functions take *sorted unique* token vectors (ToTokenSet).
// All functions return a score in a fixed range except AbsDiff/RelDiff,
// which return a non-negative distance.
#ifndef FALCON_TEXT_SIMILARITY_H_
#define FALCON_TEXT_SIMILARITY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/intersect.h"
#include "text/token_dictionary.h"

namespace falcon {

/// All similarity functions known to Falcon.
enum class SimFunction {
  kExactMatch,
  kJaccard,
  kDice,
  kOverlap,  ///< overlap coefficient: |x ∩ y| / min(|x|, |y|)
  kCosine,
  kLevenshtein,  ///< normalized similarity: 1 - dist/max(len)
  kAbsDiff,      ///< |a - b| (numeric distance)
  kRelDiff,      ///< |a - b| / max(|a|, |b|) (numeric distance)
  kJaro,
  kJaroWinkler,
  kMongeElkan,
  kNeedlemanWunsch,
  kSmithWaterman,
  kSmithWatermanGotoh,
  kTfIdf,
  kSoftTfIdf,
};

const char* SimFunctionName(SimFunction f);

/// True for set-based functions that admit index filters (length / prefix /
/// position) in blocking: Jaccard, Dice, overlap, cosine. Levenshtein also
/// admits q-gram-based filters (treated as set-based over 3-grams).
bool IsSetBased(SimFunction f);

/// True for the numeric distance functions AbsDiff/RelDiff.
bool IsNumericDistance(SimFunction f);

/// True if the function may be used in blocking rules (the non-starred rows
/// of Figure 5).
bool UsableForBlocking(SimFunction f);

// --- set-based similarities over sorted unique token vectors --------------

double JaccardSim(const std::vector<std::string>& x,
                  const std::vector<std::string>& y);
double DiceSim(const std::vector<std::string>& x,
               const std::vector<std::string>& y);
double OverlapSim(const std::vector<std::string>& x,
                  const std::vector<std::string>& y);
double CosineSim(const std::vector<std::string>& x,
                 const std::vector<std::string>& y);

// --- set-based similarities over sorted unique TokenId spans ----------------
//
// The dictionary-encoded hot path: identical formulas over interned ids.
// Because the set functions depend only on |x ∩ y|, |x| and |y|, results are
// bit-identical to the string overloads whenever both sides were interned
// through one TokenDictionary (any total order on distinct elements yields
// the same intersection size). `SortedIntersectionSize` itself lives in
// text/intersect.h (adaptive scalar/galloping/SIMD kernels).

double JaccardSim(std::span<const TokenId> x, std::span<const TokenId> y);
double DiceSim(std::span<const TokenId> x, std::span<const TokenId> y);
double OverlapSim(std::span<const TokenId> x, std::span<const TokenId> y);
double CosineSim(std::span<const TokenId> x, std::span<const TokenId> y);

/// The shared closed form behind every set-based similarity: the score of a
/// set-based `fn` given |x ∩ y| = `inter`, |x| = `nx`, |y| = `ny` (NaN for
/// non-set-based functions). Both the value paths above and RuleApplier's
/// count-decided predicates (whose flip points are searched over it)
/// evaluate THIS function, which is what keeps their keep/drop decisions
/// bit-identical. Monotone nondecreasing in `inter` for fixed sizes — the
/// property that lets a predicate's verdict flip at most once.
double SetSimFromCounts(SimFunction fn, size_t inter, size_t nx, size_t ny);

// --- string similarities ---------------------------------------------------

/// Levenshtein edit distance (unit costs).
size_t LevenshteinDistance(std::string_view a, std::string_view b);
/// 1 - dist / max(len); 1.0 for two empty strings.
double LevenshteinSim(std::string_view a, std::string_view b);

/// Jaro similarity. Two strings of at most 64 bytes run the greedy match
/// bit-parallel; longer ones run it over flag words. Both give one value.
double JaroSim(std::string_view a, std::string_view b);
/// Jaro-Winkler with prefix scale 0.1, max prefix 4.
double JaroWinklerSim(std::string_view a, std::string_view b);

/// What JaroWinklerBound reads of a token instead of its bytes: how many of
/// its bytes fall in each of 32 buckets (a-z one each, digits and other
/// bytes sharing), its first four bytes and its length. Counts and length
/// saturate, which only loosens the bound.
struct CharSignature {
  uint8_t counts[32];
  uint32_t head;  ///< bytes 0-3 in the low-to-high bytes, zero-padded
  uint32_t size;
};

CharSignature SignatureOf(std::string_view token);

/// An upper bound on the Jaro-Winkler similarity of the two tokens:
/// J + p * 0.1 * (1 - J) with J = (m/|x| + m/|y| + 1) / 3, p their common
/// prefix (at most 4) and m the sum over buckets of the smaller count, which
/// no match count exceeds (the shorter length when a count could saturate).
/// Rounding can put the bound a few ulps under the score it bounds, so a
/// caller must give it slack before skipping a score on its account.
double JaroWinklerBound(const CharSignature& x, const CharSignature& y);

/// A token list and its tokens' signatures. Read out of a TokenLists, or
/// over a caller's tokens and signatures. (No default constructor, so that
/// `MongeElkanSim({}, {})` means two empty string lists.)
struct TokenListView {
  TokenListView(std::span<const std::string> tokens_in,
                std::span<const CharSignature> sigs_in)
      : tokens(tokens_in), sigs(sigs_in) {}

  std::span<const std::string> tokens;
  std::span<const CharSignature> sigs;  ///< parallel to `tokens`
};

/// Token lists in CSR layout with each token's signature, built once per
/// value and read by every pair the value is in.
class TokenLists {
 public:
  void Add(std::vector<std::string> tokens);
  TokenListView operator[](size_t i) const;

 private:
  std::vector<std::string> tokens_;
  std::vector<CharSignature> sigs_;
  /// List i holds entries [offsets_[i], offsets_[i + 1]).
  std::vector<uint32_t> offsets_{0};
};

/// Monge-Elkan: mean over tokens of x of the max Jaro-Winkler against
/// tokens of y (token lists need not be sorted/unique). A y token whose
/// bound cannot beat the running max is not scored, and a scan that reaches
/// 1.0 ends, so the value is the plain max loop's, bit for bit.
double MongeElkanSim(const TokenListView& x, const TokenListView& y);

/// Monge-Elkan over raw token lists: builds both lists' signatures, then
/// runs the prepared-list kernel.
double MongeElkanSim(const std::vector<std::string>& x,
                     const std::vector<std::string>& y);

/// Needleman-Wunsch global alignment score, normalized to [0, 1]
/// (match +1, mismatch -1, gap -1; normalized by max length).
double NeedlemanWunschSim(std::string_view a, std::string_view b);

/// Smith-Waterman local alignment score, normalized by min length.
double SmithWatermanSim(std::string_view a, std::string_view b);

/// Smith-Waterman with affine gaps (Gotoh; open 1.0, extend 0.5),
/// normalized by min length.
double SmithWatermanGotohSim(std::string_view a, std::string_view b);

// --- numeric ---------------------------------------------------------------

/// 1.0 if both strings are byte-equal after trimming (case-insensitive),
/// else 0.0.
double ExactMatchSim(std::string_view a, std::string_view b);

double AbsDiff(double a, double b);
double RelDiff(double a, double b);

// --- corpus-weighted -------------------------------------------------------

/// Inverse-document-frequency statistics over a token corpus. Built once per
/// (attribute, tokenization) from table A's values; consulted by TF/IDF and
/// Soft TF/IDF features.
class IdfDict {
 public:
  /// Adds one document's token *set*.
  void AddDocument(const std::vector<std::string>& token_set);
  /// Finalizes IDF weights; must be called before Idf().
  void Finalize();
  /// Smoothed IDF: log(1 + N / (1 + df)).
  double Idf(const std::string& token) const;

 private:
  std::unordered_map<std::string, double> df_;
  size_t num_docs_ = 0;
};

/// One value's TF/IDF vector: its distinct tokens, each weighted tf * idf,
/// and the vector's Euclidean norm. Read out of a TfIdfVectors.
struct TfIdfView {
  std::span<const std::string> tokens;
  std::span<const CharSignature> sigs;  ///< parallel to `tokens`
  std::span<const double> weights;      ///< parallel to `tokens`
  /// Positions into `tokens` in ascending token order (exact-token lookup).
  std::span<const uint32_t> by_token;
  double norm = 0.0;
};

/// The TF/IDF vectors of a sequence of values, in CSR layout: built once per
/// value, then read by every pair the value is in.
///
/// A vector's tokens keep the iteration order of the hash map its term
/// frequencies are accumulated in, and its norm sums the squared weights in
/// that order. The kernels below sum in that order too, so every score is
/// bitwise the one the per-pair hash-map computation gives.
class TfIdfVectors {
 public:
  /// Appends the vector of one value's raw tokens (a repeated token raises
  /// its term frequency); an empty list appends the empty vector.
  void Add(const std::vector<std::string>& tokens, const IdfDict& idf);

  TfIdfView operator[](size_t i) const;

 private:
  std::vector<std::string> tokens_;
  std::vector<CharSignature> sigs_;
  std::vector<double> weights_;
  std::vector<uint32_t> by_token_;  ///< value-local positions
  /// Value i holds entries [offsets_[i], offsets_[i + 1]).
  std::vector<uint32_t> offsets_{0};
  std::vector<double> norms_;
};

/// TF/IDF cosine of two prepared vectors.
double TfIdfSim(const TfIdfView& x, const TfIdfView& y);

/// Soft TF/IDF (Cohen et al.) of two prepared vectors: like TF/IDF, but each
/// token of x pairs with its most Jaro-Winkler-similar token of y (the first
/// one on ties) and counts when that similarity reaches `theta`. A y token
/// whose bound cannot reach `theta` or beat the running max is not scored;
/// it could never be that first maximum.
double SoftTfIdfSim(const TfIdfView& x, const TfIdfView& y,
                    double theta = 0.9);

/// TF/IDF cosine over raw token vectors (term frequencies within each value).
/// Builds both vectors, then runs the prepared-vector kernel.
double TfIdfSim(const std::vector<std::string>& x,
                const std::vector<std::string>& y, const IdfDict& idf);

/// Soft TF/IDF over raw token vectors (default theta 0.9). Builds both
/// vectors, then runs the prepared-vector kernel.
double SoftTfIdfSim(const std::vector<std::string>& x,
                    const std::vector<std::string>& y, const IdfDict& idf,
                    double theta = 0.9);

}  // namespace falcon

#endif  // FALCON_TEXT_SIMILARITY_H_
