#include "text/similarity.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>

#include "common/strings.h"
#include "text/tokenize.h"

namespace falcon {

const char* SimFunctionName(SimFunction f) {
  switch (f) {
    case SimFunction::kExactMatch:
      return "exact_match";
    case SimFunction::kJaccard:
      return "jaccard";
    case SimFunction::kDice:
      return "dice";
    case SimFunction::kOverlap:
      return "overlap";
    case SimFunction::kCosine:
      return "cosine";
    case SimFunction::kLevenshtein:
      return "levenshtein";
    case SimFunction::kAbsDiff:
      return "abs_diff";
    case SimFunction::kRelDiff:
      return "rel_diff";
    case SimFunction::kJaro:
      return "jaro";
    case SimFunction::kJaroWinkler:
      return "jaro_winkler";
    case SimFunction::kMongeElkan:
      return "monge_elkan";
    case SimFunction::kNeedlemanWunsch:
      return "needleman_wunsch";
    case SimFunction::kSmithWaterman:
      return "smith_waterman";
    case SimFunction::kSmithWatermanGotoh:
      return "smith_waterman_gotoh";
    case SimFunction::kTfIdf:
      return "tfidf";
    case SimFunction::kSoftTfIdf:
      return "soft_tfidf";
  }
  return "unknown";
}

bool IsSetBased(SimFunction f) {
  switch (f) {
    case SimFunction::kJaccard:
    case SimFunction::kDice:
    case SimFunction::kOverlap:
    case SimFunction::kCosine:
      return true;
    default:
      return false;
  }
}

bool IsNumericDistance(SimFunction f) {
  return f == SimFunction::kAbsDiff || f == SimFunction::kRelDiff;
}

bool UsableForBlocking(SimFunction f) {
  switch (f) {
    case SimFunction::kExactMatch:
    case SimFunction::kJaccard:
    case SimFunction::kDice:
    case SimFunction::kOverlap:
    case SimFunction::kCosine:
    case SimFunction::kLevenshtein:
    case SimFunction::kAbsDiff:
    case SimFunction::kRelDiff:
      return true;
    default:
      return false;
  }
}

double SetSimFromCounts(SimFunction fn, size_t inter, size_t nx, size_t ny) {
  switch (fn) {
    case SimFunction::kJaccard: {
      if (nx == 0 && ny == 0) return 1.0;
      size_t uni = nx + ny - inter;
      return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
    }
    case SimFunction::kDice: {
      if (nx == 0 && ny == 0) return 1.0;
      size_t total = nx + ny;
      return total == 0 ? 0.0 : 2.0 * inter / total;
    }
    case SimFunction::kOverlap: {
      if (nx == 0 || ny == 0) return nx == 0 && ny == 0 ? 1.0 : 0.0;
      return static_cast<double>(inter) / std::min(nx, ny);
    }
    case SimFunction::kCosine: {
      if (nx == 0 || ny == 0) return nx == 0 && ny == 0 ? 1.0 : 0.0;
      return static_cast<double>(inter) /
             std::sqrt(static_cast<double>(nx) * ny);
    }
    default:
      return std::numeric_limits<double>::quiet_NaN();
  }
}

double JaccardSim(const std::vector<std::string>& x,
                  const std::vector<std::string>& y) {
  return SetSimFromCounts(SimFunction::kJaccard, SortedIntersectionSize(x, y),
                          x.size(), y.size());
}

double DiceSim(const std::vector<std::string>& x,
               const std::vector<std::string>& y) {
  return SetSimFromCounts(SimFunction::kDice, SortedIntersectionSize(x, y),
                          x.size(), y.size());
}

double OverlapSim(const std::vector<std::string>& x,
                  const std::vector<std::string>& y) {
  return SetSimFromCounts(SimFunction::kOverlap, SortedIntersectionSize(x, y),
                          x.size(), y.size());
}

double CosineSim(const std::vector<std::string>& x,
                 const std::vector<std::string>& y) {
  return SetSimFromCounts(SimFunction::kCosine, SortedIntersectionSize(x, y),
                          x.size(), y.size());
}

double JaccardSim(std::span<const TokenId> x, std::span<const TokenId> y) {
  return SetSimFromCounts(SimFunction::kJaccard, SortedIntersectionSize(x, y),
                          x.size(), y.size());
}

double DiceSim(std::span<const TokenId> x, std::span<const TokenId> y) {
  return SetSimFromCounts(SimFunction::kDice, SortedIntersectionSize(x, y),
                          x.size(), y.size());
}

double OverlapSim(std::span<const TokenId> x, std::span<const TokenId> y) {
  return SetSimFromCounts(SimFunction::kOverlap, SortedIntersectionSize(x, y),
                          x.size(), y.size());
}

double CosineSim(std::span<const TokenId> x, std::span<const TokenId> y) {
  return SetSimFromCounts(SimFunction::kCosine, SortedIntersectionSize(x, y),
                          x.size(), y.size());
}

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  std::vector<size_t> prev(n + 1);
  std::vector<size_t> cur(n + 1);
  for (size_t i = 0; i <= n; ++i) prev[i] = i;
  for (size_t j = 1; j <= m; ++j) {
    cur[0] = j;
    for (size_t i = 1; i <= n; ++i) {
      size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

double LevenshteinSim(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) / max_len;
}

namespace {

/// What the greedy match of JaroSim finds: for each byte of a in turn, the
/// first unmatched equal byte of b within the window.
struct JaroCounts {
  size_t matches = 0;
  size_t transpositions = 0;
};

/// The greedy match over two strings of 1 to 64 bytes, one bit per
/// position. The candidates for a[i] are the positions of b that hold its
/// byte, lie in the window and are unmatched; the lowest is the one the
/// flag-word scan reaches first.
JaroCounts JaroMatchBits(std::string_view a, std::string_view b,
                         size_t window) {
  // The positions of each byte in b. Only the entries of bytes in a or b
  // are written, and only those are read.
  uint64_t positions[256];
  for (unsigned char c : a) positions[c] = 0;
  for (unsigned char c : b) positions[c] = 0;
  for (size_t j = 0; j < b.size(); ++j) {
    positions[static_cast<unsigned char>(b[j])] |= uint64_t{1} << j;
  }
  uint64_t a_matched = 0;
  uint64_t b_matched = 0;
  JaroCounts counts;
  for (size_t i = 0; i < a.size(); ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(b.size(), i + window + 1);
    // 1 <= hi <= 64 and lo <= i < 64 keep both shift counts below 64.
    const uint64_t in_window =
        (~uint64_t{0} >> (64 - hi)) & (~uint64_t{0} << lo);
    const uint64_t open = positions[static_cast<unsigned char>(a[i])] &
                          in_window & ~b_matched;
    if (open != 0) {
      b_matched |= uint64_t{1} << std::countr_zero(open);
      a_matched |= uint64_t{1} << i;
      ++counts.matches;
    }
  }
  // The k-th matched byte of a pairs with the k-th matched byte of b.
  while (a_matched != 0) {
    if (a[std::countr_zero(a_matched)] != b[std::countr_zero(b_matched)]) {
      ++counts.transpositions;
    }
    a_matched &= a_matched - 1;
    b_matched &= b_matched - 1;
  }
  return counts;
}

/// The greedy match over strings of any length, with the matched flags as
/// bits in 64-bit words. Both strings' words share a 64-byte stack buffer
/// (two 256-byte strings fill it); only longer pairs allocate.
JaroCounts JaroMatchFlags(std::string_view a, std::string_view b,
                          size_t window) {
  const size_t la = a.size();
  const size_t lb = b.size();
  const size_t words_a = (la + 63) / 64;
  const size_t words_b = (lb + 63) / 64;
  uint64_t stack_words[8];
  std::unique_ptr<uint64_t[]> heap_words;
  uint64_t* a_matched = stack_words;
  if (words_a + words_b > std::size(stack_words)) {
    heap_words = std::make_unique<uint64_t[]>(words_a + words_b);
    a_matched = heap_words.get();
  } else {
    std::fill(stack_words, stack_words + words_a + words_b, uint64_t{0});
  }
  uint64_t* b_matched = a_matched + words_a;
  auto test = [](const uint64_t* bits, size_t i) {
    return ((bits[i / 64] >> (i % 64)) & 1) != 0;
  };
  auto set = [](uint64_t* bits, size_t i) {
    bits[i / 64] |= uint64_t{1} << (i % 64);
  };
  JaroCounts counts;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(lb, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!test(b_matched, j) && a[i] == b[j]) {
        set(a_matched, i);
        set(b_matched, j);
        ++counts.matches;
        break;
      }
    }
  }
  size_t j = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!test(a_matched, i)) continue;
    while (!test(b_matched, j)) ++j;
    if (a[i] != b[j]) ++counts.transpositions;
    ++j;
  }
  return counts;
}

}  // namespace

double JaroSim(std::string_view a, std::string_view b) {
  const size_t la = a.size();
  const size_t lb = b.size();
  if (la == 0 && lb == 0) return 1.0;
  if (la == 0 || lb == 0) return 0.0;
  const size_t window =
      std::max<size_t>(1, std::max(la, lb) / 2) - 1;
  const JaroCounts counts = la <= 64 && lb <= 64
                                ? JaroMatchBits(a, b, window)
                                : JaroMatchFlags(a, b, window);
  if (counts.matches == 0) return 0.0;
  double m = static_cast<double>(counts.matches);
  return (m / la + m / lb + (m - counts.transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSim(std::string_view a, std::string_view b) {
  double jaro = JaroSim(a, b);
  size_t prefix = 0;
  size_t max_prefix = std::min<size_t>({4, a.size(), b.size()});
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

namespace {

/// Signature bucket of each byte: a-z one each (word tokens are lowercase
/// alphanumerics), digits two to a bucket in buckets 26-31, and any other
/// byte in bucket c & 31, which it shares with a letter or digit bucket.
constexpr std::array<uint8_t, 256> kSignatureBucket = [] {
  std::array<uint8_t, 256> bucket{};
  for (int c = 0; c < 256; ++c) bucket[c] = static_cast<uint8_t>(c & 31);
  for (int c = 'a'; c <= 'z'; ++c) bucket[c] = static_cast<uint8_t>(c - 'a');
  for (int c = '0'; c <= '9'; ++c) {
    bucket[c] = static_cast<uint8_t>(26 + (c - '0') % 6);
  }
  return bucket;
}();

/// Sum over buckets of the smaller count: at least the number of equal
/// bytes any match can pair up.
uint32_t SharedCount(const CharSignature& x, const CharSignature& y) {
  uint32_t shared = 0;
  for (size_t k = 0; k < std::size(x.counts); ++k) {
    shared += std::min(x.counts[k], y.counts[k]);
  }
  return shared;
}

std::vector<CharSignature> SignaturesOf(
    const std::vector<std::string>& tokens) {
  std::vector<CharSignature> sigs;
  sigs.reserve(tokens.size());
  for (const auto& t : tokens) sigs.push_back(SignatureOf(t));
  return sigs;
}

/// The slack a bound gets over the score it bounds before a score is
/// skipped on its account: far above the few ulps by which rounding can put
/// the bound under the score.
constexpr double kBoundSlack = 1e-9;

}  // namespace

CharSignature SignatureOf(std::string_view token) {
  CharSignature sig{};
  for (unsigned char c : token) {
    uint8_t& n = sig.counts[kSignatureBucket[c]];
    if (n < std::numeric_limits<uint8_t>::max()) ++n;
  }
  for (size_t k = 0; k < std::min<size_t>(4, token.size()); ++k) {
    sig.head |= uint32_t{static_cast<unsigned char>(token[k])} << (8 * k);
  }
  sig.size = static_cast<uint32_t>(std::min<size_t>(
      token.size(), std::numeric_limits<uint32_t>::max()));
  return sig;
}

double JaroWinklerBound(const CharSignature& x, const CharSignature& y) {
  const uint32_t shorter = std::min(x.size, y.size);
  if (shorter == 0) return 1.0;  // two empty tokens score 1.0
  // A count can saturate only in a token of more than 255 bytes.
  const uint32_t m =
      std::max(x.size, y.size) > std::numeric_limits<uint8_t>::max()
          ? shorter
          : SharedCount(x, y);
  const uint32_t differ = x.head ^ y.head;
  const uint32_t prefix = std::min<uint32_t>(
      {4, shorter,
       differ == 0 ? 4 : static_cast<uint32_t>(std::countr_zero(differ)) / 8});
  const double dm = static_cast<double>(m);
  const double jaro = (dm / x.size + dm / y.size + 1.0) / 3.0;
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

void TokenLists::Add(std::vector<std::string> tokens) {
  for (auto& t : tokens) {
    sigs_.push_back(SignatureOf(t));
    tokens_.push_back(std::move(t));
  }
  offsets_.push_back(static_cast<uint32_t>(tokens_.size()));
}

TokenListView TokenLists::operator[](size_t i) const {
  const size_t begin = offsets_[i];
  const size_t n = offsets_[i + 1] - begin;
  return {std::span<const std::string>(tokens_.data() + begin, n),
          std::span<const CharSignature>(sigs_.data() + begin, n)};
}

double MongeElkanSim(const TokenListView& x, const TokenListView& y) {
  if (x.tokens.empty() || y.tokens.empty()) {
    return x.tokens.empty() && y.tokens.empty() ? 1.0 : 0.0;
  }
  double total = 0.0;
  for (size_t i = 0; i < x.tokens.size(); ++i) {
    // Jaro-Winkler never exceeds 1.0, so a best of 1.0 ends the scan.
    double best = 0.0;
    for (size_t j = 0; j < y.tokens.size() && best < 1.0; ++j) {
      if (JaroWinklerBound(x.sigs[i], y.sigs[j]) + kBoundSlack <= best) {
        continue;
      }
      best = std::max(best, JaroWinklerSim(x.tokens[i], y.tokens[j]));
    }
    total += best;
  }
  return total / x.tokens.size();
}

double MongeElkanSim(const std::vector<std::string>& x,
                     const std::vector<std::string>& y) {
  const std::vector<CharSignature> sx = SignaturesOf(x);
  const std::vector<CharSignature> sy = SignaturesOf(y);
  return MongeElkanSim(TokenListView{x, sx}, TokenListView{y, sy});
}

double NeedlemanWunschSim(std::string_view a, std::string_view b) {
  const size_t la = a.size();
  const size_t lb = b.size();
  if (la == 0 && lb == 0) return 1.0;
  const double kMatch = 1.0;
  const double kMismatch = -1.0;
  const double kGap = -1.0;
  std::vector<double> prev(lb + 1);
  std::vector<double> cur(lb + 1);
  for (size_t j = 0; j <= lb; ++j) prev[j] = j * kGap;
  for (size_t i = 1; i <= la; ++i) {
    cur[0] = i * kGap;
    for (size_t j = 1; j <= lb; ++j) {
      double diag =
          prev[j - 1] + (a[i - 1] == b[j - 1] ? kMatch : kMismatch);
      cur[j] = std::max({diag, prev[j] + kGap, cur[j - 1] + kGap});
    }
    std::swap(prev, cur);
  }
  double max_len = static_cast<double>(std::max(la, lb));
  // Raw scores lie in [-max_len, max_len]; normalize to [0, 1].
  return (prev[lb] / max_len + 1.0) / 2.0;
}

namespace {

double SmithWatermanCore(std::string_view a, std::string_view b,
                         double gap_open, double gap_extend, bool affine) {
  const size_t la = a.size();
  const size_t lb = b.size();
  if (la == 0 || lb == 0) return la == 0 && lb == 0 ? 1.0 : 0.0;
  const double kMatch = 1.0;
  const double kMismatch = -1.0;
  const double kNegInf = -1e18;
  std::vector<double> h_prev(lb + 1, 0.0);
  std::vector<double> h_cur(lb + 1, 0.0);
  std::vector<double> f_prev(lb + 1, kNegInf);  // gap in b (vertical)
  std::vector<double> f_cur(lb + 1, kNegInf);
  double best = 0.0;
  for (size_t i = 1; i <= la; ++i) {
    h_cur[0] = 0.0;
    double e = kNegInf;  // gap in a (horizontal)
    for (size_t j = 1; j <= lb; ++j) {
      if (affine) {
        e = std::max(h_cur[j - 1] - gap_open, e - gap_extend);
        f_cur[j] = std::max(h_prev[j] - gap_open, f_prev[j] - gap_extend);
      } else {
        e = h_cur[j - 1] - gap_open;
        f_cur[j] = h_prev[j] - gap_open;
      }
      double diag =
          h_prev[j - 1] + (a[i - 1] == b[j - 1] ? kMatch : kMismatch);
      h_cur[j] = std::max({0.0, diag, e, f_cur[j]});
      best = std::max(best, h_cur[j]);
    }
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }
  return best / std::min(la, lb);
}

}  // namespace

double SmithWatermanSim(std::string_view a, std::string_view b) {
  return SmithWatermanCore(a, b, /*gap_open=*/1.0, /*gap_extend=*/1.0,
                           /*affine=*/false);
}

double SmithWatermanGotohSim(std::string_view a, std::string_view b) {
  return SmithWatermanCore(a, b, /*gap_open=*/1.0, /*gap_extend=*/0.5,
                           /*affine=*/true);
}

double ExactMatchSim(std::string_view a, std::string_view b) {
  a = Trim(a);
  b = Trim(b);
  if (a.size() != b.size()) return 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return 0.0;
    }
  }
  return 1.0;
}

double AbsDiff(double a, double b) { return std::fabs(a - b); }

double RelDiff(double a, double b) {
  double denom = std::max(std::fabs(a), std::fabs(b));
  if (denom == 0.0) return 0.0;
  return std::fabs(a - b) / denom;
}

void IdfDict::AddDocument(const std::vector<std::string>& token_set) {
  ++num_docs_;
  for (const auto& t : token_set) df_[t] += 1.0;
}

void IdfDict::Finalize() {
  for (auto& [token, df] : df_) {
    df = std::log(1.0 + static_cast<double>(num_docs_) / (1.0 + df));
  }
}

double IdfDict::Idf(const std::string& token) const {
  auto it = df_.find(token);
  if (it != df_.end()) return it->second;
  // Unseen token: max-rarity weight.
  return std::log(1.0 + static_cast<double>(num_docs_));
}

void TfIdfVectors::Add(const std::vector<std::string>& tokens,
                       const IdfDict& idf) {
  std::unordered_map<std::string, double> tf;
  for (const auto& t : tokens) tf[t] += 1.0;
  const size_t begin = tokens_.size();
  double sum_sq = 0.0;
  for (auto& [token, w] : tf) {
    w *= idf.Idf(token);
    sum_sq += w * w;
    tokens_.push_back(token);
    sigs_.push_back(SignatureOf(token));
    weights_.push_back(w);
  }
  const size_t n = tokens_.size() - begin;
  for (uint32_t i = 0; i < n; ++i) by_token_.push_back(i);
  std::sort(by_token_.end() - n, by_token_.end(),
            [&](uint32_t x, uint32_t y) {
              return tokens_[begin + x] < tokens_[begin + y];
            });
  offsets_.push_back(static_cast<uint32_t>(tokens_.size()));
  norms_.push_back(std::sqrt(sum_sq));
}

TfIdfView TfIdfVectors::operator[](size_t i) const {
  const size_t begin = offsets_[i];
  const size_t n = offsets_[i + 1] - begin;
  return {std::span<const std::string>(tokens_.data() + begin, n),
          std::span<const CharSignature>(sigs_.data() + begin, n),
          std::span<const double>(weights_.data() + begin, n),
          std::span<const uint32_t>(by_token_.data() + begin, n), norms_[i]};
}

namespace {

/// Weight of `token` in `v`, or nullptr if `v` does not hold it.
const double* FindWeight(const TfIdfView& v, const std::string& token) {
  auto it = std::lower_bound(
      v.by_token.begin(), v.by_token.end(), token,
      [&](uint32_t pos, const std::string& t) { return v.tokens[pos] < t; });
  if (it == v.by_token.end() || v.tokens[*it] != token) return nullptr;
  return &v.weights[*it];
}

}  // namespace

double TfIdfSim(const TfIdfView& x, const TfIdfView& y) {
  if (x.tokens.empty() || y.tokens.empty()) {
    return x.tokens.empty() && y.tokens.empty() ? 1.0 : 0.0;
  }
  double dot = 0.0;
  for (size_t i = 0; i < x.tokens.size(); ++i) {
    if (const double* wy = FindWeight(y, x.tokens[i])) {
      dot += x.weights[i] * *wy;
    }
  }
  double denom = x.norm * y.norm;
  return denom == 0.0 ? 0.0 : dot / denom;
}

double SoftTfIdfSim(const TfIdfView& x, const TfIdfView& y, double theta) {
  if (x.tokens.empty() || y.tokens.empty()) {
    return x.tokens.empty() && y.tokens.empty() ? 1.0 : 0.0;
  }
  if (x.norm == 0.0 || y.norm == 0.0) return 0.0;
  double score = 0.0;
  for (size_t i = 0; i < x.tokens.size(); ++i) {
    double best_sim = 0.0;
    double best_wy = 0.0;
    for (size_t j = 0; j < y.tokens.size(); ++j) {
      // A token whose score stays under theta, or cannot beat the running
      // max, can never be the first maximum that counts.
      const double bound =
          JaroWinklerBound(x.sigs[i], y.sigs[j]) + kBoundSlack;
      if (bound < theta || bound <= best_sim) continue;
      double s = JaroWinklerSim(x.tokens[i], y.tokens[j]);
      if (s > best_sim) {
        best_sim = s;
        best_wy = y.weights[j];
      }
    }
    if (best_sim >= theta) score += best_sim * x.weights[i] * best_wy;
  }
  return std::min(1.0, score / (x.norm * y.norm));
}

double TfIdfSim(const std::vector<std::string>& x,
                const std::vector<std::string>& y, const IdfDict& idf) {
  TfIdfVectors v;
  v.Add(x, idf);
  v.Add(y, idf);
  return TfIdfSim(v[0], v[1]);
}

double SoftTfIdfSim(const std::vector<std::string>& x,
                    const std::vector<std::string>& y, const IdfDict& idf,
                    double theta) {
  TfIdfVectors v;
  v.Add(x, idf);
  v.Add(y, idf);
  return SoftTfIdfSim(v[0], v[1], theta);
}

}  // namespace falcon
