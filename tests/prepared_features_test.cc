// Prepared feature inputs (FeatureSet::Prepare) and the kernels they feed:
// prepared values must equal the unprepared string path bitwise, both Jaro
// kernels must equal the vector-flag algorithm, the Jaro-Winkler bound must
// never change a Soft TF/IDF or Monge-Elkan score, the edit-distance kernels
// must equal full-matrix DPs, and the matcher-only plan's gen_fvs(C) must
// leave every set-based view it computed over.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/filters.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "rules/feature.h"
#include "text/similarity.h"
#include "text/tokenize.h"
#include "workload/generator.h"

namespace falcon {
namespace {

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// --- reference copies of the per-pair algorithms -----------------------------
//
// The Jaro flags and TF/IDF hash maps as they were computed per pair before
// inputs were prepared. Values are pinned to these, not to the library's own
// wrappers, which share their kernels with the prepared path.

double RefJaro(std::string_view a, std::string_view b) {
  const size_t la = a.size();
  const size_t lb = b.size();
  if (la == 0 && lb == 0) return 1.0;
  if (la == 0 || lb == 0) return 0.0;
  const size_t window = std::max<size_t>(1, std::max(la, lb) / 2) - 1;
  std::vector<char> a_matched(la, 0);
  std::vector<char> b_matched(lb, 0);
  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(lb, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = 1;
        b_matched[j] = 1;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

double RefJaroWinkler(std::string_view a, std::string_view b) {
  double jaro = RefJaro(a, b);
  size_t prefix = 0;
  size_t max_prefix = std::min<size_t>({4, a.size(), b.size()});
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

/// A plain max loop: every token pair scored.
double RefMongeElkan(const std::vector<std::string>& x,
                     const std::vector<std::string>& y) {
  if (x.empty() || y.empty()) return x.empty() && y.empty() ? 1.0 : 0.0;
  double total = 0.0;
  for (const auto& tx : x) {
    double best = 0.0;
    for (const auto& ty : y) best = std::max(best, RefJaroWinkler(tx, ty));
    total += best;
  }
  return total / x.size();
}

using RefVector = std::unordered_map<std::string, double>;

RefVector RefTfIdfVector(const std::vector<std::string>& tokens,
                         const IdfDict& idf) {
  RefVector tf;
  for (const auto& t : tokens) tf[t] += 1.0;
  for (auto& [token, w] : tf) w *= idf.Idf(token);
  return tf;
}

double RefNorm(const RefVector& v) {
  double s = 0.0;
  for (const auto& [t, w] : v) s += w * w;
  return std::sqrt(s);
}

double RefTfIdf(const std::vector<std::string>& x,
                const std::vector<std::string>& y, const IdfDict& idf) {
  if (x.empty() || y.empty()) return x.empty() && y.empty() ? 1.0 : 0.0;
  RefVector vx = RefTfIdfVector(x, idf);
  RefVector vy = RefTfIdfVector(y, idf);
  double dot = 0.0;
  for (const auto& [t, w] : vx) {
    auto it = vy.find(t);
    if (it != vy.end()) dot += w * it->second;
  }
  double denom = RefNorm(vx) * RefNorm(vy);
  return denom == 0.0 ? 0.0 : dot / denom;
}

/// Every token pair scored; no length cut.
double RefSoftTfIdf(const std::vector<std::string>& x,
                    const std::vector<std::string>& y, const IdfDict& idf,
                    double theta) {
  if (x.empty() || y.empty()) return x.empty() && y.empty() ? 1.0 : 0.0;
  RefVector vx = RefTfIdfVector(x, idf);
  RefVector vy = RefTfIdfVector(y, idf);
  double nx = RefNorm(vx);
  double ny = RefNorm(vy);
  if (nx == 0.0 || ny == 0.0) return 0.0;
  double score = 0.0;
  for (const auto& [tx, wx] : vx) {
    double best_sim = 0.0;
    double best_wy = 0.0;
    for (const auto& [ty, wy] : vy) {
      double s = RefJaroWinkler(tx, ty);
      if (s > best_sim) {
        best_sim = s;
        best_wy = wy;
      }
    }
    if (best_sim >= theta) score += best_sim * wx * best_wy;
  }
  return std::min(1.0, score / (nx * ny));
}

/// The IDF dictionary FeatureSet::Generate builds for `col` of `a`.
IdfDict IdfOver(const Table& a, int col, Tokenization tok) {
  IdfDict idf;
  for (RowId r = 0; r < a.num_rows(); ++r) {
    if (a.IsMissing(r, col)) continue;
    idf.AddDocument(ToTokenSet(Tokenize(a.Get(r, col), tok)));
  }
  idf.Finalize();
  return idf;
}

// --- (1) prepared Compute == unprepared string path --------------------------

GeneratedDataset SmallDataset(const std::string& name) {
  WorkloadOptions opt;
  opt.size_a = 20;
  opt.size_b = 25;
  opt.seed = 5;
  opt.missing_rate = 0.1;
  opt.dirtiness = 0.5;
  auto d = GenerateByName(name, opt);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return std::move(d).value();
}

TEST(PreparedFeaturesTest, ComputeBitwiseEqualsStringPathOnEveryPair) {
  size_t soft_tfidf = 0;
  size_t tfidf = 0;
  size_t monge_elkan = 0;
  size_t set_based = 0;
  size_t missing = 0;
  for (const char* name : {"products", "songs", "citations", "drugs"}) {
    SCOPED_TRACE(name);
    GeneratedDataset d = SmallDataset(name);
    const FeatureSet reference = FeatureSet::Generate(d.a, d.b);
    FeatureSet unbound = FeatureSet::Generate(d.a, d.b);
    unbound.Prepare(unbound.all_ids(), d.a, d.b);
    FeatureSet bound = FeatureSet::Generate(d.a, d.b);
    IndexCatalog catalog;
    bound.BindTokenStores(catalog.mutable_store(&d.a),
                          catalog.mutable_store(&d.b));
    bound.Prepare(bound.all_ids(), d.a, d.b);
    // Idempotent: a second call keeps what the first built.
    bound.Prepare(bound.all_ids(), d.a, d.b);

    for (const Feature& f : reference.features()) {
      SCOPED_TRACE(f.name);
      const TokenSetView* va = nullptr;
      const TokenSetView* vb = nullptr;
      EXPECT_EQ(bound.TokenViews(f.id, d.a, d.b, &va, &vb), IsSetBased(f.fn));
      EXPECT_FALSE(unbound.TokenViews(f.id, d.a, d.b, &va, &vb));
      set_based += IsSetBased(f.fn);
      monge_elkan += f.fn == SimFunction::kMongeElkan;
      tfidf += f.fn == SimFunction::kTfIdf;
      soft_tfidf += f.fn == SimFunction::kSoftTfIdf;
      const bool weighted = f.fn == SimFunction::kTfIdf ||
                            f.fn == SimFunction::kSoftTfIdf;
      IdfDict idf;
      if (weighted) idf = IdfOver(d.a, f.col_a, f.tok);
      for (RowId ra = 0; ra < d.a.num_rows(); ++ra) {
        for (RowId rb = 0; rb < d.b.num_rows(); ++rb) {
          const double want = reference.Compute(f.id, d.a, ra, d.b, rb);
          const double got_unbound = unbound.Compute(f.id, d.a, ra, d.b, rb);
          const double got_bound = bound.Compute(f.id, d.a, ra, d.b, rb);
          ASSERT_TRUE(SameBits(got_unbound, want))
              << "a=" << ra << " b=" << rb << " prepared=" << got_unbound
              << " string=" << want;
          ASSERT_TRUE(SameBits(got_bound, want))
              << "a=" << ra << " b=" << rb << " prepared+bound=" << got_bound
              << " string=" << want;
          if (std::isnan(want)) {
            ++missing;
            continue;
          }
          if (weighted) {
            std::vector<std::string> x = Tokenize(d.a.Get(ra, f.col_a), f.tok);
            std::vector<std::string> y = Tokenize(d.b.Get(rb, f.col_b), f.tok);
            const double ref = f.fn == SimFunction::kTfIdf
                                   ? RefTfIdf(x, y, idf)
                                   : RefSoftTfIdf(x, y, idf, 0.9);
            ASSERT_TRUE(SameBits(want, ref))
                << "a=" << ra << " b=" << rb << " got=" << want
                << " per-pair hash maps=" << ref;
          }
        }
      }
    }
  }
  // Every prepared kind, and missing values, were exercised.
  EXPECT_GT(soft_tfidf, 0u);
  EXPECT_GT(tfidf, 0u);
  EXPECT_GT(monge_elkan, 0u);
  EXPECT_GT(set_based, 0u);
  EXPECT_GT(missing, 0u);
}

// --- (2) bit-flag Jaro == vector-flag Jaro -----------------------------------

std::string RandomBytes(Rng* rng, size_t len) {
  // A small alphabet gives many matches and transpositions; the high bytes
  // are chars >= 0x80, negative where char is signed.
  static const char kAlphabet[] = {'a', 'b', 'c', 'd', 'e',
                                   static_cast<char>(0x80),
                                   static_cast<char>(0xC3),
                                   static_cast<char>(0xFF)};
  std::string s(len, 'a');
  for (char& c : s) c = kAlphabet[rng->NextBelow(sizeof(kAlphabet))];
  return s;
}

TEST(PreparedFeaturesTest, JaroBitFlagsMatchVectorFlagReference) {
  Rng rng(2024);
  std::vector<size_t> lengths = {0, 1, 2, 3, 31, 32, 33, 63, 64, 65,
                                 127, 128, 129, 191, 192, 193, 200, 255,
                                 256, 257, 300, 517};
  for (int i = 0; i < 40; ++i) lengths.push_back(rng.NextBelow(201));
  size_t compared = 0;
  for (size_t la : lengths) {
    for (size_t lb : lengths) {
      std::string a = RandomBytes(&rng, la);
      std::string b = RandomBytes(&rng, lb);
      // A shared prefix makes Jaro-Winkler's prefix bonus count.
      if (la >= 4 && lb >= 4 && rng.NextBelow(2) == 0) {
        b.replace(0, 4, a.substr(0, 4));
      }
      ASSERT_TRUE(SameBits(JaroSim(a, b), RefJaro(a, b)))
          << "|a|=" << la << " |b|=" << lb;
      ASSERT_TRUE(SameBits(JaroWinklerSim(a, b), RefJaroWinkler(a, b)))
          << "|a|=" << la << " |b|=" << lb;
      ++compared;
    }
  }
  EXPECT_EQ(compared, lengths.size() * lengths.size());

  // Every byte value, at lengths around the bit-parallel kernel's 64-byte
  // edge. a runs through a shuffled permutation of the 256 values; b is a
  // with bytes swapped within the window, replaced, dropped or appended, so
  // matches sit at every window offset.
  std::vector<char> bytes(256);
  for (int v = 0; v < 256; ++v) bytes[v] = static_cast<char>(v);
  rng.Shuffle(&bytes);
  size_t edge_pairs = 0;
  for (size_t start = 0; start < 256; start += 64) {
    for (size_t la = 60; la <= 68; ++la) {
      std::string a;
      for (size_t k = 0; k < la; ++k) a.push_back(bytes[(start + k) % 256]);
      for (size_t lb = 60; lb <= 68; ++lb) {
        std::string b = a;
        for (int e = 0; e < 6; ++e) {
          const size_t i = rng.NextBelow(b.size());
          const size_t j = std::min(b.size() - 1, i + rng.NextBelow(8));
          std::swap(b[i], b[j]);
        }
        b[rng.NextBelow(b.size())] = static_cast<char>(rng.NextBelow(256));
        while (b.size() > lb) b.erase(rng.NextBelow(b.size()), 1);
        while (b.size() < lb) b.push_back(bytes[rng.NextBelow(256)]);
        for (const auto& [x, y] : {std::pair(a, b), std::pair(b, a)}) {
          ASSERT_TRUE(SameBits(JaroSim(x, y), RefJaro(x, y)))
              << "|x|=" << x.size() << " |y|=" << y.size();
          ASSERT_TRUE(SameBits(JaroWinklerSim(x, y), RefJaroWinkler(x, y)))
              << "|x|=" << x.size() << " |y|=" << y.size();
          ++edge_pairs;
        }
      }
    }
  }
  EXPECT_EQ(edge_pairs, 4u * 9 * 9 * 2);
}

// --- (3) Soft TF/IDF's bound never changes a score ---------------------------

/// A token `len` bytes long drawn from a few letters, so that typo'd and
/// truncated variants still score high Jaro-Winkler against it.
std::string RandomToken(Rng* rng, size_t len) {
  std::string s(len, 'a');
  for (char& c : s) c = static_cast<char>('a' + rng->NextBelow(4));
  return s;
}

/// Tokens that stress the Jaro-Winkler bound: exact repeats, anagrams (one
/// signature, lower scores), bytes >= 0x80 that share a signature bucket
/// with each other and with 'a', tokens at the bit-parallel kernel's 64-byte
/// edge and past 255 bytes, where a count could saturate, and a character
/// repeated more than 255 times, where one does.
std::vector<std::string> AdversarialTokens(Rng* rng) {
  std::vector<std::string> tokens = {
      "listen", "silent", "enlist", "tinsel", "inlets", "listens",
      "abcd", "abcdabcd", "dcba", "bacd", "abdc",
      "\x80\xa0\xc0\xe0", "\xe0\xc0\xa0\x80", "a\x80\xa0", "aaa",
      "\x80\x80\x80",
      std::string(300, 'a'), std::string(299, 'a') + "b",
      std::string(256, 'a'), std::string(255, 'a')};
  for (size_t len : {63, 64, 65, 300}) {
    const std::string base = RandomToken(rng, len);
    std::string anagram = base;
    for (size_t i = anagram.size() - 1; i > 0; --i) {
      std::swap(anagram[i], anagram[rng->NextBelow(i + 1)]);
    }
    tokens.push_back(base);
    tokens.push_back(ApplyTypo(base, rng));
    tokens.push_back(anagram);
    tokens.push_back(base.substr(1) + base[0]);
    tokens.push_back("zz" + base.substr(2));
  }
  return tokens;
}

TEST(PreparedFeaturesTest, SoftTfIdfPruningMatchesUnprunedLoop) {
  Rng rng(77);
  // Documents: a base token list and a variant with typos, prefixes cut to
  // about half length or stretched to about double, and repeated tokens.
  std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
      docs;
  for (int d = 0; d < 300; ++d) {
    std::vector<std::string> x;
    std::vector<std::string> y;
    const size_t n = 1 + rng.NextBelow(6);
    for (size_t i = 0; i < n; ++i) {
      const size_t len = 2 + rng.NextBelow(15);
      std::string t = RandomToken(&rng, len);
      x.push_back(t);
      switch (rng.NextBelow(6)) {
        case 0:
          y.push_back(ApplyTypo(t, &rng));
          break;
        case 1: {  // half length, +-1
          size_t cut = std::max<size_t>(1, len / 2 + rng.NextBelow(3) - 1);
          y.push_back(t.substr(0, std::min(cut, len)));
          break;
        }
        case 2:  // double length, +-1
          y.push_back(t + RandomToken(&rng, len + rng.NextBelow(3) - 1));
          break;
        case 3:  // repeated
          y.push_back(t);
          y.push_back(t);
          x.push_back(t);
          break;
        case 4:
          y.push_back(RandomToken(&rng, 2 + rng.NextBelow(15)));
          break;
        default:
          y.push_back(t);
          break;
      }
    }
    docs.emplace_back(std::move(x), std::move(y));
  }
  // Adversarial documents: adversarial tokens against themselves and each
  // other.
  const std::vector<std::string> pool = AdversarialTokens(&rng);
  for (int d = 0; d < 60; ++d) {
    std::vector<std::string> x;
    std::vector<std::string> y;
    const size_t n = 1 + rng.NextBelow(5);
    for (size_t i = 0; i < n; ++i) {
      const std::string& t = pool[rng.NextBelow(pool.size())];
      x.push_back(t);
      y.push_back(rng.NextBelow(2) == 0 ? t : pool[rng.NextBelow(pool.size())]);
    }
    docs.emplace_back(std::move(x), std::move(y));
  }
  IdfDict idf;
  for (size_t d = 0; d < docs.size(); d += 2) {
    idf.AddDocument(ToTokenSet(docs[d].first));
  }
  idf.Finalize();

  size_t nonzero = 0;
  for (double theta : {0.5, 0.8, 0.85, 0.9, 0.95, 1.0}) {
    SCOPED_TRACE(theta);
    for (size_t d = 0; d < docs.size(); ++d) {
      const auto& [x, y] = docs[d];
      const auto& other = docs[(d + 1) % docs.size()].second;
      for (const auto* rhs : {&y, &other}) {
        const double want = RefSoftTfIdf(x, *rhs, idf, theta);
        const double got = SoftTfIdfSim(x, *rhs, idf, theta);
        ASSERT_TRUE(SameBits(got, want))
            << "doc " << d << ": pruned=" << got << " unpruned=" << want;
        nonzero += want > 0.0;
      }
    }
  }
  EXPECT_GT(nonzero, docs.size());

  // A prefix's bound reduces to a length cut, at theta = 0.9 2 * min < max:
  // a 4-letter prefix of an 8-letter token still pairs (bound and
  // Jaro-Winkler both reach 0.9 exactly there), and only a shorter one is
  // cut.
  IdfDict one;
  one.AddDocument({"abcd"});
  one.Finalize();
  const double at_half = SoftTfIdfSim({"abcd"}, {"abcdefgh"}, one, 0.9);
  EXPECT_GT(at_half, 0.0);
  EXPECT_TRUE(SameBits(at_half,
                       RefSoftTfIdf({"abcd"}, {"abcdefgh"}, one, 0.9)));
  EXPECT_TRUE(SameBits(SoftTfIdfSim({"abcd"}, {"abcdefghi"}, one, 0.9),
                       RefSoftTfIdf({"abcd"}, {"abcdefghi"}, one, 0.9)));
}

// --- (4) Monge-Elkan's bound never changes a score --------------------------

TEST(PreparedFeaturesTest, MongeElkanMatchesPlainMaxLoop) {
  Rng rng(91);
  std::vector<std::string> pool = AdversarialTokens(&rng);
  // Near-duplicates with shared prefixes, so a running max often sits just
  // under a later token's score.
  for (int k = 0; k < 12; ++k) {
    const std::string base = RandomToken(&rng, 4 + rng.NextBelow(9));
    pool.push_back(base);
    pool.push_back(ApplyTypo(base, &rng));
    pool.push_back(base + RandomToken(&rng, 1 + rng.NextBelow(3)));
  }
  // The bound holds on every token pair (with the kernels' 1e-9 slack for
  // rounding).
  for (const auto& tx : pool) {
    for (const auto& ty : pool) {
      ASSERT_GE(JaroWinklerBound(SignatureOf(tx), SignatureOf(ty)) + 1e-9,
                RefJaroWinkler(tx, ty))
          << "|x|=" << tx.size() << " |y|=" << ty.size();
    }
  }
  // And for every byte value, so a byte whose bucket count is lost shows:
  // a token holding it three times bounds its own score of 1.0 and its
  // reverse's.
  for (int v = 0; v < 256; ++v) {
    const std::string t = "q" + std::string(3, static_cast<char>(v)) + "z";
    const std::string reversed(t.rbegin(), t.rend());
    for (const auto& ty : {t, reversed}) {
      ASSERT_GE(JaroWinklerBound(SignatureOf(t), SignatureOf(ty)) + 1e-9,
                RefJaroWinkler(t, ty))
          << "byte " << v;
    }
  }

  std::vector<std::vector<std::string>> lists = {{}};
  for (int l = 0; l < 40; ++l) {
    std::vector<std::string> list;
    const size_t n = 1 + rng.NextBelow(6);
    for (size_t k = 0; k < n; ++k) {
      list.push_back(pool[rng.NextBelow(pool.size())]);
    }
    if (rng.NextBelow(3) == 0) list.push_back(list.front());
    lists.push_back(std::move(list));
  }
  TokenLists prepared;
  for (const auto& list : lists) prepared.Add(list);
  size_t partial = 0;
  for (size_t i = 0; i < lists.size(); ++i) {
    for (size_t j = 0; j < lists.size(); ++j) {
      const double want = RefMongeElkan(lists[i], lists[j]);
      ASSERT_TRUE(SameBits(MongeElkanSim(lists[i], lists[j]), want))
          << "lists " << i << ", " << j << ": got "
          << MongeElkanSim(lists[i], lists[j]) << " plain loop " << want;
      ASSERT_TRUE(SameBits(MongeElkanSim(prepared[i], prepared[j]), want))
          << "prepared lists " << i << ", " << j;
      partial += want > 0.0 && want < 1.0;
    }
  }
  EXPECT_GT(partial, lists.size() * lists.size() / 2);
}

// --- (5) edit-distance kernels == full-matrix DPs ---------------------------

size_t RefLevenshtein(std::string_view a, std::string_view b) {
  std::vector<std::vector<size_t>> d(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1])});
    }
  }
  return d[a.size()][b.size()];
}

/// Smith-Waterman over full H, E (gap in a) and F (gap in b) matrices;
/// linear gaps cost gap_open each.
double RefSmithWaterman(std::string_view a, std::string_view b,
                        double gap_open, double gap_extend, bool affine) {
  if (a.empty() || b.empty()) return a.empty() && b.empty() ? 1.0 : 0.0;
  const double kNegInf = -1e18;
  using Matrix = std::vector<std::vector<double>>;
  Matrix h(a.size() + 1, std::vector<double>(b.size() + 1, 0.0));
  Matrix e(a.size() + 1, std::vector<double>(b.size() + 1, kNegInf));
  Matrix f(a.size() + 1, std::vector<double>(b.size() + 1, kNegInf));
  double best = 0.0;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      e[i][j] = affine ? std::max(h[i][j - 1] - gap_open,
                                  e[i][j - 1] - gap_extend)
                       : h[i][j - 1] - gap_open;
      f[i][j] = affine ? std::max(h[i - 1][j] - gap_open,
                                  f[i - 1][j] - gap_extend)
                       : h[i - 1][j] - gap_open;
      const double diag = h[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 1.0 : -1.0);
      h[i][j] = std::max({0.0, diag, e[i][j], f[i][j]});
      best = std::max(best, h[i][j]);
    }
  }
  return best / std::min(a.size(), b.size());
}

TEST(PreparedFeaturesTest, LevenshteinAndSmithWatermanMatchFullMatrixDp) {
  Rng rng(4242);
  // Empty, short and long strings, in every pairing.
  const std::vector<size_t> lengths = {0, 1, 7, 64, 200, 255, 256, 257, 300};
  for (size_t la : lengths) {
    for (size_t lb : lengths) {
      const std::string a = RandomToken(&rng, la);
      // b is a with substitutions, cut or extended to lb.
      std::string b = a;
      for (size_t k = 0; k < b.size() / 8; ++k) {
        b[rng.NextBelow(b.size())] = static_cast<char>('a' + rng.NextBelow(4));
      }
      b.resize(std::min(b.size(), lb));
      b += RandomToken(&rng, lb - b.size());
      ASSERT_EQ(LevenshteinDistance(a, b), RefLevenshtein(a, b))
          << "|a|=" << la << " |b|=" << lb;
      ASSERT_TRUE(SameBits(SmithWatermanSim(a, b),
                           RefSmithWaterman(a, b, 1.0, 1.0, false)))
          << "|a|=" << la << " |b|=" << lb;
      ASSERT_TRUE(SameBits(SmithWatermanGotohSim(a, b),
                           RefSmithWaterman(a, b, 1.0, 0.5, true)))
          << "|a|=" << la << " |b|=" << lb;
    }
  }
}

// --- (6) the matcher-only plan leaves every set-based view -------------------

TEST(PreparedFeaturesTest, MatcherOnlyGenFvsBuildsEverySetView) {
  WorkloadOptions opt;
  opt.size_a = 30;
  opt.size_b = 60;
  opt.seed = 11;
  GeneratedDataset d = GenerateProducts(opt);
  ClusterConfig cc;
  cc.job_startup = VDuration::Seconds(0.5);
  cc.task_overhead = VDuration::Seconds(0.01);
  Cluster cluster(cc);
  SimulatedCrowdConfig ccfg;
  ccfg.error_rate = 0.0;
  SimulatedCrowd crowd(ccfg, d.truth.MakeOracle());
  FalconConfig cfg;
  cfg.matcher_only_max_bytes = size_t{1} << 30;
  FalconPipeline pipeline(&d.a, &d.b, &crowd, &cluster, cfg);
  ASSERT_FALSE(pipeline.NeedsBlocking());
  ASSERT_TRUE(pipeline.Start().ok());
  ASSERT_EQ(pipeline.state().next, PipelineStage::kGenFvsCand);

  const FeatureSet& fs = pipeline.features();
  auto has_views = [&](const Feature& f) {
    const TokenSetView* va = nullptr;
    const TokenSetView* vb = nullptr;
    return fs.TokenViews(f.id, d.a, d.b, &va, &vb);
  };
  size_t set_based = 0;
  for (const Feature& f : fs.features()) {
    EXPECT_FALSE(has_views(f)) << f.name << " before gen_fvs(C)";
  }
  ASSERT_TRUE(pipeline.Step().ok());
  ASSERT_EQ(pipeline.state().next, PipelineStage::kMatcherAl);
  for (const Feature& f : fs.features()) {
    EXPECT_EQ(has_views(f), IsSetBased(f.fn)) << f.name;
    set_based += IsSetBased(f.fn);
  }
  EXPECT_GT(set_based, 0u);
}

}  // namespace
}  // namespace falcon
