// Prepared feature inputs (FeatureSet::Prepare) and the kernels they feed:
// prepared values must equal the unprepared string path bitwise, the
// bit-flag Jaro must equal the vector-flag algorithm it replaced, Soft
// TF/IDF's length cut must never change a score, and the matcher-only
// plan's gen_fvs(C) must leave every set-based view it computed over.
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
}

// --- (3) Soft TF/IDF's length cut never changes a score ----------------------

/// A token `len` bytes long drawn from a few letters, so that typo'd and
/// truncated variants still score high Jaro-Winkler against it.
std::string RandomToken(Rng* rng, size_t len) {
  std::string s(len, 'a');
  for (char& c : s) c = static_cast<char>('a' + rng->NextBelow(4));
  return s;
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

  // The cut at theta = 0.9 is 2 * min < max: a 4-letter prefix of an
  // 8-letter token still pairs (Jaro-Winkler reaches 0.9 exactly there),
  // and only a shorter one is cut.
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

// --- (4) the matcher-only plan leaves every set-based view -------------------

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
