// Microbenchmarks: similarity functions and tokenizers (google-benchmark).
// The custom main() first writes BENCH_micro_similarity.json with a direct
// string-path vs TokenId-path comparison, the intersection kernel lanes and
// the Jaro-Winkler kernel lanes, then runs google-benchmark.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <benchmark/benchmark.h>

#include "harness.h"

#include "common/counters.h"
#include "common/rng.h"
#include "text/intersect.h"
#include "text/similarity.h"
#include "text/token_dictionary.h"
#include "text/tokenize.h"
#include "workload/generator.h"

namespace falcon {
namespace {

std::string RandomPhrase(Rng* rng, const Vocabulary& vocab, int words) {
  std::string s;
  for (int i = 0; i < words; ++i) {
    if (i) s += ' ';
    s += vocab.SampleZipf(rng);
  }
  return s;
}

struct Corpus {
  std::vector<std::string> phrases;
  std::vector<std::vector<std::string>> word_sets;
  std::vector<std::vector<std::string>> gram_sets;
  /// The same sets, interned: sorted-unique TokenId arrays over one dict.
  TokenDictionary dict;
  std::vector<std::vector<TokenId>> word_id_sets;
  std::vector<std::vector<TokenId>> gram_id_sets;

  Corpus() {
    Rng rng(7);
    Vocabulary vocab(2000, 3);
    for (int i = 0; i < 256; ++i) {
      phrases.push_back(RandomPhrase(&rng, vocab, 3 + i % 8));
      word_sets.push_back(ToTokenSet(WordTokens(phrases.back())));
      gram_sets.push_back(ToTokenSet(QGramTokens(phrases.back(), 3)));
      word_id_sets.push_back(InternSet(word_sets.back()));
      gram_id_sets.push_back(InternSet(gram_sets.back()));
    }
  }

  std::vector<TokenId> InternSet(const std::vector<std::string>& tokens) {
    std::vector<TokenId> ids;
    ids.reserve(tokens.size());
    for (const auto& t : tokens) ids.push_back(dict.Intern(t));
    std::sort(ids.begin(), ids.end());
    return ids;
  }
};

const Corpus& GetCorpus() {
  static Corpus* corpus = new Corpus();
  return *corpus;
}

void BM_WordTokenize(benchmark::State& state) {
  const auto& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(WordTokens(c.phrases[i++ % c.phrases.size()]));
  }
}
BENCHMARK(BM_WordTokenize);

void BM_QGramTokenize(benchmark::State& state) {
  const auto& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        QGramTokens(c.phrases[i++ % c.phrases.size()], 3));
  }
}
BENCHMARK(BM_QGramTokenize);

template <double (*F)(const std::vector<std::string>&,
                      const std::vector<std::string>&)>
void BM_SetSimWord(benchmark::State& state) {
  const auto& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    const auto& x = c.word_sets[i % c.word_sets.size()];
    const auto& y = c.word_sets[(i * 7 + 3) % c.word_sets.size()];
    benchmark::DoNotOptimize(F(x, y));
    ++i;
  }
}
BENCHMARK(BM_SetSimWord<&JaccardSim>)->Name("BM_Jaccard_word");
BENCHMARK(BM_SetSimWord<&DiceSim>)->Name("BM_Dice_word");
BENCHMARK(BM_SetSimWord<&OverlapSim>)->Name("BM_Overlap_word");
BENCHMARK(BM_SetSimWord<&CosineSim>)->Name("BM_Cosine_word");

template <double (*F)(std::span<const TokenId>, std::span<const TokenId>)>
void BM_SetSimWordIds(benchmark::State& state) {
  const auto& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    const auto& x = c.word_id_sets[i % c.word_id_sets.size()];
    const auto& y = c.word_id_sets[(i * 7 + 3) % c.word_id_sets.size()];
    benchmark::DoNotOptimize(F(x, y));
    ++i;
  }
}
BENCHMARK(BM_SetSimWordIds<&JaccardSim>)->Name("BM_Jaccard_word_ids");
BENCHMARK(BM_SetSimWordIds<&DiceSim>)->Name("BM_Dice_word_ids");
BENCHMARK(BM_SetSimWordIds<&OverlapSim>)->Name("BM_Overlap_word_ids");
BENCHMARK(BM_SetSimWordIds<&CosineSim>)->Name("BM_Cosine_word_ids");

void BM_Jaccard3gram(benchmark::State& state) {
  const auto& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    const auto& x = c.gram_sets[i % c.gram_sets.size()];
    const auto& y = c.gram_sets[(i * 7 + 3) % c.gram_sets.size()];
    benchmark::DoNotOptimize(JaccardSim(x, y));
    ++i;
  }
}
BENCHMARK(BM_Jaccard3gram);

void BM_Jaccard3gramIds(benchmark::State& state) {
  const auto& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    const auto& x = c.gram_id_sets[i % c.gram_id_sets.size()];
    const auto& y = c.gram_id_sets[(i * 7 + 3) % c.gram_id_sets.size()];
    benchmark::DoNotOptimize(
        JaccardSim(std::span<const TokenId>(x), std::span<const TokenId>(y)));
    ++i;
  }
}
BENCHMARK(BM_Jaccard3gramIds)->Name("BM_Jaccard3gram_ids");

void BM_Levenshtein(benchmark::State& state) {
  const auto& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LevenshteinSim(c.phrases[i % c.phrases.size()],
                       c.phrases[(i * 7 + 3) % c.phrases.size()]));
    ++i;
  }
}
BENCHMARK(BM_Levenshtein);

void BM_JaroWinkler(benchmark::State& state) {
  const auto& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JaroWinklerSim(c.phrases[i % c.phrases.size()],
                       c.phrases[(i * 7 + 3) % c.phrases.size()]));
    ++i;
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_MongeElkan(benchmark::State& state) {
  const auto& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    const auto& x = c.word_sets[i % c.word_sets.size()];
    const auto& y = c.word_sets[(i * 7 + 3) % c.word_sets.size()];
    benchmark::DoNotOptimize(MongeElkanSim(x, y));
    ++i;
  }
}
BENCHMARK(BM_MongeElkan);

void BM_SmithWatermanGotoh(benchmark::State& state) {
  const auto& c = GetCorpus();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SmithWatermanGotohSim(c.phrases[i % c.phrases.size()],
                              c.phrases[(i * 7 + 3) % c.phrases.size()]));
    ++i;
  }
}
BENCHMARK(BM_SmithWatermanGotoh);

void BM_TfIdf(benchmark::State& state) {
  const auto& c = GetCorpus();
  static IdfDict* idf = [] {
    auto* d = new IdfDict();
    for (const auto& s : GetCorpus().word_sets) d->AddDocument(s);
    d->Finalize();
    return d;
  }();
  size_t i = 0;
  for (auto _ : state) {
    const auto& x = c.word_sets[i % c.word_sets.size()];
    const auto& y = c.word_sets[(i * 7 + 3) % c.word_sets.size()];
    benchmark::DoNotOptimize(TfIdfSim(x, y, *idf));
    ++i;
  }
}
BENCHMARK(BM_TfIdf);

/// Measures ns/op of one string-path and one id-path set-similarity sweep
/// over the same pair sequence and records both plus the speedup.
template <typename StringFn, typename IdFn>
void CompareSetSim(bench::BenchReport* report, const std::string& key,
                   const std::vector<std::vector<std::string>>& str_sets,
                   const std::vector<std::vector<TokenId>>& id_sets,
                   StringFn sf, IdFn idf, size_t iters) {
  using Clock = std::chrono::steady_clock;
  double sink = 0.0;
  auto t0 = Clock::now();
  for (size_t i = 0; i < iters; ++i) {
    sink += sf(str_sets[i % str_sets.size()],
               str_sets[(i * 7 + 3) % str_sets.size()]);
  }
  auto t1 = Clock::now();
  for (size_t i = 0; i < iters; ++i) {
    sink += idf(id_sets[i % id_sets.size()],
                id_sets[(i * 7 + 3) % id_sets.size()]);
  }
  auto t2 = Clock::now();
  benchmark::DoNotOptimize(sink);
  double string_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(iters);
  double id_ns = std::chrono::duration<double, std::nano>(t2 - t1).count() /
                 static_cast<double>(iters);
  report->Add(key + "/string_ns_per_op", string_ns);
  report->Add(key + "/id_ns_per_op", id_ns);
  report->Add(key + "/speedup", id_ns > 0.0 ? string_ns / id_ns : 0.0);
}

/// Sorted unique ids, deterministic per (seed, size), from a universe sized
/// for partial overlap between independently drawn sets.
std::vector<TokenId> RandomIdSet(uint64_t seed, size_t size,
                                 uint32_t universe) {
  Rng rng(seed);
  std::vector<TokenId> v;
  while (v.size() < size) {
    const size_t need = size - v.size();
    for (size_t i = 0; i < need; ++i) {
      v.push_back(static_cast<TokenId>(rng.NextBelow(universe)));
    }
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return v;
}

/// Adaptive-vs-scalar-merge comparison over one synthetic shape regime. Both
/// sweeps run the SAME pair sequence — first through intersect::ScalarMerge
/// (the pre-adaptive baseline), then through the adaptive
/// SortedIntersectionSize — and the summed counts must match exactly or the
/// process exits: a wrong kernel must fail the bench, not ship a speedup.
/// Records ns/op for both, the speedup, and which strategy counters the
/// adaptive sweep moved on this thread.
void CompareIntersectLane(bench::BenchReport* report, const std::string& key,
                          size_t na, size_t nb, size_t iters) {
  using Clock = std::chrono::steady_clock;
  constexpr size_t kPairs = 64;
  const uint32_t universe = static_cast<uint32_t>((na + nb) * 2);
  std::vector<std::vector<TokenId>> xs, ys;
  for (size_t p = 0; p < kPairs; ++p) {
    xs.push_back(RandomIdSet(1000 + p, na, universe));
    ys.push_back(RandomIdSet(2000 + p, nb, universe));
  }

  size_t sum_scalar = 0;
  auto t0 = Clock::now();
  for (size_t i = 0; i < iters; ++i) {
    sum_scalar += intersect::ScalarMerge(xs[i % kPairs],
                                         ys[(i * 7 + 3) % kPairs]);
  }
  auto t1 = Clock::now();

  size_t sum_adaptive = 0;
  const CounterSet before = ThreadCounters();
  auto t2 = Clock::now();
  for (size_t i = 0; i < iters; ++i) {
    sum_adaptive += SortedIntersectionSize(
        std::span<const TokenId>(xs[i % kPairs]),
        std::span<const TokenId>(ys[(i * 7 + 3) % kPairs]));
  }
  auto t3 = Clock::now();
  const CounterSet delta = ThreadCounters() - before;

  if (sum_scalar != sum_adaptive) {
    fprintf(stderr,
            "FATAL: %s adaptive intersection diverged from scalar merge: "
            "%zu vs %zu\n",
            key.c_str(), sum_adaptive, sum_scalar);
    exit(1);
  }
  const double scalar_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(iters);
  const double adaptive_ns =
      std::chrono::duration<double, std::nano>(t3 - t2).count() /
      static_cast<double>(iters);
  report->Add(key + "/scalar_ns_per_op", scalar_ns);
  report->Add(key + "/adaptive_ns_per_op", adaptive_ns);
  report->Add(key + "/speedup", adaptive_ns > 0.0 ? scalar_ns / adaptive_ns
                                                  : 0.0);
  report->Add(key + "/intersect_small",
              static_cast<int64_t>(delta[Counter::kIntersectSmall]));
  report->Add(key + "/intersect_gallop",
              static_cast<int64_t>(delta[Counter::kIntersectGallop]));
  report->Add(key + "/intersect_simd",
              static_cast<int64_t>(delta[Counter::kIntersectSimd]));
  report->Add(key + "/intersect_scalar",
              static_cast<int64_t>(delta[Counter::kIntersectScalar]));
  printf("%-20s scalar %7.2f ns  adaptive %7.2f ns  speedup %5.2fx\n",
         key.c_str(), scalar_ns, adaptive_ns,
         adaptive_ns > 0.0 ? scalar_ns / adaptive_ns : 0.0);
}

/// The shape regimes of the adaptive kernel, one lane each: tiny (branchless
/// merge), balanced (SIMD block compare), 16:1 lopsided (also SIMD — it
/// streams the long side 8 ids per compare, far past the merge), and 64:1
/// needle-in-haystack (galloping — the posting-list probe regime).
void WriteIntersectLanes(bench::BenchReport* report, size_t iters) {
  report->Add("simd_kernel", std::string(SimdIntersectKernelName()));
  CompareIntersectLane(report, "intersect_tiny", 4, 4, iters);
  CompareIntersectLane(report, "intersect_balanced", 64, 64, iters);
  CompareIntersectLane(report, "intersect_lopsided", 64, 1024,
                       std::max<size_t>(iters / 8, 1));
  CompareIntersectLane(report, "intersect_needle", 16, 1024,
                       std::max<size_t>(iters / 8, 1));
}

/// Times `op(i)` for i in [0, iters) and records `key/ns_per_op` and
/// `key/fingerprint`, a hash of the values' bits cut to 53 bits so that any
/// JSON reader keeps it exact. Two builds that compute the same values
/// record the same fingerprint.
template <typename Op>
void KernelLane(bench::BenchReport* report, const std::string& key,
                size_t iters, Op op) {
  using Clock = std::chrono::steady_clock;
  uint64_t fingerprint = 14695981039346656037ull;  // FNV-1a, one word a step
  auto t0 = Clock::now();
  for (size_t i = 0; i < iters; ++i) {
    const double v = op(i);
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    fingerprint = (fingerprint ^ bits) * 1099511628211ull;
  }
  auto t1 = Clock::now();
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                    static_cast<double>(iters);
  report->Add(key + "/ns_per_op", ns);
  report->Add(key + "/fingerprint",
              static_cast<int64_t>(fingerprint & ((uint64_t{1} << 53) - 1)));
  printf("%-20s %9.2f ns/op\n", key.c_str(), ns);
}

/// The Jaro-Winkler kernels of the matcher features, over the corpus' pair
/// sequence: Jaro-Winkler on word pairs, Monge-Elkan on word lists and Soft
/// TF/IDF at theta 0.9 on prepared TF/IDF vectors. The list lanes run a
/// tenth of the iterations.
void WriteKernelLanes(bench::BenchReport* report, size_t iters) {
  const Corpus& c = GetCorpus();
  std::vector<std::vector<std::string>> lists;
  std::vector<std::string> words;
  for (const auto& phrase : c.phrases) {
    lists.push_back(WordTokens(phrase));
    words.insert(words.end(), lists.back().begin(), lists.back().end());
  }
  IdfDict idf;
  for (const auto& set : c.word_sets) idf.AddDocument(set);
  idf.Finalize();
  TfIdfVectors vectors;
  for (const auto& list : lists) vectors.Add(list, idf);
  const size_t n = lists.size();
  const size_t list_iters = std::max<size_t>(iters / 10, 1);
  KernelLane(report, "jaro_winkler", iters, [&](size_t i) {
    return JaroWinklerSim(words[i % words.size()],
                          words[(i * 7 + 3) % words.size()]);
  });
  KernelLane(report, "monge_elkan", list_iters, [&](size_t i) {
    return MongeElkanSim(lists[i % n], lists[(i * 7 + 3) % n]);
  });
  KernelLane(report, "soft_tfidf", list_iters, [&](size_t i) {
    return SoftTfIdfSim(vectors[i % n], vectors[(i * 7 + 3) % n], 0.9);
  });
}

/// String-vs-TokenId comparison written to BENCH_micro_similarity.json.
void WriteComparisonReport() {
  const Corpus& c = GetCorpus();
  const bool smoke = std::getenv("FALCON_BENCH_SMOKE") != nullptr;
  const size_t iters = smoke ? 20'000 : 2'000'000;
  bench::BenchReport report("micro_similarity");
  report.Add("iters", static_cast<int64_t>(iters));
  auto j_s = [](const std::vector<std::string>& x,
                const std::vector<std::string>& y) { return JaccardSim(x, y); };
  auto d_s = [](const std::vector<std::string>& x,
                const std::vector<std::string>& y) { return DiceSim(x, y); };
  auto o_s = [](const std::vector<std::string>& x,
                const std::vector<std::string>& y) { return OverlapSim(x, y); };
  auto c_s = [](const std::vector<std::string>& x,
                const std::vector<std::string>& y) { return CosineSim(x, y); };
  auto j_i = [](std::span<const TokenId> x, std::span<const TokenId> y) {
    return JaccardSim(x, y);
  };
  auto d_i = [](std::span<const TokenId> x, std::span<const TokenId> y) {
    return DiceSim(x, y);
  };
  auto o_i = [](std::span<const TokenId> x, std::span<const TokenId> y) {
    return OverlapSim(x, y);
  };
  auto c_i = [](std::span<const TokenId> x, std::span<const TokenId> y) {
    return CosineSim(x, y);
  };
  CompareSetSim(&report, "jaccard_word", c.word_sets, c.word_id_sets, j_s,
                j_i, iters);
  CompareSetSim(&report, "dice_word", c.word_sets, c.word_id_sets, d_s, d_i,
                iters);
  CompareSetSim(&report, "overlap_word", c.word_sets, c.word_id_sets, o_s,
                o_i, iters);
  CompareSetSim(&report, "cosine_word", c.word_sets, c.word_id_sets, c_s,
                c_i, iters);
  CompareSetSim(&report, "jaccard_3gram", c.gram_sets, c.gram_id_sets, j_s,
                j_i, iters);
  WriteIntersectLanes(&report, iters);
  WriteKernelLanes(&report, iters);
  std::string path = report.Write();
  printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace falcon

int main(int argc, char** argv) {
  falcon::WriteComparisonReport();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
