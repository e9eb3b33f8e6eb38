// Count-decided set predicates (RuleApplier, DESIGN.md §4j). A Jaccard,
// Dice, Overlap or Cosine predicate whose token views are bound is decided
// from the intersection count and a per-size flip point, never from the
// score. Each decision must equal `SetSimFromCounts(fn, count, |x|, |y|)
// <op> value`, the comparison the value path makes, for every operator,
// size pair and count: inside the flip-point table, at its edge and beyond
// it, for a slot's sole reader and for a slot shared by several predicates.
// On generated tables, an applier over bound token stores must keep exactly
// the pairs an applier over an unbound feature set keeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "blocking/apply.h"
#include "common/counters.h"
#include "rules/feature.h"
#include "rules/rule.h"
#include "table/token_store.h"
#include "workload/generator.h"

namespace falcon {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool Holds(PredOp op, double score, double value) {
  switch (op) {
    case PredOp::kLe:
      return score <= value;
    case PredOp::kGt:
      return score > value;
    case PredOp::kLt:
      return score < value;
    case PredOp::kGe:
      return score >= value;
  }
  return false;
}

/// Space-separated word tokens `<prefix>0 .. <prefix>(n-1)`.
std::string Words(char prefix, size_t n) {
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += ' ';
    out += prefix + std::to_string(i);
  }
  return out;
}

/// Token sets of every size 0..kMaxSize and every count between them, over
/// one word attribute. A row n holds the shared words s0..s(n-1). B row
/// (n, c) holds s0..s(c-1) and n - c words of its own, so A row nx meets it
/// in min(nx, c) words, and the pairs with c <= min(nx, ny) reach every
/// (|x|, |y|, count). An empty set is written "-", which tokenizes to
/// nothing but is not missing; each table's last row is missing.
class CountGrid {
 public:
  static constexpr size_t kMaxSize = 72;  // past the 64-wide flip table

  CountGrid()
      : a_(Schema({{"text", AttrType::kString}})),
        b_(Schema({{"text", AttrType::kString}})) {
    auto text = [](size_t shared, size_t own) {
      if (shared + own == 0) return std::string("-");
      std::string s = Words('s', shared);
      if (shared > 0 && own > 0) s += ' ';
      return s + Words('b', own);
    };
    for (size_t n = 0; n <= kMaxSize; ++n) {
      EXPECT_TRUE(a_.AppendRow({text(n, 0)}).ok());
    }
    EXPECT_TRUE(a_.AppendRow({""}).ok());
    for (size_t n = 0; n <= kMaxSize; ++n) {
      for (size_t c = 0; c <= n; ++c) {
        EXPECT_TRUE(b_.AppendRow({text(c, n - c)}).ok());
      }
    }
    EXPECT_TRUE(b_.AppendRow({""}).ok());

    FeatureGenOptions opts;
    opts.include_matcher_only = false;
    fs_ = FeatureSet::Generate(a_, b_, opts);
    for (const Feature& f : fs_.features()) {
      if (IsSetBased(f.fn) && f.tok == Tokenization::kWord) {
        store_a_.EnsureView(f.col_a, f.tok);
        store_b_.EnsureView(f.col_b, f.tok);
      }
    }
    fs_.BindTokenStores(&store_a_, &store_b_);
  }

  const Table& a() const { return a_; }
  const Table& b() const { return b_; }
  const FeatureSet& fs() const { return fs_; }
  RowId ARow(size_t n) const { return static_cast<RowId>(n); }
  RowId BRow(size_t n, size_t count) const {
    return static_cast<RowId>(n * (n + 1) / 2 + count);
  }
  RowId MissingA() const { return static_cast<RowId>(a_.num_rows() - 1); }
  RowId MissingB() const { return static_cast<RowId>(b_.num_rows() - 1); }

  /// The word-token feature of `fn`, or -1.
  int FeatureOf(SimFunction fn) const {
    for (const Feature& f : fs_.features()) {
      if (f.fn == fn && f.tok == Tokenization::kWord) return f.id;
    }
    return -1;
  }

  /// The set sizes the bound views hold for A row nx and B row (ny, c).
  std::pair<size_t, size_t> ViewSizes(int id, size_t nx, size_t ny,
                                      size_t count) const {
    const Feature& f = fs_.feature(id);
    return {store_a_.view(f.col_a, f.tok)->row(ARow(nx)).size(),
            store_b_.view(f.col_b, f.tok)->row(BRow(ny, count)).size()};
  }

 private:
  Table a_;
  Table b_;
  TokenDictionary dict_;
  TokenStore store_a_{&a_, &dict_};
  TokenStore store_b_{&b_, &dict_};
  FeatureSet fs_;
};

const CountGrid& Grid() {
  static const CountGrid* grid = new CountGrid();
  return *grid;
}

/// Thresholds for `fn`: 0, 1, NaN, and exact scores the function forms at
/// chosen (count, |x|, |y|) — k/n, 2k/(n+m), k/(n+m-k) or k/sqrt(nm) — with
/// their nextafter neighbours, inside the table, at its edge and beyond it.
std::vector<double> ThresholdsFor(SimFunction fn) {
  std::vector<double> out = {0.0, 1.0, kNaN};
  const size_t at[][3] = {{1, 3, 3}, {7, 20, 33}, {32, 63, 64}, {40, 64, 72}};
  for (const auto& [count, nx, ny] : at) {
    const double s = SetSimFromCounts(fn, count, nx, ny);
    out.push_back(s);
    out.push_back(std::nextafter(s, 0.0));
    out.push_back(std::nextafter(s, 2.0));
  }
  return out;
}

class SetPredicateCountGrid
    : public ::testing::TestWithParam<std::tuple<SimFunction, PredOp>> {};

// One rule `f <op> value` drops a pair iff the comparison holds. Run alone,
// the predicate is its slot's sole reader (early-exit count). Beside a rule
// `f <= NaN`, which never holds, it shares its slot (memoized full count).
TEST_P(SetPredicateCountGrid, KeepEqualsScoreComparison) {
  const CountGrid& grid = Grid();
  const auto [fn, op] = GetParam();
  const int id = grid.FeatureOf(fn);
  ASSERT_GE(id, 0) << SimFunctionName(fn);
  // The grid is what it claims at both corners and across the table edge.
  for (auto [nx, ny, count] : {std::array<size_t, 3>{0, 0, 0},
                               std::array<size_t, 3>{63, 64, 63},
                               std::array<size_t, 3>{72, 72, 72}}) {
    ASSERT_EQ(grid.ViewSizes(id, nx, ny, count), std::make_pair(nx, ny));
  }

  for (bool shared : {false, true}) {
    for (double value : ThresholdsFor(fn)) {
      RuleSequence seq;
      seq.rules.resize(shared ? 2 : 1);
      seq.rules[0].predicates = {{id, id, op, value}};
      if (shared) seq.rules[1].predicates = {{id, id, PredOp::kLe, kNaN}};
      RuleApplier applier(seq, &grid.fs(), &grid.a(), &grid.b());
      size_t mismatches = 0;
      for (size_t nx = 0; nx <= CountGrid::kMaxSize; ++nx) {
        for (size_t ny = 0; ny <= CountGrid::kMaxSize; ++ny) {
          for (size_t count = 0; count <= std::min(nx, ny); ++count) {
            const bool drop =
                Holds(op, SetSimFromCounts(fn, count, nx, ny), value);
            if (applier.Keep(grid.ARow(nx), grid.BRow(ny, count)) != drop) {
              continue;
            }
            if (++mismatches <= 3) {
              ADD_FAILURE() << SimFunctionName(fn) << " " << PredOpName(op)
                            << " " << value
                            << (shared ? " (shared slot)" : " (sole reader)")
                            << ": |x|=" << nx << " |y|=" << ny
                            << " count=" << count << " should "
                            << (drop ? "drop" : "keep");
            }
          }
        }
      }
      EXPECT_EQ(mismatches, 0u);
      // A missing value on either side never drops.
      for (size_t n : {size_t{0}, size_t{5}, size_t{63}, size_t{64},
                       CountGrid::kMaxSize}) {
        EXPECT_TRUE(applier.Keep(grid.MissingA(), grid.BRow(n, n / 2)));
        EXPECT_TRUE(applier.Keep(grid.ARow(n), grid.MissingB()));
      }
      EXPECT_TRUE(applier.Keep(grid.MissingA(), grid.MissingB()));
    }
  }
}

std::string GridName(
    const ::testing::TestParamInfo<SetPredicateCountGrid::ParamType>& info) {
  const auto [fn, op] = info.param;
  std::string name = fn == SimFunction::kJaccard ? "Jaccard"
                     : fn == SimFunction::kDice  ? "Dice"
                     : fn == SimFunction::kOverlap ? "Overlap"
                                                   : "Cosine";
  const char* ops[] = {"Le", "Gt", "Lt", "Ge"};  // PredOp's order
  return name + ops[static_cast<int>(op)];
}

INSTANTIATE_TEST_SUITE_P(
    AllSetPredicates, SetPredicateCountGrid,
    ::testing::Combine(::testing::Values(SimFunction::kJaccard,
                                         SimFunction::kDice,
                                         SimFunction::kOverlap,
                                         SimFunction::kCosine),
                       ::testing::Values(PredOp::kLe, PredOp::kLt,
                                         PredOp::kGe, PredOp::kGt)),
    GridName);

// --- generated tables: bound vs unbound appliers ------------------------------

/// Finds the feature `fn` on attribute `attr` (with tokenization `tok` for
/// set functions), or -1.
int FindFeature(const FeatureSet& fs, SimFunction fn, const char* attr,
                Tokenization tok = Tokenization::kWord) {
  const std::string name = std::string("(") + attr + "," + attr + ")";
  for (const Feature& f : fs.features()) {
    if (f.fn == fn && f.name.find(name) != std::string::npos &&
        (!IsSetBased(fn) || f.tok == tok)) {
      return f.id;
    }
  }
  return -1;
}

/// Every A x B decision of an applier over `fs` bound to interned token
/// stores equals that of an applier over a freshly generated, unbound
/// feature set, which computes every similarity from strings. The sequence
/// must keep some pairs and drop others, and the bound sweep must decide
/// some predicates by early exit.
void ExpectBoundMatchesUnbound(const GeneratedDataset& data,
                               const RuleSequence& seq, FeatureSet* fs) {
  TokenDictionary dict;
  TokenStore store_a(&data.a, &dict);
  TokenStore store_b(&data.b, &dict);
  for (const auto& rule : seq.rules) {
    for (const auto& p : rule.predicates) {
      const Feature& f = fs->feature(p.feature_id);
      if (!IsSetBased(f.fn)) continue;
      store_a.EnsureView(f.col_a, f.tok);
      store_b.EnsureView(f.col_b, f.tok);
    }
  }
  fs->BindTokenStores(&store_a, &store_b);
  const FeatureSet unbound = FeatureSet::Generate(data.a, data.b);
  RuleApplier bound(seq, fs, &data.a, &data.b);
  RuleApplier value(seq, &unbound, &data.a, &data.b);

  const CounterSet before = ThreadCounters();
  size_t kept = 0;
  size_t mismatches = 0;
  for (RowId ar = 0; ar < data.a.num_rows(); ++ar) {
    for (RowId br = 0; br < data.b.num_rows(); ++br) {
      const bool keep = value.Keep(ar, br);
      kept += keep ? 1 : 0;
      if (bound.Keep(ar, br) != keep && ++mismatches <= 3) {
        ADD_FAILURE() << "pair (" << ar << "," << br << ") should "
                      << (keep ? "be kept" : "be dropped");
      }
    }
  }
  const CounterSet delta = ThreadCounters() - before;
  fs->BindTokenStores(nullptr, nullptr);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, data.a.num_rows() * data.b.num_rows());
  EXPECT_GT(delta[Counter::kIntersectEarlyExit], 0u);
}

// Small title sets, long description sets and brand/model 3-gram sets, a
// title feature shared by two rules, a numeric predicate, all four
// operators and missing values.
TEST(SetPredicateCountTest, BoundMatchesUnboundOnProducts) {
  WorkloadOptions opt;
  opt.size_a = 150;
  opt.size_b = 300;
  opt.seed = 21;
  opt.missing_rate = 0.05;
  GeneratedDataset data = GenerateProducts(opt);
  FeatureSet fs = FeatureSet::Generate(data.a, data.b);
  const int jac_title = FindFeature(fs, SimFunction::kJaccard, "title");
  const int cos_descr = FindFeature(fs, SimFunction::kCosine, "descr");
  const int ovl_descr = FindFeature(fs, SimFunction::kOverlap, "descr");
  const int dice_brand =
      FindFeature(fs, SimFunction::kDice, "brand", Tokenization::kQgram3);
  const int jac_model =
      FindFeature(fs, SimFunction::kJaccard, "modelno", Tokenization::kQgram3);
  const int price = FindFeature(fs, SimFunction::kAbsDiff, "price");
  for (int id : {jac_title, cos_descr, ovl_descr, dice_brand, jac_model,
                 price}) {
    ASSERT_GE(id, 0);
  }
  RuleSequence seq;
  seq.rules.resize(4);
  seq.rules[0].predicates = {{jac_title, jac_title, PredOp::kLe, 0.2},
                             {cos_descr, cos_descr, PredOp::kLt, 0.3}};
  seq.rules[1].predicates = {{jac_title, jac_title, PredOp::kLt, 0.05}};
  seq.rules[2].predicates = {{dice_brand, dice_brand, PredOp::kLt, 0.5},
                             {price, price, PredOp::kGt, 20.0}};
  seq.rules[3].predicates = {{ovl_descr, ovl_descr, PredOp::kGe, 0.9},
                             {jac_model, jac_model, PredOp::kLe, 0.1}};
  ExpectBoundMatchesUnbound(data, seq, &fs);
}

TEST(SetPredicateCountTest, BoundMatchesUnboundOnSongs) {
  WorkloadOptions opt;
  opt.size_a = 150;
  opt.size_b = 300;
  opt.seed = 22;
  opt.missing_rate = 0.05;
  GeneratedDataset data = GenerateSongs(opt);
  FeatureSet fs = FeatureSet::Generate(data.a, data.b);
  const int jac_title = FindFeature(fs, SimFunction::kJaccard, "title");
  const int ovl_release3 =
      FindFeature(fs, SimFunction::kOverlap, "release", Tokenization::kQgram3);
  const int jac_artist3 = FindFeature(fs, SimFunction::kJaccard,
                                      "artist_name", Tokenization::kQgram3);
  const int dice_artist3 = FindFeature(fs, SimFunction::kDice, "artist_name",
                                       Tokenization::kQgram3);
  const int cos_release = FindFeature(fs, SimFunction::kCosine, "release");
  const int year = FindFeature(fs, SimFunction::kAbsDiff, "year");
  for (int id : {jac_title, ovl_release3, jac_artist3, dice_artist3,
                 cos_release, year}) {
    ASSERT_GE(id, 0);
  }
  RuleSequence seq;
  seq.rules.resize(4);
  seq.rules[0].predicates = {{jac_title, jac_title, PredOp::kLe, 0.3},
                             {jac_artist3, jac_artist3, PredOp::kLt, 0.4}};
  seq.rules[1].predicates = {{jac_title, jac_title, PredOp::kLt, 0.1}};
  seq.rules[2].predicates = {{cos_release, cos_release, PredOp::kLe, 0.2},
                             {year, year, PredOp::kGt, 1.0}};
  seq.rules[3].predicates = {{ovl_release3, ovl_release3, PredOp::kGe, 0.95},
                             {dice_artist3, dice_artist3, PredOp::kLe, 0.2}};
  ExpectBoundMatchesUnbound(data, seq, &fs);
}

}  // namespace
}  // namespace falcon
