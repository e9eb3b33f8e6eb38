#include "blocking/filters.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>

#include "text/intersect.h"

namespace falcon {
namespace {

constexpr double kEps = 1e-9;

/// Per-thread working state for one ClauseProber. Keeping it in TLS (instead
/// of mutable members) makes concurrent probing race-free with zero locking:
/// each thread owns private rank and stamp/count scratch. The token store
/// already holds each B-row's interned set, so a probe only rank-sorts a
/// handful of ids into `ranked`.
struct ProberScratch {
  uint64_t owner = 0;  ///< scratch_id_ of the prober this state belongs to
  std::vector<std::pair<uint32_t, TokenId>> ranked;  ///< (rank, id) per probe
  std::vector<uint32_t> stamps;
  uint32_t epoch = 0;
};

/// This thread's scratch, reset if it last served a different prober.
ProberScratch& ScratchFor(uint64_t prober_id) {
  thread_local ProberScratch scratch;
  if (scratch.owner != prober_id) {
    scratch.owner = prober_id;
    scratch.ranked.clear();
    std::fill(scratch.stamps.begin(), scratch.stamps.end(), 0);
    scratch.epoch = 0;
  }
  return scratch;
}

/// Advances the stamp epoch, clearing stamps on the (rare) uint32 wrap so a
/// stale stamp can never alias the fresh epoch.
uint32_t NextEpoch(ProberScratch* s) {
  if (++s->epoch == 0) {
    std::fill(s->stamps.begin(), s->stamps.end(), 0);
    s->epoch = 1;
  }
  return s->epoch;
}

uint64_t NextProberId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

size_t CeilSafe(double v) {
  if (v <= 0.0) return 0;
  return static_cast<size_t>(std::ceil(v - kEps));
}

size_t FloorSafe(double v) {
  if (v <= 0.0) return 0;
  return static_cast<size_t>(std::floor(v + kEps));
}

/// True if the keep-predicate demands high similarity (sim >= t, t > 0):
/// the only direction index filters help with.
bool IsHighSimKeep(const Predicate& p) {
  return (p.op == PredOp::kGe || p.op == PredOp::kGt) && p.value > 0.0;
}

/// True if the keep-predicate demands small distance (dist <= v).
bool IsLowDistKeep(const Predicate& p) {
  return p.op == PredOp::kLe || p.op == PredOp::kLt;
}

/// Probe-side prefix length for a set of size y under sim >= t.
size_t ProbePrefixLength(SimFunction fn, double t, size_t y) {
  size_t alpha_min;
  switch (fn) {
    case SimFunction::kJaccard:
      alpha_min = CeilSafe(t * y);
      break;
    case SimFunction::kDice:
      alpha_min = CeilSafe(t * y / (2.0 - t));
      break;
    case SimFunction::kCosine:
      alpha_min = CeilSafe(t * t * y);
      break;
    default:
      // Overlap / Levenshtein: no usable count bound -> probe everything.
      return y;
  }
  alpha_min = std::max<size_t>(alpha_min, 1);
  return y >= alpha_min ? y - alpha_min + 1 : 0;
}

}  // namespace

size_t RequiredOverlap(SimFunction fn, double t, size_t x, size_t y) {
  switch (fn) {
    case SimFunction::kJaccard:
      return std::max<size_t>(1, CeilSafe(t * (x + y) / (1.0 + t)));
    case SimFunction::kDice:
      return std::max<size_t>(1, CeilSafe(t * (x + y) / 2.0));
    case SimFunction::kCosine:
      return std::max<size_t>(
          1, CeilSafe(t * std::sqrt(static_cast<double>(x) * y)));
    case SimFunction::kOverlap:
      return std::max<size_t>(1, CeilSafe(t * std::min(x, y)));
    default:
      return 1;
  }
}

std::pair<size_t, size_t> LengthBounds(SimFunction fn, double t, size_t y) {
  const size_t kMax = std::numeric_limits<size_t>::max();
  if (t <= 0.0) return {1, kMax};
  switch (fn) {
    case SimFunction::kJaccard:
      return {std::max<size_t>(1, CeilSafe(t * y)), FloorSafe(y / t)};
    case SimFunction::kDice:
      return {std::max<size_t>(1, CeilSafe(t / (2.0 - t) * y)),
              FloorSafe((2.0 - t) / t * y)};
    case SimFunction::kCosine:
      return {std::max<size_t>(1, CeilSafe(t * t * y)),
              FloorSafe(y / (t * t))};
    default:
      return {1, kMax};
  }
}

IndexNeed ClassifyPredicate(const Predicate& pred, const FeatureSet& fs) {
  const Feature& f = fs.feature(pred.feature_id);
  switch (f.fn) {
    case SimFunction::kExactMatch:
      // keep-predicate demands equality iff only score 1 satisfies it.
      if ((pred.op == PredOp::kGt && pred.value >= 0.0 && pred.value < 1.0) ||
          (pred.op == PredOp::kGe && pred.value > 0.0)) {
        return {IndexKind::kHash, f.col_a, f.tok};
      }
      return {IndexKind::kNone, -1, f.tok};
    case SimFunction::kAbsDiff:
    case SimFunction::kRelDiff:
      if (IsLowDistKeep(pred)) return {IndexKind::kBTree, f.col_a, f.tok};
      return {IndexKind::kNone, -1, f.tok};
    case SimFunction::kJaccard:
    case SimFunction::kDice:
    case SimFunction::kOverlap:
    case SimFunction::kCosine:
    case SimFunction::kLevenshtein: {
      if (!IsHighSimKeep(pred)) return {IndexKind::kNone, -1, f.tok};
      // Levenshtein filters operate on 3-gram sets regardless of the
      // feature's nominal tokenization.
      Tokenization tok = f.fn == SimFunction::kLevenshtein
                             ? Tokenization::kQgram3
                             : f.tok;
      return {IndexKind::kToken, f.col_a, tok};
    }
    default:
      return {IndexKind::kNone, -1, f.tok};
  }
}

// --- IndexCatalog ------------------------------------------------------------

const HashIndex* IndexCatalog::hash(int col_a) const {
  auto it = hash_.find(col_a);
  return it == hash_.end() ? nullptr : &it->second;
}

const BTreeIndex* IndexCatalog::btree(int col_a) const {
  auto it = btree_.find(col_a);
  return it == btree_.end() ? nullptr : &it->second;
}

const InvertedIndex* IndexCatalog::inverted(int col_a,
                                            Tokenization tok) const {
  auto it = inverted_.find({col_a, static_cast<int>(tok)});
  return it == inverted_.end() ? nullptr : &it->second;
}

const TokenOrdering* IndexCatalog::ordering(int col_a,
                                            Tokenization tok) const {
  auto it = orderings_.find({col_a, static_cast<int>(tok)});
  return it == orderings_.end() ? nullptr : &it->second;
}

bool IndexCatalog::Has(const IndexNeed& need) const {
  switch (need.kind) {
    case IndexKind::kNone:
      return true;
    case IndexKind::kHash:
      return hash(need.col_a) != nullptr;
    case IndexKind::kBTree:
      return btree(need.col_a) != nullptr;
    case IndexKind::kToken:
      return inverted(need.col_a, need.tok) != nullptr &&
             ordering(need.col_a, need.tok) != nullptr;
    case IndexKind::kTokenOrdering:
      return ordering(need.col_a, need.tok) != nullptr;
  }
  return false;
}

void IndexCatalog::PutHash(int col_a, HashIndex idx) {
  hash_.insert_or_assign(col_a, std::move(idx));
}
void IndexCatalog::PutBTree(int col_a, BTreeIndex idx) {
  btree_.insert_or_assign(col_a, std::move(idx));
}
void IndexCatalog::PutInverted(int col_a, Tokenization tok,
                               InvertedIndex idx) {
  inverted_.insert_or_assign(std::make_pair(col_a, static_cast<int>(tok)),
                             std::move(idx));
}

void IndexCatalog::PutOrdering(int col_a, Tokenization tok,
                               TokenOrdering ordering) {
  orderings_.insert_or_assign(std::make_pair(col_a, static_cast<int>(tok)),
                              std::move(ordering));
}

TokenDictionary* IndexCatalog::mutable_dict() {
  if (dict_ == nullptr) dict_ = std::make_unique<TokenDictionary>();
  return dict_.get();
}

TokenStore* IndexCatalog::mutable_store(const Table* table) {
  auto it = stores_.find(table);
  if (it == stores_.end()) {
    it = stores_
             .emplace(table,
                      std::make_unique<TokenStore>(table, mutable_dict()))
             .first;
  }
  return it->second.get();
}

const TokenStore* IndexCatalog::store(const Table* table) const {
  auto it = stores_.find(table);
  return it == stores_.end() ? nullptr : it->second.get();
}

size_t IndexCatalog::MemoryUsageFor(
    const std::vector<IndexNeed>& needs) const {
  // A token probe reads the ordering's ranks as well as the inverted index.
  // Deduplicate needs so shared indexes are counted once.
  std::vector<IndexNeed> uniq = needs;
  for (const auto& need : needs) {
    if (need.kind == IndexKind::kToken) {
      uniq.push_back({IndexKind::kTokenOrdering, need.col_a, need.tok});
    }
  }
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  size_t bytes = 0;
  for (const auto& need : uniq) {
    switch (need.kind) {
      case IndexKind::kNone:
        break;
      case IndexKind::kHash:
        if (const auto* h = hash(need.col_a)) bytes += h->MemoryUsage();
        break;
      case IndexKind::kBTree:
        if (const auto* b = btree(need.col_a)) bytes += b->MemoryUsage();
        break;
      case IndexKind::kToken:
        if (const auto* i = inverted(need.col_a, need.tok)) {
          bytes += i->MemoryUsage();
        }
        break;
      case IndexKind::kTokenOrdering:
        if (const auto* o = ordering(need.col_a, need.tok)) {
          bytes += o->MemoryUsage();
        }
        break;
    }
  }
  return bytes;
}

size_t IndexCatalog::TotalMemoryUsage() const {
  size_t bytes = 0;
  for (const auto& [col, idx] : hash_) bytes += idx.MemoryUsage();
  for (const auto& [col, idx] : btree_) bytes += idx.MemoryUsage();
  for (const auto& [key, idx] : inverted_) bytes += idx.MemoryUsage();
  for (const auto& [key, ord] : orderings_) bytes += ord.MemoryUsage();
  if (dict_ != nullptr) bytes += dict_->MemoryUsage();
  for (const auto& [table, store] : stores_) bytes += store->MemoryUsage();
  return bytes;
}

BlockProfile IndexCatalog::MergedBlockProfile() const {
  BlockProfile profile;
  for (const auto& [key, idx] : inverted_) profile.Merge(idx.profile());
  return profile;
}

// --- ClauseProber --------------------------------------------------------------

ClauseProber::ClauseProber(const IndexCatalog* catalog, const FeatureSet* fs,
                           size_t num_a_rows)
    : catalog_(catalog),
      fs_(fs),
      num_a_rows_(num_a_rows),
      scratch_id_(NextProberId()) {}

ClauseProber::ProbeShape ClauseProber::RankedIdsFor(
    const Table& b_table, RowId b, int col_b, Tokenization tok,
    const TokenOrdering& ord) const {
  ProberScratch& s = ScratchFor(scratch_id_);
  s.ranked.clear();
  ProbeShape shape;
  const TokenStore* store = catalog_->store(&b_table);
  const TokenSetView* view =
      store == nullptr ? nullptr : store->view(col_b, tok);
  // ApplyBlockingRules refuses to probe without the B-side view; a direct
  // caller that skipped it gets an empty shape, i.e. an unfiltered probe.
  assert(view != nullptr && "token probe without a B-side store view");
  if (view == nullptr) return shape;
  auto ids = view->row(b);
  shape.y = ids.size();
  for (TokenId id : ids) {
    uint32_t r;
    if (ord.RankId(id, &r)) {
      s.ranked.emplace_back(r, id);
    } else {
      ++shape.num_unknown;
    }
  }
  std::sort(s.ranked.begin(), s.ranked.end());
  return shape;
}

CandidateSet ClauseProber::ProbePredicate(const Predicate& pred,
                                          const Table& b_table,
                                          RowId b) const {
  CandidateSet out;
  IndexNeed need = ClassifyPredicate(pred, *fs_);
  const Feature& f = fs_->feature(pred.feature_id);
  if (need.kind == IndexKind::kNone || !catalog_->Has(need) ||
      b_table.IsMissing(b, f.col_b)) {
    out.all = true;
    return out;
  }

  switch (need.kind) {
    case IndexKind::kHash: {
      const HashIndex* idx = catalog_->hash(need.col_a);
      const auto& rows = idx->Probe(b_table.Get(b, f.col_b));
      out.rows = rows;
      const auto& miss = idx->missing_rows();
      out.rows.insert(out.rows.end(), miss.begin(), miss.end());
      return out;
    }
    case IndexKind::kBTree: {
      const BTreeIndex* idx = catalog_->btree(need.col_a);
      double vb = b_table.GetNumeric(b, f.col_b);
      if (std::isnan(vb)) {
        out.all = true;
        return out;
      }
      double radius;
      if (f.fn == SimFunction::kAbsDiff) {
        radius = pred.value;
      } else {
        // rel_diff <= t: |a-b| <= t*max(|a|,|b|) and max(|a|,|b|) <=
        // |b|/(1-t), so |a-b| <= t*|b|/(1-t) is a necessary condition.
        if (pred.value >= 1.0) {
          out.all = true;
          return out;
        }
        radius = pred.value * std::fabs(vb) / (1.0 - pred.value);
      }
      idx->ProbeRange(vb - radius, vb + radius, &out.rows);
      const auto& miss = idx->missing_rows();
      out.rows.insert(out.rows.end(), miss.begin(), miss.end());
      return out;
    }
    case IndexKind::kToken: {
      const InvertedIndex* idx = catalog_->inverted(need.col_a, need.tok);
      const TokenOrdering* ord = catalog_->ordering(need.col_a, need.tok);
      const ProbeShape py = RankedIdsFor(b_table, b, f.col_b, need.tok, *ord);
      const size_t y = py.y;
      if (y == 0) {
        out.all = true;  // empty token set cannot prove a non-match
        return out;
      }
      const double t = pred.value;
      const SimFunction fn = f.fn;
      auto [len_lo, len_hi] = LengthBounds(fn, t, y);
      const size_t pi_y = ProbePrefixLength(fn, t, y);
      const bool position_filter = fn == SimFunction::kJaccard ||
                                   fn == SimFunction::kDice ||
                                   fn == SimFunction::kCosine;

      // Stamp-based dedup across probe tokens. Unknown tokens occupy probe
      // positions 0..num_unknown-1 (they sort first, as the rarest) and
      // have no postings, so probing starts at position num_unknown.
      ProberScratch& s = ScratchFor(scratch_id_);
      if (s.stamps.size() < num_a_rows_) s.stamps.resize(num_a_rows_, 0);
      const uint32_t epoch = NextEpoch(&s);
      for (size_t j = py.num_unknown; j < pi_y && j < y; ++j) {
        for (const Posting& p :
             idx->Probe(s.ranked[j - py.num_unknown].second)) {
          if (s.stamps[p.row] == epoch) continue;
          const size_t x = idx->set_size(p.row);
          if (x < len_lo || x > len_hi) continue;
          // Index-side prefix bound, enforced at probe time.
          const size_t pi_x = ProbePrefixLength(fn, t, x);
          if (p.position >= pi_x) continue;
          if (position_filter) {
            const size_t alpha = RequiredOverlap(fn, t, x, y);
            const size_t ubound =
                1 + std::min(x - 1 - p.position, y - 1 - j);
            if (ubound < alpha) continue;
          }
          s.stamps[p.row] = epoch;
          out.rows.push_back(p.row);
        }
      }
      const auto& miss = idx->missing_rows();
      out.rows.insert(out.rows.end(), miss.begin(), miss.end());
      return out;
    }
    case IndexKind::kNone:
    case IndexKind::kTokenOrdering:
      break;
  }
  out.all = true;
  return out;
}

bool ClauseProber::ClauseActive(const CnfClause& clause, const Table& b_table,
                                RowId b) const {
  for (const auto& pred : clause.predicates) {
    IndexNeed need = ClassifyPredicate(pred, *fs_);
    if (need.kind == IndexKind::kNone || !catalog_->Has(need)) return false;
    const Feature& f = fs_->feature(pred.feature_id);
    if (b_table.IsMissing(b, f.col_b)) return false;
    if (need.kind == IndexKind::kBTree &&
        std::isnan(b_table.GetNumeric(b, f.col_b))) {
      return false;
    }
  }
  return !clause.predicates.empty();
}

CandidateSet ClauseProber::ProbeClause(const CnfClause& clause,
                                       const Table& b_table, RowId b) const {
  CandidateSet out;
  if (!ClauseActive(clause, b_table, b)) {
    out.all = true;
    return out;
  }
  if (clause.predicates.size() == 1) {
    return ProbePredicate(clause.predicates[0], b_table, b);
  }
  // Union with stamp dedup. Note ProbePredicate uses the shared stamp
  // scratch internally, so collect first, then dedup.
  std::vector<std::vector<RowId>> parts;
  parts.reserve(clause.predicates.size());
  for (const auto& pred : clause.predicates) {
    CandidateSet c = ProbePredicate(pred, b_table, b);
    if (c.all) {
      out.all = true;  // defensive: ClauseActive should have caught this
      return out;
    }
    parts.push_back(std::move(c.rows));
  }
  ProberScratch& s = ScratchFor(scratch_id_);
  if (s.stamps.size() < num_a_rows_) s.stamps.resize(num_a_rows_, 0);
  const uint32_t epoch = NextEpoch(&s);
  for (const auto& part : parts) {
    for (RowId r : part) {
      if (s.stamps[r] != epoch) {
        s.stamps[r] = epoch;
        out.rows.push_back(r);
      }
    }
  }
  return out;
}

CandidateSet ClauseProber::ProbeRule(const CnfRule& rule,
                                     const Table& b_table, RowId b) const {
  CandidateSet out;
  std::vector<std::vector<RowId>> active_sets;
  for (const auto& clause : rule.clauses) {
    CandidateSet c = ProbeClause(clause, b_table, b);
    if (c.all) continue;  // inactive clause does not constrain
    active_sets.push_back(std::move(c.rows));
  }
  if (active_sets.empty()) {
    out.all = true;
    return out;
  }
  if (active_sets.size() == 1) {
    out.rows = std::move(active_sets[0]);
    return out;
  }
  // Multi-clause intersection via sorted membership probes: keep the rows of
  // the first active set, in its order, that every other set contains. A row
  // in all sets necessarily appears in set 0, so this emits exactly the rows
  // (and order) the old count-based scan over first appearances produced —
  // without the O(num_a_rows) counts scratch it needed.
  for (size_t k = 1; k < active_sets.size(); ++k) {
    std::sort(active_sets[k].begin(), active_sets[k].end());
  }
  for (RowId r : active_sets[0]) {
    bool in_all = true;
    for (size_t k = 1; k < active_sets.size() && in_all; ++k) {
      in_all = SortedSetContains(active_sets[k], r);
    }
    if (in_all) out.rows.push_back(r);
  }
  return out;
}

}  // namespace falcon
