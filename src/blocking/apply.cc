#include "blocking/apply.h"

#include <algorithm>
#include <map>
#include <span>

#include "blocking/index_builder.h"
#include "common/arena.h"
#include "common/counters.h"
#include "mapreduce/job.h"
#include "text/intersect.h"

namespace falcon {

const char* ApplyMethodName(ApplyMethod m) {
  switch (m) {
    case ApplyMethod::kApplyAll:
      return "apply_all";
    case ApplyMethod::kApplyGreedy:
      return "apply_greedy";
    case ApplyMethod::kApplyConjunct:
      return "apply_conjunct";
    case ApplyMethod::kApplyPredicate:
      return "apply_predicate";
    case ApplyMethod::kMapSide:
      return "MapSide";
    case ApplyMethod::kReduceSplit:
      return "ReduceSplit";
  }
  return "unknown";
}

// --- RuleApplier ---------------------------------------------------------------

namespace {

/// `v <op> value`; false when either side is NaN.
bool Holds(PredOp op, double v, double value) {
  switch (op) {
    case PredOp::kLe:
      return v <= value;
    case PredOp::kGt:
      return v > value;
    case PredOp::kLt:
      return v < value;
    case PredOp::kGe:
      return v >= value;
  }
  return false;
}

/// The flip point of `SetSimFromCounts(fn, count, nx, ny) <op> value` over
/// counts 0..m, m = min(nx, ny), packed as `(t << 1) | verdict_at_0`: t is
/// the smallest count whose verdict differs from count 0's, or m + 1 when
/// none does. The verdict is monotone in the count (see RuleApplier), so t
/// is found by binary search over [1, m + 1].
size_t FlipPoint(SimFunction fn, PredOp op, double value, size_t nx,
                 size_t ny) {
  auto verdict = [&](size_t count) {
    return Holds(op, SetSimFromCounts(fn, count, nx, ny), value);
  };
  const bool at_zero = verdict(0);
  size_t lo = 1;
  size_t hi = std::min(nx, ny) + 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (verdict(mid) != at_zero) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return (lo << 1) | (at_zero ? 1 : 0);
}

}  // namespace

RuleApplier::RuleApplier(const RuleSequence& seq, const FeatureSet* fs,
                         const Table* a, const Table* b)
    : fs_(fs), a_(a), b_(b) {
  // Slot assignment: one memoized value per distinct feature id, so a
  // feature shared by several rules (e.g. jaccard_word(title,title)) is
  // computed once per pair (Section 7.3, optimization 3).
  std::map<int, int> slot_of;
  for (const auto& rule : seq.rules) {
    std::vector<BoundPredicate> bound;
    bound.reserve(rule.predicates.size());
    for (const auto& p : rule.predicates) {
      auto [it, inserted] =
          slot_of.emplace(p.feature_id, static_cast<int>(slot_of.size()));
      bound.push_back(BoundPredicate{it->second, p.feature_id, p.op, p.value});
    }
    rules_.push_back(std::move(bound));
  }
  num_slots_ = slot_of.size();

  // Bind the count-decided predicates. Views depend only on the feature, so
  // every reader of a slot is bound or none is.
  std::vector<int> slot_refs(num_slots_, 0);
  for (const auto& rule : rules_) {
    for (const auto& p : rule) ++slot_refs[p.slot];
  }
  for (auto& rule : rules_) {
    for (auto& p : rule) {
      if (!fs->TokenViews(p.feature_id, *a, *b, &p.view_a, &p.view_b)) {
        continue;
      }
      const Feature& f = fs->feature(p.feature_id);
      p.fn = f.fn;
      p.col_a = f.col_a;
      p.col_b = f.col_b;
      p.sole_reader = slot_refs[p.slot] == 1;
      p.flips.resize(kFlipTableSide * kFlipTableSide);
      for (size_t nx = 0; nx < kFlipTableSide; ++nx) {
        for (size_t ny = 0; ny < kFlipTableSide; ++ny) {
          p.flips[nx * kFlipTableSide + ny] =
              static_cast<uint8_t>(FlipPoint(p.fn, p.op, p.value, nx, ny));
        }
      }
    }
  }
}

bool RuleApplier::Keep(RowId a_row, RowId b_row) const {
  // Thread-local memoization scratch, carved from the thread's scratch arena:
  // reset per call, so it is safe to call Keep concurrently and to share one
  // scratch across applier instances. The MapReduce engine resets the arena
  // at task end, so (unlike the previous `thread_local std::vector`s) the
  // scratch does not retain one job's peak capacity forever; the generation
  // check re-carves after each reset.
  thread_local double* slot_values = nullptr;
  thread_local uint32_t* slot_stamps = nullptr;
  thread_local size_t slot_capacity = 0;
  thread_local uint64_t slot_generation = 0;
  thread_local uint32_t slot_epoch = 0;
  ScratchArena& scratch = ThreadScratch();
  if (slot_generation != scratch.generation() || slot_capacity < num_slots_) {
    slot_values = scratch.arena()->AllocateArray<double>(num_slots_);
    slot_stamps = scratch.arena()->AllocateArray<uint32_t>(num_slots_);
    std::fill(slot_stamps, slot_stamps + num_slots_, 0u);
    slot_capacity = num_slots_;
    slot_generation = scratch.generation();
    slot_epoch = 0;
  }
  // Epoch-stamped memoization (same scheme as LazyPairFeatures): a slot is
  // valid iff its stamp equals this call's epoch, so invalidating all slots
  // is one increment instead of a per-pair fill. Epoch 0 is never valid;
  // on uint32 wrap, zero the stamps once and restart at 1.
  if (++slot_epoch == 0) {
    std::fill(slot_stamps, slot_stamps + slot_capacity, 0u);
    slot_epoch = 1;
  }
  for (const auto& rule : rules_) {
    bool fires = !rule.empty();
    for (const auto& p : rule) {
      bool holds;
      if (p.flips.empty()) {
        if (slot_stamps[p.slot] != slot_epoch) {
          slot_values[p.slot] =
              fs_->Compute(p.feature_id, *a_, a_row, *b_, b_row);
          slot_stamps[p.slot] = slot_epoch;
        }
        // A missing value computes to NaN, which satisfies no comparison:
        // missing cannot prove a non-match.
        holds = Holds(p.op, slot_values[p.slot], p.value);
      } else {
        const std::span<const TokenId> x = p.view_a->row(a_row);
        const std::span<const TokenId> y = p.view_b->row(b_row);
        const size_t nx = x.size();
        const size_t ny = y.size();
        const size_t flip = nx < kFlipTableSide && ny < kFlipTableSide
                                ? p.flips[nx * kFlipTableSide + ny]
                                : FlipPoint(p.fn, p.op, p.value, nx, ny);
        const size_t t = flip >> 1;
        const bool at_zero = (flip & 1) != 0;
        // Views hold missing values as empty sets, so only an empty side
        // can be missing, which makes the predicate false.
        if ((nx == 0 && a_->IsMissing(a_row, p.col_a)) ||
            (ny == 0 && b_->IsMissing(b_row, p.col_b))) {
          holds = false;
        } else if (t > std::min(nx, ny)) {
          holds = at_zero;  // no reachable count flips the verdict
        } else if (p.sole_reader) {
          holds = SortedIntersectionAtLeast(x, y, t) != at_zero;
        } else {
          if (slot_stamps[p.slot] != slot_epoch) {
            slot_values[p.slot] =
                static_cast<double>(SortedIntersectionSize(x, y));
            slot_stamps[p.slot] = slot_epoch;
          }
          holds = (slot_values[p.slot] >= static_cast<double>(t)) != at_zero;
        }
      }
      if (!holds) {
        fires = false;
        break;
      }
    }
    if (fires) return false;  // dropped
  }
  return true;
}

namespace {

/// Interleaved-input record (load-balancing optimization 1 of Section 7.3):
/// every split carries both A and B rows.
struct TaggedRow {
  bool from_a;
  RowId row;
};

/// Shuffle value with explicit byte accounting: the simulation ships row ids
/// in-process but charges the bytes a real Hadoop job would move (whole
/// tuples, or ids under the ship-ids optimization).
struct ShuffleVal {
  int32_t tag = 0;   // operator-specific (b_row, clause id, or -1 marker)
  uint32_t aux = 0;  // operator-specific (k_b)
  uint32_t bytes = 8;
};

size_t EstimateBytes(const ShuffleVal& v) { return v.bytes; }

std::vector<TaggedRow> InterleavedInput(size_t na, size_t nb) {
  // Interleave proportionally so every split sees the A:B ratio.
  std::vector<TaggedRow> input;
  input.reserve(na + nb);
  size_t ia = 0;
  size_t ib = 0;
  while (ia < na || ib < nb) {
    // Emit the stream that is behind its proportional position.
    double pa = na == 0 ? 1.0 : static_cast<double>(ia) / na;
    double pb = nb == 0 ? 1.0 : static_cast<double>(ib) / nb;
    if (ia < na && (ib >= nb || pa <= pb)) {
      input.push_back({true, static_cast<RowId>(ia++)});
    } else {
      input.push_back({false, static_cast<RowId>(ib++)});
    }
  }
  return input;
}

size_t AvgRowBytes(const Table& t) {
  if (t.num_rows() == 0) return 64;
  return std::max<size_t>(16, t.MemoryUsage() / t.num_rows());
}

bool ClauseFilterable(const CnfClause& clause, const FeatureSet& fs,
                      const IndexCatalog& catalog) {
  if (clause.predicates.empty()) return false;
  for (const auto& pred : clause.predicates) {
    IndexNeed need = ClassifyPredicate(pred, fs);
    if (need.kind == IndexKind::kNone || !catalog.Has(need)) return false;
  }
  return true;
}

/// Token probes read each B-row's interned set from the catalog's B-side
/// store; IndexBuilder::EnsureTokenStores builds those views. A filterable
/// token predicate without one is a caller error, not a slower path.
Status CheckProbeViews(const std::vector<const CnfClause*>& filterable,
                       const FeatureSet& fs, const IndexCatalog& catalog,
                       const Table& b) {
  const TokenStore* store = catalog.store(&b);
  for (const CnfClause* clause : filterable) {
    for (const auto& pred : clause->predicates) {
      IndexNeed need = ClassifyPredicate(pred, fs);
      if (need.kind != IndexKind::kToken) continue;
      const Feature& f = fs.feature(pred.feature_id);
      if (store == nullptr || store->view(f.col_b, need.tok) == nullptr) {
        return Status::InvalidArgument(
            "filterable predicate on " + f.name +
            " has no B-side token store view (IndexBuilder::"
            "EnsureTokenStores builds it)");
      }
    }
  }
  return Status::OK();
}

uint64_t PackPair(RowId a, RowId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Minimum rule selectivity: a cheap upper bound on sequence selectivity
/// for the ship-ids decision.
double MinRuleSelectivity(const RuleSequence& seq) {
  double s = 1.0;
  for (const auto& r : seq.rules) s = std::min(s, r.selectivity);
  return s;
}

/// Intermediate-output optimization (Section 7.3, optimization 2): ship only
/// B-row ids to reducers when an id index of B fits in reducer memory AND
/// the rule sequence keeps enough pairs that the intermediate output is huge.
bool ShuffleIdsOnly(const Cluster& cluster, const Table& b,
                    const RuleSequence& seq) {
  return b.MemoryUsage() <= cluster.config().reducer_memory_bytes &&
         MinRuleSelectivity(seq) >= 1e-4;
}

}  // namespace

// --- operator implementations -----------------------------------------------------

namespace {

/// Shared core of apply_all and apply_greedy: mappers probe with `probe_fn`
/// (full rule or one clause), reducers apply the sequence.
ApplyResult RunKeyedByA(
    const Table& a, const Table& b, const RuleSequence& seq,
    const FeatureSet& fs, const IndexCatalog& catalog, Cluster* cluster,
    const std::string& name,
    const std::function<CandidateSet(const ClauseProber&, const Table&,
                                     RowId)>& probe_fn,
    double map_setup_seconds) {
  ClauseProber prober(&catalog, &fs, a.num_rows());
  RuleApplier applier(seq, &fs, &a, &b);
  bool ship_ids = ShuffleIdsOnly(*cluster, b, seq);
  const uint32_t b_bytes =
      ship_ids ? 8 : static_cast<uint32_t>(AvgRowBytes(b));
  const uint32_t a_bytes = static_cast<uint32_t>(AvgRowBytes(a));

  ApplyResult result;
  result.index_profile = catalog.MergedBlockProfile();
  // The reduce function is a pure per-value pass over one A-row's bucket, so
  // the skew-aware partitioner may pair-range split hot A-rows. When that
  // partitioner is on and the build-time profile flags block skew, also cut
  // map splits finer: probe cost concentrates on rows carrying hot tokens,
  // and smaller splits give the LPT scheduler room (output bytes are
  // invariant to the split count — emitters merge in split order).
  JobOptions jopts{.name = name,
                   .map_setup_seconds = map_setup_seconds,
                   .splittable_reduce = true};
  if (cluster->config().partitioner == ShufflePartitioner::kSkewAware &&
      result.index_profile.skew >= 2.0) {
    jopts.num_splits = static_cast<size_t>(4 * cluster->total_map_slots());
  }
  auto input = InterleavedInput(a.num_rows(), b.num_rows());
  auto job = RunMapReduce<TaggedRow, RowId, ShuffleVal, CandidatePair>(
      cluster, input, jopts,
      [&](const TaggedRow& rec, Emitter<RowId, ShuffleVal>* em) {
        if (rec.from_a) {
          em->Emit(rec.row, ShuffleVal{-1, 0, a_bytes});
          return;
        }
        CandidateSet cand = probe_fn(prober, b, rec.row);
        const ShuffleVal v{static_cast<int32_t>(rec.row), 0, b_bytes};
        if (cand.all) {
          for (RowId ar = 0; ar < a.num_rows(); ++ar) em->Emit(ar, v);
        } else {
          for (RowId ar : cand.rows) em->Emit(ar, v);
        }
      },
      [&](const RowId& a_row, const ValueList<ShuffleVal>& vals,
          TaskVector<CandidatePair>* out) {
        for (const auto& v : vals) {
          if (v.tag < 0) continue;  // the A-record marker
          Count(Counter::kCandidatesExamined);
          RowId b_row = static_cast<RowId>(v.tag);
          if (applier.Keep(a_row, b_row)) out->emplace_back(a_row, b_row);
        }
      });
  result.pairs = std::move(job.output);
  result.main_job = job.stats;
  result.time = job.stats.Total();
  result.candidates_examined =
      job.stats.counters[Counter::kCandidatesExamined];
  return result;
}

/// Shared core of apply_conjunct and apply_predicate: mappers are grouped by
/// unit (clause or predicate); reducers check CNF coverage then apply R.
struct Unit {
  int clause_id;
  const CnfClause* clause;       // for apply_conjunct
  const Predicate* predicate;    // for apply_predicate (nullptr otherwise)
};

ApplyResult RunKeyedByPair(const Table& a, const Table& b,
                           const RuleSequence& seq, const FeatureSet& fs,
                           const IndexCatalog& catalog, Cluster* cluster,
                           const std::string& name,
                           const std::vector<Unit>& units,
                           const std::vector<const CnfClause*>&
                               filterable_clauses,
                           double map_setup_seconds) {
  ClauseProber prober(&catalog, &fs, a.num_rows());
  RuleApplier applier(seq, &fs, &a, &b);
  bool ship_ids = ShuffleIdsOnly(*cluster, b, seq);
  const uint32_t pair_bytes =
      ship_ids ? 12 : static_cast<uint32_t>(AvgRowBytes(a) + AvgRowBytes(b));

  // Input: every (unit, B-row) combination.
  struct UnitRow {
    int unit;
    RowId b_row;
  };
  std::vector<UnitRow> input;
  input.reserve(units.size() * b.num_rows());
  for (int u = 0; u < static_cast<int>(units.size()); ++u) {
    for (RowId r = 0; r < b.num_rows(); ++r) input.push_back({u, r});
  }

  auto active_count = [&](RowId b_row) {
    uint32_t k = 0;
    for (const CnfClause* c : filterable_clauses) {
      if (prober.ClauseActive(*c, b, b_row)) ++k;
    }
    return k;
  };

  ApplyResult result;
  result.index_profile = catalog.MergedBlockProfile();
  // Keyed by pair: buckets are tiny (one per surviving pair) but the reduce
  // reads vals[0] and aggregates a clause mask over the whole bucket, so it
  // is NOT splittable; the skew-aware partitioner still bin-packs whole
  // blocks.
  auto job = RunMapReduce<UnitRow, uint64_t, ShuffleVal, CandidatePair>(
      cluster, input, {.name = name, .map_setup_seconds = map_setup_seconds},
      [&](const UnitRow& rec, Emitter<uint64_t, ShuffleVal>* em) {
        const Unit& unit = units[rec.unit];
        uint32_t k_b = active_count(rec.b_row);
        if (k_b == 0) {
          // No clause can filter this B-row: the designated first unit emits
          // the full A side so the pair is not lost.
          if (rec.unit == 0) {
            for (RowId ar = 0; ar < a.num_rows(); ++ar) {
              em->Emit(PackPair(ar, rec.b_row),
                       ShuffleVal{-1, 0, pair_bytes});
            }
          }
          return;
        }
        if (!prober.ClauseActive(*unit.clause, b, rec.b_row)) return;
        CandidateSet cand =
            unit.predicate != nullptr
                ? prober.ProbePredicate(*unit.predicate, b, rec.b_row)
                : prober.ProbeClause(*unit.clause, b, rec.b_row);
        if (cand.all) return;  // inactive for this row after all
        for (RowId ar : cand.rows) {
          em->Emit(PackPair(ar, rec.b_row),
                   ShuffleVal{unit.clause_id, k_b, pair_bytes});
        }
      },
      [&](const uint64_t& key, const ValueList<ShuffleVal>& vals,
          TaskVector<CandidatePair>* out) {
        RowId a_row = static_cast<RowId>(key >> 32);
        RowId b_row = static_cast<RowId>(key & 0xFFFFFFFFu);
        bool survives;
        if (vals[0].tag < 0) {
          survives = true;  // unfilterable B-row, emitted in full
        } else {
          // Count distinct clause ids among hits. Values arrive in split
          // order, i.e. in unit order, and units are in clause order, so
          // equal ids are adjacent.
          uint32_t clauses = 0;
          int32_t last = -1;
          for (const auto& v : vals) {
            if (v.tag != last) ++clauses;
            last = v.tag;
          }
          survives = clauses >= vals[0].aux;
        }
        if (!survives) return;
        Count(Counter::kCandidatesExamined);
        if (applier.Keep(a_row, b_row)) out->emplace_back(a_row, b_row);
      });
  result.pairs = std::move(job.output);
  result.main_job = job.stats;
  result.time = job.stats.Total();
  result.candidates_examined =
      job.stats.counters[Counter::kCandidatesExamined];
  return result;
}

}  // namespace

double IndexLoadSeconds(size_t bytes) {
  return static_cast<double>(bytes) / (200.0 * 1024 * 1024);
}

namespace {

/// Filterable clause with minimal selectivity (most pruning power), or
/// nullptr if none is filterable.
const CnfClause* MostSelectiveClause(
    const std::vector<const CnfClause*>& filterable) {
  const CnfClause* best = nullptr;
  for (const CnfClause* c : filterable) {
    if (best == nullptr || c->selectivity < best->selectivity) best = c;
  }
  return best;
}

/// Memory needed by the indexes of one clause / one predicate.
size_t ClauseMemory(const CnfClause& clause, const FeatureSet& fs,
                    const IndexCatalog& catalog) {
  std::vector<IndexNeed> needs;
  for (const auto& pred : clause.predicates) {
    needs.push_back(ClassifyPredicate(pred, fs));
  }
  return catalog.MemoryUsageFor(needs);
}

size_t PredicateMemory(const Predicate& pred, const FeatureSet& fs,
                       const IndexCatalog& catalog) {
  return catalog.MemoryUsageFor({ClassifyPredicate(pred, fs)});
}

/// What one mapper of `method` holds in memory: all of Q's indexes
/// (apply_all), the most selective clause's (apply_greedy), the largest
/// clause's (apply_conjunct), the largest predicate's (apply_predicate), the
/// smaller table (MapSide), or nothing (ReduceSplit). The index operators
/// need a non-empty `filterable`.
size_t OperatorMemory(ApplyMethod method, const Table& a, const Table& b,
                      const CnfRule& q,
                      const std::vector<const CnfClause*>& filterable,
                      const FeatureSet& fs, const IndexCatalog& catalog) {
  size_t mem = 0;
  switch (method) {
    case ApplyMethod::kApplyAll:
      return catalog.MemoryUsageFor(IndexBuilder::NeedsOfCnf(q, fs));
    case ApplyMethod::kApplyGreedy:
      return ClauseMemory(*MostSelectiveClause(filterable), fs, catalog);
    case ApplyMethod::kApplyConjunct:
      for (const CnfClause* c : filterable) {
        mem = std::max(mem, ClauseMemory(*c, fs, catalog));
      }
      return mem;
    case ApplyMethod::kApplyPredicate:
      for (const CnfClause* c : filterable) {
        for (const auto& pred : c->predicates) {
          mem = std::max(mem, PredicateMemory(pred, fs, catalog));
        }
      }
      return mem;
    case ApplyMethod::kMapSide:
      return std::min(a.MemoryUsage(), b.MemoryUsage());
    case ApplyMethod::kReduceSplit:
      return 0;
  }
  return mem;
}

ApplyResult RunMapSide(const Table& a, const Table& b,
                       const RuleSequence& seq, const FeatureSet& fs,
                       Cluster* cluster, double setup) {
  // The smaller table sits in mapper memory.
  const Table& small = a.MemoryUsage() <= b.MemoryUsage() ? a : b;
  RuleApplier applier(seq, &fs, &a, &b);
  // Iterate the larger table as input; inner-loop the in-memory table.
  bool iterate_b = &small == &a;
  std::vector<RowId> input(iterate_b ? b.num_rows() : a.num_rows());
  for (RowId r = 0; r < input.size(); ++r) input[r] = r;
  ApplyResult result;
  auto job = RunMapOnly<RowId, CandidatePair>(
      cluster, input, {.name = "MapSide", .map_setup_seconds = setup},
      [&](const RowId& outer, TaskVector<CandidatePair>* out) {
        if (iterate_b) {
          for (RowId ar = 0; ar < a.num_rows(); ++ar) {
            if (applier.Keep(ar, outer)) out->emplace_back(ar, outer);
          }
        } else {
          for (RowId br = 0; br < b.num_rows(); ++br) {
            if (applier.Keep(outer, br)) out->emplace_back(outer, br);
          }
        }
      });
  result.pairs = std::move(job.output);
  result.main_job = job.stats;
  result.time = job.stats.Total();
  result.candidates_examined = a.num_rows() * b.num_rows();
  return result;
}

ApplyResult RunReduceSplit(const Table& a, const Table& b,
                           const RuleSequence& seq, const FeatureSet& fs,
                           Cluster* cluster) {
  RuleApplier applier(seq, &fs, &a, &b);
  // Mappers spread B-rows over K blocks of A; reducers evaluate block x B.
  const uint32_t num_blocks =
      std::max<uint32_t>(1, cluster->total_reduce_slots());
  const size_t block_size = (a.num_rows() + num_blocks - 1) / num_blocks;
  const uint32_t b_bytes = static_cast<uint32_t>(AvgRowBytes(b));
  std::vector<RowId> input(b.num_rows());
  for (RowId r = 0; r < input.size(); ++r) input[r] = r;
  ApplyResult result;
  // The reduce is a pure per-value (per-B-row) pass over one A-block, so
  // hot blocks may be pair-range split by the skew-aware partitioner.
  auto job = RunMapReduce<RowId, uint32_t, ShuffleVal, CandidatePair>(
      cluster, input, {.name = "ReduceSplit", .splittable_reduce = true},
      [&](const RowId& b_row, Emitter<uint32_t, ShuffleVal>* em) {
        for (uint32_t blk = 0; blk < num_blocks; ++blk) {
          em->Emit(blk, ShuffleVal{static_cast<int32_t>(b_row), 0, b_bytes});
        }
      },
      [&](const uint32_t& blk, const ValueList<ShuffleVal>& vals,
          TaskVector<CandidatePair>* out) {
        RowId lo = static_cast<RowId>(blk) * block_size;
        RowId hi = std::min<size_t>(lo + block_size, a.num_rows());
        for (const auto& v : vals) {
          RowId b_row = static_cast<RowId>(v.tag);
          for (RowId ar = lo; ar < hi; ++ar) {
            if (applier.Keep(ar, b_row)) out->emplace_back(ar, b_row);
          }
        }
      });
  result.pairs = std::move(job.output);
  result.main_job = job.stats;
  result.time = job.stats.Total();
  result.candidates_examined = a.num_rows() * b.num_rows();
  return result;
}

}  // namespace

Result<ApplyResult> ApplyBlockingRules(const Table& a, const Table& b,
                                       const RuleSequence& raw_seq,
                                       const FeatureSet& fs,
                                       const IndexCatalog& catalog,
                                       Cluster* cluster, ApplyMethod method) {
  if (raw_seq.rules.empty()) {
    return Status::InvalidArgument("empty rule sequence");
  }
  RuleSequence seq = SimplifySequence(raw_seq);
  CnfRule q = ToCnf(seq);
  const size_t mapper_mem = cluster->config().mapper_memory_bytes;

  std::vector<const CnfClause*> filterable;
  for (const auto& clause : q.clauses) {
    if (ClauseFilterable(clause, fs, catalog)) filterable.push_back(&clause);
  }
  if (method != ApplyMethod::kMapSide && method != ApplyMethod::kReduceSplit) {
    FALCON_RETURN_NOT_OK(CheckProbeViews(filterable, fs, catalog, b));
    if (filterable.empty()) {
      return Status::InvalidArgument(std::string(ApplyMethodName(method)) +
                                     ": no filterable clause");
    }
  }
  const size_t mem = OperatorMemory(method, a, b, q, filterable, fs, catalog);
  if (mem > mapper_mem) {
    return Status::OutOfMemory(
        std::string(ApplyMethodName(method)) + ": needs " +
        std::to_string(mem) + " B in each mapper, more than its " +
        std::to_string(mapper_mem) + " B");
  }
  const double setup = IndexLoadSeconds(mem);

  switch (method) {
    case ApplyMethod::kApplyAll:
      return RunKeyedByA(
          a, b, seq, fs, catalog, cluster, "apply_all",
          [&q](const ClauseProber& prober, const Table& b_table,
               RowId b_row) { return prober.ProbeRule(q, b_table, b_row); },
          setup);
    case ApplyMethod::kApplyGreedy: {
      const CnfClause* best = MostSelectiveClause(filterable);
      return RunKeyedByA(
          a, b, seq, fs, catalog, cluster, "apply_greedy",
          [best](const ClauseProber& prober, const Table& b_table,
                 RowId b_row) {
            return prober.ProbeClause(*best, b_table, b_row);
          },
          setup);
    }
    case ApplyMethod::kApplyConjunct: {
      std::vector<Unit> units;
      for (size_t i = 0; i < filterable.size(); ++i) {
        units.push_back(Unit{static_cast<int>(i), filterable[i], nullptr});
      }
      return RunKeyedByPair(a, b, seq, fs, catalog, cluster,
                            "apply_conjunct", units, filterable, setup);
    }
    case ApplyMethod::kApplyPredicate: {
      std::vector<Unit> units;
      for (size_t i = 0; i < filterable.size(); ++i) {
        for (const auto& pred : filterable[i]->predicates) {
          units.push_back(Unit{static_cast<int>(i), filterable[i], &pred});
        }
      }
      return RunKeyedByPair(a, b, seq, fs, catalog, cluster,
                            "apply_predicate", units, filterable, setup);
    }
    case ApplyMethod::kMapSide:
      return RunMapSide(a, b, seq, fs, cluster, setup);
    case ApplyMethod::kReduceSplit:
      return RunReduceSplit(a, b, seq, fs, cluster);
  }
  return Status::Internal("unknown apply method");
}

ApplyMethod SelectApplyMethod(const Table& a, const Table& b,
                              const RuleSequence& raw_seq,
                              const FeatureSet& fs,
                              const IndexCatalog& catalog,
                              const Cluster& cluster) {
  RuleSequence seq = SimplifySequence(raw_seq);
  CnfRule q = ToCnf(seq);
  const size_t mapper_mem = cluster.config().mapper_memory_bytes;

  std::vector<const CnfClause*> filterable;
  for (const auto& clause : q.clauses) {
    if (ClauseFilterable(clause, fs, catalog)) filterable.push_back(&clause);
  }

  // The operator picked is one whose memory requirement fits, so it runs.
  auto fits = [&](ApplyMethod m) {
    return OperatorMemory(m, a, b, q, filterable, fs, catalog) <= mapper_mem;
  };
  if (!filterable.empty()) {
    // Rule 1 (Section 10.1): if the most selective conjunct is almost as
    // selective as Q itself, apply_greedy wins.
    const CnfClause* best = MostSelectiveClause(filterable);
    if (best->selectivity > 0.0 && seq.selectivity / best->selectivity > 0.8 &&
        fits(ApplyMethod::kApplyGreedy)) {
      return ApplyMethod::kApplyGreedy;
    }
    // Rule 2: prefer apply_all, then apply_conjunct, then apply_predicate,
    // depending on what fits in a mapper.
    for (ApplyMethod m : {ApplyMethod::kApplyAll, ApplyMethod::kApplyConjunct,
                          ApplyMethod::kApplyPredicate}) {
      if (fits(m)) return m;
    }
  }
  return fits(ApplyMethod::kMapSide) ? ApplyMethod::kMapSide
                                     : ApplyMethod::kReduceSplit;
}

}  // namespace falcon
