#include "blocking/index_builder.h"

#include <algorithm>
#include <set>

#include "mapreduce/job.h"
#include "text/tokenize.h"

namespace falcon {
namespace {

void AddNeed(const Predicate& keep_pred, const FeatureSet& fs,
             std::set<IndexNeed>* needs) {
  IndexNeed need = ClassifyPredicate(keep_pred, fs);
  if (need.kind != IndexKind::kNone) needs->insert(need);
}

}  // namespace

std::vector<IndexNeed> IndexBuilder::NeedsOfCnf(const CnfRule& rule,
                                                const FeatureSet& fs) {
  std::set<IndexNeed> needs;
  for (const auto& clause : rule.clauses) {
    for (const auto& pred : clause.predicates) AddNeed(pred, fs, &needs);
  }
  return {needs.begin(), needs.end()};
}

std::vector<IndexNeed> IndexBuilder::NeedsOfRule(const Rule& rule,
                                                 const FeatureSet& fs) {
  RuleSequence seq;
  seq.rules.push_back(rule);
  return NeedsOfCnf(ToCnf(seq), fs);
}

std::vector<IndexNeed> IndexBuilder::GenericNeeds(const FeatureSet& fs) {
  std::set<IndexNeed> needs;
  for (const Feature& f : fs.features()) {
    if (!f.usable_for_blocking) continue;
    switch (f.fn) {
      case SimFunction::kExactMatch:
        needs.insert({IndexKind::kHash, f.col_a, f.tok});
        break;
      case SimFunction::kAbsDiff:
      case SimFunction::kRelDiff:
        needs.insert({IndexKind::kBTree, f.col_a, f.tok});
        break;
      case SimFunction::kJaccard:
      case SimFunction::kDice:
      case SimFunction::kOverlap:
      case SimFunction::kCosine:
        needs.insert({IndexKind::kTokenOrdering, f.col_a, f.tok});
        break;
      case SimFunction::kLevenshtein:
        needs.insert(
            {IndexKind::kTokenOrdering, f.col_a, Tokenization::kQgram3});
        break;
      default:
        break;
    }
  }
  return {needs.begin(), needs.end()};
}

VDuration IndexBuilder::Ensure(const std::vector<IndexNeed>& needs,
                               IndexCatalog* catalog) {
  VDuration spent = VDuration::Zero();
  for (const auto& need : needs) {
    if (need.kind == IndexKind::kNone || catalog->Has(need)) continue;
    switch (need.kind) {
      case IndexKind::kHash:
        spent += BuildHash(need.col_a, catalog);
        break;
      case IndexKind::kBTree:
        spent += BuildBTree(need.col_a, catalog);
        break;
      case IndexKind::kTokenOrdering:
        spent += BuildOrdering(need.col_a, need.tok, catalog);
        break;
      case IndexKind::kToken:
        spent += BuildInverted(need.col_a, need.tok, catalog);
        break;
      case IndexKind::kNone:
        break;
    }
  }
  return spent;
}

VDuration IndexBuilder::BuildHash(int col_a, IndexCatalog* catalog) {
  // Map-only job: each map task scans its split of A and inserts into the
  // shared index; insertion order matters and the index is not synchronized,
  // so the job opts into the serial path.
  HashIndex idx;
  std::vector<RowId> rows(a_->num_rows());
  for (RowId r = 0; r < a_->num_rows(); ++r) rows[r] = r;
  auto result = RunMapOnly<RowId, int>(
      cluster_, rows,
      {.name = "build-hash(col" + std::to_string(col_a) + ")",
       .serial = true},
      [&](const RowId& r, TaskVector<int>*) {
        idx.Insert(a_->Get(r, col_a), r);
      });
  catalog->PutHash(col_a, std::move(idx));
  return result.stats.Total();
}

VDuration IndexBuilder::BuildBTree(int col_a, IndexCatalog* catalog) {
  BTreeIndex idx;
  std::vector<RowId> rows(a_->num_rows());
  for (RowId r = 0; r < a_->num_rows(); ++r) rows[r] = r;
  auto result = RunMapOnly<RowId, int>(
      cluster_, rows,
      {.name = "build-btree(col" + std::to_string(col_a) + ")",
       .serial = true},
      [&](const RowId& r, TaskVector<int>*) {
        double v = a_->GetNumeric(r, col_a);
        if (std::isnan(v)) return;
        idx.Insert(v, r);
      });
  // NaN rows are tracked as missing (outside the measured insert loop they
  // are cheap to collect).
  for (RowId r = 0; r < a_->num_rows(); ++r) {
    if (std::isnan(a_->GetNumeric(r, col_a))) idx.AddMissing(r);
  }
  idx.Finalize();
  catalog->PutBTree(col_a, std::move(idx));
  return result.stats.Total();
}

VDuration IndexBuilder::BuildStoreView(const Table& t, const char* label,
                                       int col, Tokenization tok,
                                       IndexCatalog* catalog) {
  TokenStore* store = catalog->mutable_store(&t);
  if (store->view(col, tok) != nullptr) return VDuration::Zero();
  store->StartView(col, tok);
  std::vector<RowId> rows(t.num_rows());
  for (RowId r = 0; r < t.num_rows(); ++r) rows[r] = r;
  // Interning writes into the shared dictionary and appends to the shared
  // arena in row order -> serial path.
  auto result = RunMapOnly<RowId, int>(
      cluster_, rows,
      {.name = std::string("tokenize-store(") + label + ",col" +
               std::to_string(col) + "," + TokenizationName(tok) + ")",
       .serial = true},
      [&](const RowId& r, TaskVector<int>*) { store->AppendRow(r); });
  store->FinishView();
  return result.stats.Total();
}

VDuration IndexBuilder::EnsureTokenStores(const Table& b, const FeatureSet& fs,
                                          IndexCatalog* catalog) {
  VDuration spent = VDuration::Zero();
  for (const Feature& f : fs.features()) {
    if (!f.usable_for_blocking) continue;
    Tokenization tok;
    switch (f.fn) {
      case SimFunction::kJaccard:
      case SimFunction::kDice:
      case SimFunction::kOverlap:
      case SimFunction::kCosine:
        tok = f.tok;
        break;
      case SimFunction::kLevenshtein:
        tok = Tokenization::kQgram3;
        break;
      default:
        continue;
    }
    spent += BuildStoreView(*a_, "a", f.col_a, tok, catalog);
    spent += BuildStoreView(b, "b", f.col_b, tok, catalog);
  }
  return spent;
}

VDuration IndexBuilder::BuildOrdering(int col_a, Tokenization tok,
                                      IndexCatalog* catalog) {
  // The A-side store view is a prerequisite: tokenization/interning happens
  // once here, and every later job reads the interned ids.
  VDuration spent = BuildStoreView(*a_, "a", col_a, tok, catalog);
  const TokenSetView* view = catalog->store(a_)->view(col_a, tok);
  const TokenDictionary* dict = catalog->dict();
  std::vector<RowId> rows(a_->num_rows());
  for (RowId r = 0; r < a_->num_rows(); ++r) rows[r] = r;

  // MR job 1: token frequency counting over A, keyed by TokenId. Missing
  // rows have empty store views, so they emit nothing (as before).
  std::vector<uint64_t> freq(dict->size(), 0);
  auto job1 = RunMapReduce<RowId, TokenId, uint32_t, int>(
      cluster_, rows,
      // Reduce writes into the shared `freq` vector -> serial path.
      {.name = "token-freq(col" + std::to_string(col_a) + "," +
               TokenizationName(tok) + ")",
       .serial = true},
      [&](const RowId& r, Emitter<TokenId, uint32_t>* em) {
        for (TokenId id : view->row(r)) em->Emit(id, 1);
      },
      [&](const TokenId& id, const ValueList<uint32_t>& ones,
          TaskVector<int>*) { freq[id] += ones.size(); });
  spent += job1.stats.Total();

  // MR job 2: global sort of tokens by frequency. A single reducer performs
  // the sort; model its cost by actually building the ordering inside.
  TokenOrdering ordering;
  std::vector<int> one{0};
  auto job2 = RunMapOnly<int, int>(
      cluster_, one,
      {.name = "token-sort(col" + std::to_string(col_a) + ")",
       .num_splits = 1},
      [&](const int&, TaskVector<int>*) {
        ordering = TokenOrdering::FromIdFrequencies(dict, freq);
      });
  spent += job2.stats.Total();

  catalog->PutOrdering(col_a, tok, std::move(ordering));
  return spent;
}

VDuration IndexBuilder::BuildInverted(int col_a, Tokenization tok,
                                      IndexCatalog* catalog) {
  VDuration spent = VDuration::Zero();
  // Jobs 1-2 (ordering) may have been prebuilt during masking.
  if (catalog->ordering(col_a, tok) == nullptr) {
    spent += BuildOrdering(col_a, tok, catalog);
  }
  // No-op unless the catalog was handed a prebuilt ordering without a store.
  spent += BuildStoreView(*a_, "a", col_a, tok, catalog);
  const TokenSetView* view = catalog->store(a_)->view(col_a, tok);
  const TokenOrdering* ordering = catalog->ordering(col_a, tok);
  InvertedIndex inverted;

  // MR job 3: reorder every A-row's interned token set and build the
  // inverted index (full reordered id list with positions).
  std::vector<RowId> rows(a_->num_rows());
  for (RowId r = 0; r < a_->num_rows(); ++r) rows[r] = r;
  std::vector<TokenId> scratch;
  auto job3 = RunMapOnly<RowId, int>(
      cluster_, rows,
      // Builds the shared index in input order -> serial path.
      {.name = "build-inverted(col" + std::to_string(col_a) + "," +
               TokenizationName(tok) + ")",
       .serial = true},
      [&](const RowId& r, TaskVector<int>*) {
        if (a_->IsMissing(r, col_a)) {
          inverted.AddMissing(r);
          return;
        }
        auto ids = view->row(r);
        scratch.assign(ids.begin(), ids.end());
        ordering->SortIds(&scratch);
        if (scratch.empty()) {
          inverted.AddMissing(r);
        } else {
          inverted.AddPrefix(r, scratch, static_cast<uint32_t>(scratch.size()));
        }
      });
  spent += job3.stats.Total();
  // Compact the staged postings into the tight arena-backed CSR layout.
  inverted.Finalize();
  catalog->PutInverted(col_a, tok, std::move(inverted));
  return spent;
}

}  // namespace falcon
