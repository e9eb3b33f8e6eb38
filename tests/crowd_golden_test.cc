// Golden byte pins for the crowd platform stacks.
//
// Each test drives one platform stack through the same fixed sequence of
// calls (fresh batches under both vote schemes, re-posts carrying prior
// votes and answer caps, batches past a budget) and pins the FNV-1a hash of
// every result (the failing status code when a call fails) and of the top
// platform's SaveState() blob after every call. Any change to an answer
// stream, an RNG draw order, a result field or a state blob layout moves a
// pin; the values were recorded before the platforms shared one answer loop
// and the decorators one base, whose refactor had to keep them. The
// CrowdShapeTest cases check the result/request shape contract at the
// points that enforce it.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/serde.h"
#include "common/strings.h"
#include "crowd/faulty_crowd.h"
#include "crowd/journal.h"
#include "crowd/resilient_crowd.h"
#include "session/service.h"

namespace falcon {
namespace {

TruthOracle ModThreeOracle() {
  return [](RowId a, RowId b) { return (a + 2 * b) % 3 == 0; };
}

std::vector<PairQuestion> Pairs(RowId first, size_t n) {
  std::vector<PairQuestion> pairs;
  for (size_t i = 0; i < n; ++i) {
    const RowId a = first + static_cast<RowId>(i);
    pairs.emplace_back(a, a * 7 + 1);
  }
  return pairs;
}

LabelRequest Fresh(RowId first, size_t n, VoteScheme scheme) {
  LabelRequest req;
  req.pairs = Pairs(first, n);
  req.scheme = scheme;
  return req;
}

/// The call sequence every stack runs, in order.
std::vector<LabelRequest> Script() {
  std::vector<LabelRequest> script;
  script.push_back(Fresh(0, 23, VoteScheme::kMajority3));
  script.push_back(Fresh(100, 17, VoteScheme::kStrongMajority7));

  // Re-posts with priors: open, tied, already decided, one-sided.
  LabelRequest priors = Fresh(200, 12, VoteScheme::kMajority3);
  priors.prior = {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}, {3, 0},
                  {2, 2}, {0, 2}, {1, 2}, {0, 0}, {4, 3}, {1, 0}};
  script.push_back(priors);

  // Strong majority with priors and answer caps (0 = posted, no answer).
  LabelRequest capped = Fresh(300, 12, VoteScheme::kStrongMajority7);
  capped.prior = {{3, 1}, {2, 2}, {0, 0}, {3, 3}, {1, 0}, {0, 0},
                  {4, 0}, {0, 3}, {2, 1}, {0, 0}, {1, 1}, {5, 2}};
  capped.max_new_answers = {0, 1, 2, kNoAnswerCap, 3, 0,
                            kNoAnswerCap, 1, kNoAnswerCap, 7, 2, 1};
  script.push_back(capped);

  // Caps without priors.
  LabelRequest caps_only = Fresh(400, 10, VoteScheme::kMajority3);
  caps_only.max_new_answers = {0, 1, 2, 3, kNoAnswerCap, 1, 0, 2, 3, 1};
  script.push_back(caps_only);

  // Large batches that reach each stack's budget, then a small one.
  script.push_back(Fresh(500, 40, VoteScheme::kMajority3));
  script.push_back(Fresh(600, 30, VoteScheme::kStrongMajority7));
  script.push_back(Fresh(700, 5, VoteScheme::kMajority3));
  return script;
}

uint64_t HashResult(const Result<LabelResult>& r) {
  BinaryWriter w;
  if (!r.ok()) {
    w.U8(0);
    w.U32(static_cast<uint32_t>(r.status().code()));
    return Fnv1a(w.data());
  }
  w.U8(1);
  w.U64(r->labels.size());
  for (bool label : r->labels) w.U8(label ? 1 : 0);
  w.U64(r->num_questions);
  w.U64(r->num_answers);
  w.F64(r->cost);
  w.F64(r->latency.seconds);
  w.U64(r->answers_per_question.size());
  for (uint32_t c : r->answers_per_question) w.U32(c);
  w.U64(r->yes_votes.size());
  for (uint32_t c : r->yes_votes) w.U32(c);
  w.U8(r->truncated ? 1 : 0);
  return Fnv1a(w.data());
}

/// Runs the script on `top`: per call, the result's hash then the state
/// blob's hash.
std::vector<uint64_t> RunScript(CrowdPlatform* top) {
  std::vector<uint64_t> hashes;
  for (const LabelRequest& req : Script()) {
    hashes.push_back(HashResult(top->LabelBatch(req)));
    hashes.push_back(Fnv1a(top->SaveState()));
  }
  return hashes;
}

void ExpectPinned(const std::vector<uint64_t>& got,
                  const std::vector<uint64_t>& want) {
  EXPECT_EQ(got, want);
  if (got != want) {
    std::string listing;
    for (uint64_t h : got) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ull,\n", h);
      listing += buf;
    }
    ADD_FAILURE() << "recorded hashes:\n" << listing;
  }
}

SimulatedCrowdConfig SimConfig(double budget_cap) {
  SimulatedCrowdConfig c;
  c.error_rate = 0.2;
  c.seed = 41;
  c.budget_cap = budget_cap;
  return c;
}

TEST(CrowdGoldenTest, SimulatedCrowd) {
  SimulatedCrowd sim(SimConfig(5.0), ModThreeOracle());
  ExpectPinned(RunScript(&sim),
      {0x9ddd31feca83a0caull, 0xe1bf701dafead9cfull, 0x5d8feabfd851374eull,
       0xc38dd248ec8837aaull, 0xaa69159121f30c00ull, 0x63ba9d0354f2c5cdull,
       0x3215dfdc868c92ebull, 0xcd5a06c0e3036151ull, 0xdba80fa268a4f43aull,
       0xff097e35b821b37full, 0x64d19fb7cc54f70bull, 0xff097e35b821b37full,
       0x64d19fb7cc54f70bull, 0xff097e35b821b37full, 0xe341ff4b025bf6c6ull,
       0xe6735ff485b6e28eull});
}

TEST(CrowdGoldenTest, OracleCrowd) {
  OracleCrowdConfig c;
  c.error_rate = 0.1;
  c.seed = 3;
  OracleCrowd oracle(c, ModThreeOracle());
  ExpectPinned(RunScript(&oracle),
      {0x19a19e9bedaf9174ull, 0x05fb4693946cace9ull, 0xe28773b3697256cbull,
       0x7780a1aa4f9ba67dull, 0xe5800d26f429bf0full, 0xb407344d7ef7f70cull,
       0x7d1297cd61aa161cull, 0xcfdcf3d1fa9045feull, 0x9b718e7ca978ba38ull,
       0x07358dda5d37b9a2ull, 0xb365dc7fa2a50577ull, 0x1a7b8b7d09744d27ull,
       0x41a1414b958cd832ull, 0x04e274f32f6f6329ull, 0x107db4616b3b441bull,
       0xcad61539aa7f5dd9ull});
}

TEST(CrowdGoldenTest, JournalingOverLedgeredOverSimulated) {
  SimulatedCrowd sim(SimConfig(349.60), ModThreeOracle());
  TenantLedger ledger(5.0);
  LedgeredCrowd ledgered(&sim, &ledger, 0.02);
  JournalingCrowd journaling(&ledgered);
  ExpectPinned(RunScript(&journaling),
      {0x9ddd31feca83a0caull, 0xaae2e2397c3cdb77ull, 0x5d8feabfd851374eull,
       0x26d60fe85c50b1a5ull, 0xaa69159121f30c00ull, 0x52ea73fc70dcb382ull,
       0x3215dfdc868c92ebull, 0x1204c8e95beb4dc8ull, 0xdba80fa268a4f43aull,
       0x7beaf8a64fd51f4eull, 0xdea3a1fd314f81e3ull, 0xbfbc31e1f44908ecull,
       0x64d19fb7cc54f70bull, 0xf79e40db7f5b6ffdull, 0x64d19fb7cc54f70bull,
       0x230ce61003d8657aull});
}

TEST(CrowdGoldenTest, ResilientOverFaultyOverSimulated) {
  SimulatedCrowd sim(SimConfig(5.0), ModThreeOracle());
  FaultyCrowdConfig fc;
  fc.transient_error_rate = 0.15;
  fc.hit_expiry_rate = 0.15;
  fc.abandon_rate = 0.2;
  fc.spammer_rate = 0.1;
  fc.straggler_rate = 0.2;
  fc.straggler_multiplier = 3.0;
  fc.questions_per_hit = 5;
  fc.seed = 77;
  FaultyCrowd faulty(fc, &sim);
  ResilientCrowdConfig rc;
  rc.max_retries = 2;
  rc.max_requeues = 3;
  ResilientCrowd resilient(rc, &faulty);
  ExpectPinned(RunScript(&resilient),
      {0xabd6453522737e00ull, 0x958119613fc531dcull, 0x8370a016da62f92dull,
       0xeec409787d35c391ull, 0xd5711ac04e7942bfull, 0x8b8b0523eefc014full,
       0xc603fc6db1bca572ull, 0x91dfed06a5458b2cull, 0x3d8a1f68a4c758cbull,
       0x07eb8a220796407full, 0x24dc47a71fe97de9ull, 0x94934d6672ddc768ull,
       0x4965cf2d6ca39c79ull, 0xa9f4f33a7bdf2a37ull, 0xadd8b8ac7e6ee8b2ull,
       0xef0645149f527f77ull});
}

// ---------------------------------------------------------------------------
// The shape contract at its enforcement points
// ---------------------------------------------------------------------------

/// A platform whose results carry one answer count and one yes count per
/// call instead of one per pair.
class OneCountCrowd : public CrowdPlatform {
 public:
  Result<LabelResult> LabelBatch(const LabelRequest& request) override {
    LabelResult r;
    r.labels.assign(request.pairs.size(), true);
    r.answers_per_question = {3};
    r.yes_votes = {3};
    return r;
  }
};

/// Passes every call to the wrapped platform through LabelInner.
class PassThroughCrowd : public CrowdDecorator {
 public:
  explicit PassThroughCrowd(CrowdPlatform* inner) : CrowdDecorator(inner) {}
  Result<LabelResult> LabelBatch(const LabelRequest& request) override {
    return LabelInner(request);
  }

 protected:
  void SaveOwnState(BinaryWriter* w) const override { (void)w; }
  Status RestoreOwnState(BinaryReader* r) override {
    (void)r;
    return Status::OK();
  }
};

TEST(CrowdShapeTest, ResultNotParallelToPairsIsAnError) {
  OneCountCrowd bad;
  auto direct = bad.LabelPairs(Pairs(0, 4), VoteScheme::kMajority3);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kInternal);

  PassThroughCrowd decorator(&bad);
  auto forwarded = decorator.LabelBatch(Fresh(0, 4, VoteScheme::kMajority3));
  ASSERT_FALSE(forwarded.ok());
  EXPECT_EQ(forwarded.status().code(), StatusCode::kInternal);

  // One pair: one count is the right shape.
  EXPECT_TRUE(bad.LabelPairs(Pairs(0, 1), VoteScheme::kMajority3).ok());
}

// A request whose priors or caps are neither empty nor one per pair fails
// with kInvalidArgument at every platform and decorator, before anything
// is drawn, charged or recorded.
TEST(CrowdShapeTest, MalformedRequestFailsWithoutSideEffects) {
  LabelRequest two_priors = Fresh(0, 5, VoteScheme::kMajority3);
  two_priors.prior = {{1, 0}, {0, 1}};
  LabelRequest six_caps = Fresh(0, 5, VoteScheme::kStrongMajority7);
  six_caps.max_new_answers.assign(6, 1);

  SimulatedCrowd sim(SimConfig(349.60), ModThreeOracle());
  OracleCrowd oracle(OracleCrowdConfig{}, ModThreeOracle());
  SimulatedCrowd under_faulty(SimConfig(349.60), ModThreeOracle());
  FaultyCrowdConfig fc;
  fc.transient_error_rate = 0.5;
  FaultyCrowd faulty(fc, &under_faulty);
  SimulatedCrowd under_resilient(SimConfig(349.60), ModThreeOracle());
  ResilientCrowd resilient(ResilientCrowdConfig{}, &under_resilient);
  SimulatedCrowd under_ledgered(SimConfig(349.60), ModThreeOracle());
  TenantLedger ledger(100.0);
  LedgeredCrowd ledgered(&under_ledgered, &ledger, 0.02);
  SimulatedCrowd under_journal(SimConfig(349.60), ModThreeOracle());
  JournalingCrowd journaling(&under_journal);

  for (CrowdPlatform* platform :
       std::vector<CrowdPlatform*>{&sim, &oracle, &faulty, &resilient,
                                   &ledgered, &journaling}) {
    const std::string before = platform->SaveState();
    for (const LabelRequest& req : {two_priors, six_caps}) {
      auto r = platform->LabelBatch(req);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(platform->SaveState(), before);
  }
  EXPECT_DOUBLE_EQ(ledger.reserved(), 0.0);
  EXPECT_TRUE(journaling.journal().entries.empty());
}

}  // namespace
}  // namespace falcon
