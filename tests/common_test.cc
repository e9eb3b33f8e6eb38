#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitmap.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/vtime.h"

namespace falcon {
namespace {

// --- Status / Result -------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad n");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad n");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad n");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfMemory, StatusCode::kBudgetExhausted,
        StatusCode::kCancelled, StatusCode::kIoError, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Status UseAssignOrReturn(int v, int* out) {
  FALCON_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  *out = parsed * 2;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  Status s = UseAssignOrReturn(-1, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng r(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng r(99);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = r.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = r.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng r(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = r.NextGaussian(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, BernoulliEdges) {
  Rng r(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

// Full engine state capture: a restored generator continues the EXACT
// stream — including the Box-Muller cached-gaussian half, which is the
// subtle part (dropping it would silently shift every later draw).
TEST(RngTest, SaveRestoreContinuesExactStream) {
  Rng rng(42);
  for (int i = 0; i < 17; ++i) rng.Next64();
  rng.NextGaussian(0.0, 1.0);  // leaves a cached gaussian pending
  RngState state = rng.SaveState();

  // Drain a reference continuation.
  std::vector<double> expect;
  for (int i = 0; i < 50; ++i) expect.push_back(rng.NextGaussian(0.0, 1.0));
  std::vector<uint64_t> expect_ints;
  for (int i = 0; i < 50; ++i) expect_ints.push_back(rng.Next64());

  // A fresh generator with the restored state produces the same stream.
  Rng other(999);
  other.RestoreState(state);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(other.NextGaussian(0.0, 1.0), expect[i]) << i;
  }
  for (int i = 0; i < 50; ++i) EXPECT_EQ(other.Next64(), expect_ints[i]) << i;
}

TEST(RngTest, StateSerdeRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 5; ++i) rng.NextDouble();
  rng.NextGaussian(2.0, 3.0);
  RngState state = rng.SaveState();

  BinaryWriter w;
  WriteRngState(state, &w);
  BinaryReader r(w.data());
  RngState back = ReadRngState(&r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(back == state);

  Rng resumed(0);
  resumed.RestoreState(back);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(resumed.Next64(), rng.Next64());
}

TEST(SerdeTest, PrimitivesRoundTripAndLatchShortReads) {
  BinaryWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.F64(-0.15625);
  w.F64(std::numeric_limits<double>::quiet_NaN());
  w.Str(std::string_view("hello\0world", 11));
  BinaryReader r(w.data());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.F64(), -0.15625);
  EXPECT_TRUE(std::isnan(r.F64()));  // NaN survives bit-exactly
  EXPECT_EQ(r.Str(), std::string("hello\0world", 11));
  EXPECT_TRUE(r.exhausted());

  BinaryReader short_r(std::string_view("\x01\x02", 2));
  short_r.U32();  // short read
  EXPECT_FALSE(short_r.ok());
  EXPECT_EQ(short_r.U64(), 0u);  // latched: further reads return zeros
  EXPECT_FALSE(short_r.exhausted());
}

// A count must fit what is left of the input: above remaining() / min_bytes
// it fails before any element is read or reserved, while the largest count
// the input can hold still parses.
TEST(SerdeTest, CountIsBoundedByTheRemainingBytes) {
  const std::vector<uint32_t> three = {7, 8, 9};
  BinaryWriter w;
  w.Seq(three, PutU32);
  {  // 12 bytes of 4-byte elements: 3 is the largest legal count.
    BinaryReader r(w.data());
    std::vector<uint32_t> got;
    EXPECT_TRUE(r.Seq(4, &got, GetU32));
    EXPECT_EQ(got, three);
    EXPECT_TRUE(r.exhausted());
  }
  BinaryWriter lie;
  lie.U64(4);  // one element more than the 12 bytes that follow hold
  for (uint32_t v : three) lie.U32(v);
  {
    BinaryReader r(lie.data());
    size_t element_reads = 0;
    std::vector<uint32_t> got = {1};
    EXPECT_FALSE(r.Seq(4, &got, [&](BinaryReader* in) {
      ++element_reads;
      return in->U32();
    }));
    EXPECT_EQ(element_reads, 0u);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(got.capacity(), 1u);  // nothing reserved beyond what it held
    EXPECT_EQ(r.remaining(), 12u);  // no element was consumed
  }
  {  // The same 12 bytes hold one element of 12 bytes, not two.
    BinaryReader r(lie.data());
    EXPECT_EQ(r.Count(12), 0u);
    EXPECT_FALSE(r.ok());
    BinaryWriter one;
    one.U64(1);
    one.Raw("twelve bytes", 12);
    BinaryReader r1(one.data());
    EXPECT_EQ(r1.Count(12), 1u);
    EXPECT_TRUE(r1.ok());
  }
  BinaryWriter huge;
  huge.U64(UINT64_MAX);
  BinaryReader r(huge.data());
  EXPECT_EQ(r.Count(1), 0u);
  EXPECT_FALSE(r.ok());
}

// The CRC frame hands back a view of its payload and refuses a truncated
// frame or a payload whose bytes changed.
TEST(SerdeTest, CrcFrameReturnsItsPayloadAndRejectsDamage) {
  BinaryWriter w;
  w.Framed("payload");
  w.U8(0x42);
  {
    BinaryReader r(w.data());
    auto payload = r.Framed("test frame");
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    EXPECT_EQ(*payload, "payload");
    EXPECT_EQ(payload->data(), w.data().data() + 12);  // a view, not a copy
    EXPECT_EQ(r.U8(), 0x42);
    EXPECT_TRUE(r.exhausted());
  }
  {
    BinaryReader r(std::string_view(w.data()).substr(0, 15));
    Status st = r.Framed("test frame").status();
    EXPECT_EQ(st.code(), StatusCode::kIoError);
    EXPECT_NE(st.ToString().find("truncated"), std::string::npos);
  }
  std::string flipped = w.data();
  flipped[13] ^= 0x01;
  BinaryReader r(flipped);
  Status st = r.Framed("test frame").status();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.ToString().find("CRC"), std::string::npos);
}

TEST(Crc32Test, KnownVectorAndSensitivity) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng r(17);
  auto sample = r.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementWholePopulation) {
  Rng r(17);
  auto sample = r.SampleWithoutReplacement(10, 50);
  EXPECT_EQ(sample.size(), 10u);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(RngTest, ForkIndependence) {
  Rng a(42);
  Rng child = a.Fork();
  // Child stream differs from parent's continued stream.
  EXPECT_NE(a.Next64(), child.Next64());
}

// --- Bitmap -----------------------------------------------------------------

TEST(BitmapTest, SetGetClear) {
  Bitmap b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_FALSE(b.Get(0));
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Get(0));
  EXPECT_TRUE(b.Get(64));
  EXPECT_TRUE(b.Get(129));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Get(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitmapTest, OrAndSemantics) {
  Bitmap a(100);
  Bitmap b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  EXPECT_EQ(a.OrCount(b), 3u);
  EXPECT_EQ(a.AndCount(b), 1u);
  Bitmap c = a;
  c.OrWith(b);
  EXPECT_EQ(c.Count(), 3u);
  EXPECT_TRUE(c.Get(1));
  EXPECT_TRUE(c.Get(99));
  Bitmap d = a;
  d.AndWith(b);
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.Get(50));
}

TEST(BitmapTest, ResetClearsAll) {
  Bitmap b(77);
  for (size_t i = 0; i < 77; i += 3) b.Set(i);
  b.Reset();
  EXPECT_EQ(b.Count(), 0u);
}

TEST(BitmapTest, OrCountMatchesMaterializedOr) {
  Rng r(5);
  Bitmap a(1000);
  Bitmap b(1000);
  for (int i = 0; i < 300; ++i) {
    a.Set(r.NextBelow(1000));
    b.Set(r.NextBelow(1000));
  }
  Bitmap c = a;
  c.OrWith(b);
  EXPECT_EQ(a.OrCount(b), c.Count());
}

// --- Strings ----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, TrimAndLower) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(ToLower("AbC-09"), "abc-09");
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble(" -42 ", &v));
  EXPECT_DOUBLE_EQ(v, -42.0);
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("12abc", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("inf", &v));
}

// --- VDuration ---------------------------------------------------------------

TEST(VTimeTest, Arithmetic) {
  VDuration d = VDuration::Minutes(2) + VDuration::Seconds(30);
  EXPECT_DOUBLE_EQ(d.seconds, 150.0);
  d -= VDuration::Seconds(30);
  EXPECT_DOUBLE_EQ(d.seconds, 120.0);
  EXPECT_TRUE(VDuration::Hours(1) > VDuration::Minutes(59));
  EXPECT_DOUBLE_EQ((VDuration::Seconds(10) * 3.0).seconds, 30.0);
}

TEST(VTimeTest, FormattingMatchesPaperStyle) {
  EXPECT_EQ(VDuration::Seconds(0.13).ToString(), "130ms");
  EXPECT_EQ(VDuration::Seconds(52 * 60).ToString(), "52m");
  EXPECT_EQ(VDuration::Seconds(5 * 60 + 7).ToString(), "5m 7s");
  EXPECT_EQ(VDuration(3600 + 4 * 60 + 1).ToString(), "1h 4m 1s");
  EXPECT_EQ(VDuration::Hours(2).ToString(), "2h 0m");
  EXPECT_EQ(VDuration::Seconds(42).ToString(), "42s");
}

TEST(VTimeTest, MinMax) {
  EXPECT_DOUBLE_EQ(Max(VDuration(1), VDuration(2)).seconds, 2.0);
  EXPECT_DOUBLE_EQ(Min(VDuration(1), VDuration(2)).seconds, 1.0);
}

// --- Fnv1a -----------------------------------------------------------------

TEST(StringsTest, Fnv1aKnownVectors) {
  // Reference values for 64-bit FNV-1a; they pin the shuffle partitioning
  // to a cross-platform stable function.
  EXPECT_EQ(Fnv1a(""), 14695981039346656037ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(StringsTest, Fnv1aOverloadsAgree) {
  const char buf[3] = {'f', 'o', 'o'};
  EXPECT_EQ(Fnv1a(buf, 3), Fnv1a("foo"));
  EXPECT_NE(Fnv1a("foo"), Fnv1a("bar"));
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(997);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(100,
                     [&](size_t i) { sum.fetch_add(static_cast<long>(i)); });
  }
  EXPECT_EQ(sum.load(), 50L * 4950L);
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](size_t i) {
                                  ran.fetch_add(1);
                                  if (i % 2 == 0) {
                                    throw std::runtime_error("task failed");
                                  }
                                }),
               std::runtime_error);
  // A failing task does not cancel its siblings: every index still runs.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, TrivialSizes) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadDegeneratesToCallerLoop) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace falcon
