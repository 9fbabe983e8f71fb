#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/checked.h"
#include "util/distributions.h"
#include "util/fenwick.h"
#include "util/hex.h"
#include "util/prng.h"
#include "util/status.h"
#include "util/time_queue.h"

#include "stats_support.h"

namespace fi::util {
namespace {

// ---------------------------------------------------------------------------
// PRNG
// ---------------------------------------------------------------------------

TEST(Prng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Prng, UniformBelowRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform_below(bound), bound);
  }
}

TEST(Prng, UniformBelowIsRoughlyUniform) {
  Xoshiro256 rng(99);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kSamples = 100'000;
  std::vector<std::uint64_t> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.uniform_below(kBuckets)];
  const std::vector<double> expected(kBuckets, kSamples / double(kBuckets));
  // chi^2 with 9 dof: 99.99th percentile ~ 33.7.
  EXPECT_LT(chi_squared_statistic(counts, expected), 33.7);
}

TEST(Prng, UniformDoubleInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    const double y = rng.uniform_double_open_zero();
    EXPECT_GT(y, 0.0);
    EXPECT_LE(y, 1.0);
  }
}

TEST(Prng, JumpCreatesIndependentStream) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

TEST(Distributions, ExponentialMeanMatches) {
  Xoshiro256 rng(11);
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) {
    stats.add(sample_exponential(rng, 3.0));
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_GT(stats.min(), 0.0);
}

TEST(Distributions, NormalMomentsMatch) {
  Xoshiro256 rng(12);
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) {
    stats.add(sample_normal(rng, 5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Distributions, PositiveNormalIsPositive) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GT(sample_positive_normal(rng, 1.0, 1.0), 0.0);
  }
}

TEST(Distributions, PoissonSmallMean) {
  Xoshiro256 rng(14);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) {
    stats.add(static_cast<double>(sample_poisson(rng, 4.5)));
  }
  EXPECT_NEAR(stats.mean(), 4.5, 0.1);
  EXPECT_NEAR(stats.variance(), 4.5, 0.2);
}

TEST(Distributions, PoissonLargeMeanUsesPTRS) {
  Xoshiro256 rng(15);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) {
    stats.add(static_cast<double>(sample_poisson(rng, 200.0)));
  }
  EXPECT_NEAR(stats.mean(), 200.0, 1.0);
  EXPECT_NEAR(stats.variance(), 200.0, 10.0);
}

TEST(Distributions, PoissonZeroMean) {
  Xoshiro256 rng(16);
  EXPECT_EQ(sample_poisson(rng, 0.0), 0u);
}

TEST(Distributions, ZipfRanksDecreaseInFrequency) {
  Xoshiro256 rng(17);
  std::vector<std::uint64_t> counts(11, 0);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t k = sample_zipf(rng, 10, 1.2);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 10u);
    ++counts[k];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_GT(counts[5], counts[10]);
}

// Exact draws, so a change to the rejection loop's arithmetic shows even
// where no shipped config reaches it: s = 1 (the log branch) and s > 1.
// One sampler reused across draws (the traffic tick's path) must give the
// same stream as one-shot `sample_zipf` calls.
TEST(Distributions, ZipfDrawsArePinned) {
  const struct {
    std::uint64_t n;
    double s;
    std::vector<std::uint64_t> draws;
  } cases[] = {
      {10,
       1.0,
       {9, 2, 8, 9, 4, 2, 1, 6, 2, 3, 1, 3,
        10, 2, 1, 6, 2, 5, 1, 2, 8, 5, 1, 2,
        1, 2, 1, 6, 2, 1, 1, 2}},
      {10'000,
       0.8,
       {7893, 270, 6017, 8076, 2072, 337, 4, 4627, 274, 1135, 3, 818,
        9565, 532, 3, 4211, 187, 2495, 1, 314, 6180, 3037, 10, 398,
        22, 307, 5, 4075, 654, 6, 1, 232}},
      {10'000,
       0.9,
       {7104, 92, 4827, 7342, 1123, 119, 2, 3340, 94, 515, 1, 342,
        9375, 203, 2, 2931, 61, 1438, 1, 110, 5013, 1874, 4, 144,
        8, 107, 2, 2800, 260, 3, 1, 78}},
      {10'000,
       1.2,
       {2432, 5, 740, 2736, 48, 6, 1, 305, 5, 19, 1, 13,
        7381, 8, 1, 232, 4, 68, 1, 5, 820, 103, 1, 6,
        1, 5, 1, 212, 10, 1, 1, 4}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " s=" << c.s);
    Xoshiro256 one_shot(19);
    Xoshiro256 reused(19);
    const ZipfSampler sampler(c.n, c.s);
    for (const std::uint64_t expected : c.draws) {
      EXPECT_EQ(sample_zipf(one_shot, c.n, c.s), expected);
      EXPECT_EQ(sampler(reused), expected);
    }
  }
}

TEST(Distributions, TableThreeSizeDistributionsHaveExpectedMeans) {
  Xoshiro256 rng(18);
  const struct {
    SizeDistribution dist;
    double mean;
    double tol;
  } cases[] = {
      {SizeDistribution::uniform01, 0.5, 0.01},
      {SizeDistribution::uniform12, 1.5, 0.01},
      {SizeDistribution::exponential, 1.0, 0.02},
      // Truncation to positives shifts the normal means slightly upward.
      {SizeDistribution::normal_mu_var, 1.29, 0.05},
      {SizeDistribution::normal_mu_2var, 1.06, 0.05},
  };
  for (const auto& c : cases) {
    RunningStats stats;
    for (int i = 0; i < 100'000; ++i) stats.add(sample_size(rng, c.dist));
    EXPECT_NEAR(stats.mean(), c.mean, c.tol)
        << size_distribution_name(c.dist);
    EXPECT_GT(stats.min(), 0.0) << size_distribution_name(c.dist);
  }
}

// ---------------------------------------------------------------------------
// Fenwick tree
// ---------------------------------------------------------------------------

TEST(Fenwick, PrefixSumsMatchNaive) {
  Xoshiro256 rng(21);
  FenwickTree tree(100);
  std::vector<std::uint64_t> weights(100, 0);
  for (int round = 0; round < 500; ++round) {
    const std::size_t i = rng.uniform_below(100);
    const std::uint64_t w = rng.uniform_below(1000);
    tree.set(i, w);
    weights[i] = w;
    std::uint64_t naive = 0;
    const std::size_t upto = rng.uniform_below(101);
    for (std::size_t j = 0; j < upto; ++j) naive += weights[j];
    ASSERT_EQ(tree.prefix_sum(upto), naive);
  }
}

TEST(Fenwick, PushBackExtendsTree) {
  FenwickTree tree;
  std::uint64_t total = 0;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    tree.push_back(i);
    total += i;
    ASSERT_EQ(tree.total(), total);
    ASSERT_EQ(tree.prefix_sum(tree.size()), total);
  }
  // Spot-check interior prefix sums: sum of 1..k.
  for (std::size_t k : {1u, 7u, 64u, 65u, 255u, 300u}) {
    EXPECT_EQ(tree.prefix_sum(k), k * (k + 1) / 2);
  }
}

TEST(Fenwick, FindByPrefixReturnsCorrectSlot) {
  FenwickTree tree(5);
  tree.set(0, 10);
  tree.set(1, 0);
  tree.set(2, 5);
  tree.set(3, 0);
  tree.set(4, 1);
  EXPECT_EQ(tree.find_by_prefix(0), 0u);
  EXPECT_EQ(tree.find_by_prefix(9), 0u);
  EXPECT_EQ(tree.find_by_prefix(10), 2u);
  EXPECT_EQ(tree.find_by_prefix(14), 2u);
  EXPECT_EQ(tree.find_by_prefix(15), 4u);
}

TEST(Fenwick, SamplingProportionalToWeights) {
  Xoshiro256 rng(22);
  FenwickTree tree(4);
  tree.set(0, 1);
  tree.set(1, 2);
  tree.set(2, 3);
  tree.set(3, 4);
  std::vector<std::uint64_t> counts(4, 0);
  constexpr int kSamples = 200'000;
  for (int i = 0; i < kSamples; ++i) ++counts[tree.sample(rng)];
  std::vector<double> expected;
  for (double w : {1.0, 2.0, 3.0, 4.0}) expected.push_back(kSamples * w / 10.0);
  EXPECT_LT(chi_squared_statistic(counts, expected), 21.1);  // 3 dof, 99.99%
}

TEST(Fenwick, ZeroWeightSlotsNeverSampled) {
  Xoshiro256 rng(23);
  FenwickTree tree(10);
  tree.set(3, 100);
  tree.set(7, 100);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t s = tree.sample(rng);
    EXPECT_TRUE(s == 3 || s == 7);
  }
}

TEST(Fenwick, SampleFromEmptyThrows) {
  Xoshiro256 rng(24);
  FenwickTree tree(3);
  EXPECT_THROW((void)tree.sample(rng), InvariantViolation);
}

// ---------------------------------------------------------------------------
// TimeQueue
// ---------------------------------------------------------------------------

using Timed = std::vector<std::pair<Time, int>>;

/// Every queued item in `for_each` order.
Timed listed(const TimeQueue<int>& queue) {
  Timed out;
  queue.for_each([&out](Time at, int item) { out.emplace_back(at, item); });
  return out;
}

/// Pops every item, in pop order.
Timed drain(TimeQueue<int>& queue) {
  Timed out;
  while (!queue.empty()) {
    out.emplace_back(queue.next_time(), queue.front());
    queue.pop();
  }
  return out;
}

TEST(TimeQueue, PopsByTimeThenPushOrder) {
  TimeQueue<int> queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_time(), kNoTime);
  queue.push(20, 1);
  queue.push(20, 2);  // equal to the newest time: behind 1
  queue.push(30, 3);  // later than every time
  queue.push(10, 4);  // earlier than every time
  queue.push(25, 5);  // between two times
  queue.push(20, 6);  // equal to a middle time
  queue.push(10, 7);  // equal to the front time
  EXPECT_EQ(queue.size(), 7u);
  EXPECT_EQ(queue.next_time(), 10u);
  EXPECT_EQ(queue.front(), 4);
  const Timed want = {{10, 4}, {10, 7}, {20, 1}, {20, 2},
                      {20, 6}, {25, 5}, {30, 3}};
  EXPECT_EQ(listed(queue), want);
  EXPECT_EQ(drain(queue), want);
  EXPECT_EQ(queue.next_time(), kNoTime);
}

TEST(TimeQueue, PushAtTheDrainingFrontTimeQueuesBehindIt) {
  TimeQueue<int> queue;
  for (int i = 0; i < 3; ++i) queue.push(5, i);
  queue.push(9, 100);
  queue.pop();  // the bucket at 5 is part drained
  queue.push(5, 3);
  queue.pop();
  queue.push(5, 4);
  EXPECT_EQ(queue.size(), 4u);
  const Timed want = {{5, 2}, {5, 3}, {5, 4}, {9, 100}};
  EXPECT_EQ(listed(queue), want);
  EXPECT_EQ(drain(queue), want);
}

TEST(TimeQueue, EarlierPushesAfterDrainedTimesStayOrdered) {
  // Draining the times 10 and 20 leaves retired slots before the live
  // ones; times earlier than every live one fill them, then the front.
  TimeQueue<int> queue;
  for (int t = 1; t <= 6; ++t) queue.push(10 * t, t);
  queue.pop();
  queue.pop();
  queue.push(15, 7);
  queue.push(5, 8);
  queue.push(3, 9);
  queue.push(40, 10);
  EXPECT_EQ(listed(queue), (Timed{{3, 9}, {5, 8}, {15, 7}, {30, 3},
                                  {40, 4}, {40, 10}, {50, 5}, {60, 6}}));
  // Draining past half the slots compacts them; order must not move.
  for (int i = 0; i < 4; ++i) queue.pop();
  queue.push(45, 11);
  queue.push(35, 12);
  EXPECT_EQ(drain(queue), (Timed{{35, 12}, {40, 4}, {40, 10}, {45, 11},
                                 {50, 5}, {60, 6}}));
}

TEST(TimeQueue, ClearEmptiesAndStaysUsable) {
  TimeQueue<int> queue;
  for (int i = 0; i < 5; ++i) queue.push(i % 2 == 0 ? 3 : 8, i);
  queue.pop();
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.next_time(), kNoTime);
  EXPECT_TRUE(listed(queue).empty());
  EXPECT_THROW((void)queue.front(), InvariantViolation);
  EXPECT_THROW(queue.pop(), InvariantViolation);
  queue.push(1, 9);
  queue.push(0, 10);
  EXPECT_EQ(drain(queue), (Timed{{0, 10}, {1, 9}}));
}

// ---------------------------------------------------------------------------
// Checked arithmetic
// ---------------------------------------------------------------------------

TEST(Checked, AddOverflowThrows) {
  EXPECT_EQ(checked_add(2, 3), 5u);
  EXPECT_THROW(checked_add(~0ull, 1), std::overflow_error);
}

TEST(Checked, SubUnderflowThrows) {
  EXPECT_EQ(checked_sub(5, 3), 2u);
  EXPECT_THROW(checked_sub(3, 5), std::overflow_error);
}

TEST(Checked, MulOverflowThrows) {
  EXPECT_EQ(checked_mul(1ull << 30, 4), 1ull << 32);
  EXPECT_THROW(checked_mul(1ull << 63, 2), std::overflow_error);
}

TEST(Checked, MulDivUsesWideIntermediate) {
  // a*b overflows 64 bits but the quotient fits.
  EXPECT_EQ(checked_mul_div(1ull << 62, 6, 3), (1ull << 62) * 2);
  EXPECT_THROW(checked_mul_div(1, 1, 0), std::overflow_error);
  EXPECT_THROW(checked_mul_div(~0ull, 3, 1), std::overflow_error);
}

TEST(Checked, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2u);
  EXPECT_EQ(ceil_div(11, 5), 3u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
  EXPECT_THROW(ceil_div(1, 0), std::overflow_error);
}

// ---------------------------------------------------------------------------
// Hex
// ---------------------------------------------------------------------------

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> bytes{0x00, 0x01, 0xab, 0xff, 0x7e};
  EXPECT_EQ(to_hex(bytes), "0001abff7e");
  EXPECT_EQ(from_hex("0001abff7e"), bytes);
  EXPECT_EQ(from_hex("0001ABFF7E"), bytes);
}

TEST(Hex, RejectsMalformedInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(Stats, RunningStatsMatchKnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = err(ErrorCode::insufficient_space, "sector full");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::insufficient_space);
  EXPECT_EQ(s.to_string(), "INSUFFICIENT_SPACE: sector full");
}

TEST(Result, ValueAccess) {
  Result<int> r(42);
  EXPECT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, ErrorAccessThrowsOnValue) {
  Result<int> r(err(ErrorCode::not_found, "nope"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::not_found);
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(Result, OkStatusWithoutValueRejected) {
  EXPECT_THROW(Result<int>(Status::ok()), std::logic_error);
}

TEST(Check, MacroThrowsWithLocation) {
  try {
    FI_CHECK_MSG(1 == 2, "math broke: " << 42);
    FAIL() << "expected throw";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("math broke: 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace fi::util
