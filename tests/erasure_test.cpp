#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "erasure/gf256.h"
#include "erasure/reed_solomon.h"
#include "util/check.h"
#include "util/prng.h"

namespace fi::erasure {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// ---------------------------------------------------------------------------
// GF(256) field axioms (property sweep over all elements)
// ---------------------------------------------------------------------------

TEST(GF256Field, MultiplicationCommutesAndAssociatesOnSample) {
  const GF256& gf = GF256::instance();
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 20'000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng());
    const auto b = static_cast<std::uint8_t>(rng());
    const auto c = static_cast<std::uint8_t>(rng());
    EXPECT_EQ(gf.mul(a, b), gf.mul(b, a));
    EXPECT_EQ(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
    // Distributivity over XOR addition.
    EXPECT_EQ(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
  }
}

TEST(GF256Field, InversesForAllNonzeroElements) {
  const GF256& gf = GF256::instance();
  for (int a = 1; a < 256; ++a) {
    const auto inv = gf.inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), inv), 1);
    EXPECT_EQ(gf.div(1, static_cast<std::uint8_t>(a)), inv);
  }
}

TEST(GF256Field, IdentityAndZero) {
  const GF256& gf = GF256::instance();
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 1),
              static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf.mul(static_cast<std::uint8_t>(a), 0), 0);
  }
  EXPECT_THROW((void)gf.inv(0), util::InvariantViolation);
  EXPECT_THROW((void)gf.div(1, 0), util::InvariantViolation);
}

TEST(GF256Field, GeneratorHasFullOrder) {
  const GF256& gf = GF256::instance();
  // 0x02 generates the multiplicative group: powers 0..254 are distinct.
  std::vector<bool> seen(256, false);
  for (unsigned e = 0; e < 255; ++e) {
    const std::uint8_t v = gf.exp(e);
    EXPECT_FALSE(seen[v]) << "duplicate power at e=" << e;
    seen[v] = true;
  }
}

TEST(GF256Field, PowMatchesRepeatedMultiplication) {
  const GF256& gf = GF256::instance();
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng());
    const unsigned p = static_cast<unsigned>(rng.uniform_below(10));
    std::uint8_t expected = 1;
    for (unsigned j = 0; j < p; ++j) expected = gf.mul(expected, a);
    EXPECT_EQ(gf.pow(a, p), expected);
  }
}

TEST(GF256Field, MulAddSliceMatchesScalarLoop) {
  const GF256& gf = GF256::instance();
  auto src = random_bytes(333, 3);
  auto dst = random_bytes(333, 4);
  auto expected = dst;
  const std::uint8_t c = 0x8e;
  for (std::size_t i = 0; i < src.size(); ++i) {
    expected[i] ^= gf.mul(c, src[i]);
  }
  gf.mul_add_slice(dst.data(), src.data(), src.size(), c);
  EXPECT_EQ(dst, expected);
}

// ---------------------------------------------------------------------------
// Reed–Solomon: parameterized sweep over (data, parity) shapes
// ---------------------------------------------------------------------------

class ReedSolomonParam
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReedSolomonParam, AnyDataShardsSubsetReconstructs) {
  const auto [data_shards, parity_shards] = GetParam();
  const ReedSolomon rs(data_shards, parity_shards);
  const auto data = random_bytes(data_shards * 50, 10 + data_shards);
  const auto shards = split_into_shards(data, data_shards);
  auto encoded = rs.encode(shards);
  ASSERT_EQ(encoded.size(), static_cast<std::size_t>(data_shards + parity_shards));
  EXPECT_TRUE(rs.verify(encoded));

  // Erase `parity_shards` random shards (the maximum tolerable) and
  // reconstruct.
  util::Xoshiro256 rng(100 + data_shards * 7 + parity_shards);
  std::vector<std::optional<std::vector<std::uint8_t>>> survivors(
      encoded.begin(), encoded.end());
  int erased = 0;
  while (erased < parity_shards) {
    const std::size_t victim = rng.uniform_below(survivors.size());
    if (survivors[victim].has_value()) {
      survivors[victim] = std::nullopt;
      ++erased;
    }
  }
  auto result = rs.reconstruct(survivors);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(join_shards(result.value(), data.size()), data);
}

TEST_P(ReedSolomonParam, TooManyErasuresFail) {
  const auto [data_shards, parity_shards] = GetParam();
  const ReedSolomon rs(data_shards, parity_shards);
  const auto data = random_bytes(data_shards * 20, 20 + data_shards);
  auto encoded = rs.encode(split_into_shards(data, data_shards));
  std::vector<std::optional<std::vector<std::uint8_t>>> survivors(
      encoded.begin(), encoded.end());
  // Erase parity_shards + 1 shards: below the reconstruction threshold.
  for (int i = 0; i <= parity_shards; ++i) survivors[i] = std::nullopt;
  const auto result = rs.reconstruct(survivors);
  EXPECT_FALSE(result.is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReedSolomonParam,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 1),
                      std::make_tuple(4, 2), std::make_tuple(5, 3),
                      std::make_tuple(10, 4), std::make_tuple(29, 51),
                      std::make_tuple(16, 16), std::make_tuple(100, 50)),
    [](const auto& shape) {
      // Appended piecewise: GCC 12 flags `"d" + std::to_string(...)` with a
      // false -Wrestrict (GCC bug 105329), which -Werror turns fatal.
      std::string name = "d";
      name += std::to_string(std::get<0>(shape.param));
      name += "_p";
      name += std::to_string(std::get<1>(shape.param));
      return name;
    });

TEST(ReedSolomon, CorruptedShardDetectedByVerify) {
  const ReedSolomon rs(4, 2);
  const auto data = random_bytes(400, 30);
  auto encoded = rs.encode(split_into_shards(data, 4));
  EXPECT_TRUE(rs.verify(encoded));
  encoded[5][3] ^= 1;
  EXPECT_FALSE(rs.verify(encoded));
}

TEST(ReedSolomon, ZeroParityIsPassthrough) {
  const ReedSolomon rs(3, 0);
  const auto data = random_bytes(300, 31);
  const auto shards = split_into_shards(data, 3);
  EXPECT_EQ(rs.encode(shards), shards);
}

TEST(ReedSolomon, SplitJoinRoundTripWithPadding) {
  for (std::size_t n : {1u, 9u, 10u, 11u, 100u}) {
    const auto data = random_bytes(n, 40 + n);
    const auto shards = split_into_shards(data, 3);
    EXPECT_EQ(join_shards(shards, n), data) << "n=" << n;
  }
}

}  // namespace
}  // namespace fi::erasure
