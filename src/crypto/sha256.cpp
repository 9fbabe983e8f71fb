#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace fi::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  // An empty span may carry a null data() — passing that to memcpy is UB
  // even with a zero length.
  if (data.empty()) return *this;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // Every whole block left goes to the compression loop in one call, so the
  // hardware loop converts its state layout once per run of blocks.
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    process_blocks(data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Digest Sha256::finalize() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  update({pad, pad_len});
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update({len_bytes, 8});
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t blocks) {
#if defined(__x86_64__)
  if (detail::has_sha_ni()) {
    detail::compress_sha_ni(state_, data, blocks);
    return;
  }
#endif
  detail::compress_portable(state_, data, blocks);
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.finalize();
}

namespace detail {

void compress_portable(State& state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{data[4 * i]} << 24) |
             (std::uint32_t{data[4 * i + 1]} << 16) |
             (std::uint32_t{data[4 * i + 2]} << 8) |
             std::uint32_t{data[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

namespace {

// Leaf 1 ECX bit 19 (SSE4.1) and leaf 7 subleaf 0 EBX bit 29 (SHA). Tested
// by value rather than through <cpuid.h>'s bit_* names, which GCC and
// Clang spell differently.
constexpr unsigned kCpuidSse41 = 1u << 19;
constexpr unsigned kCpuidSha = 1u << 29;

bool detect_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & kCpuidSse41) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & kCpuidSha) != 0;
}

// The helpers carry the loop's own target attribute: a target-specific
// intrinsic inlines only into a function compiled for that target.

/// Four rounds: `msg` holds message words w[4g..4g+3] of round group `g`.
__attribute__((target("sha,sse4.1"))) inline void sha_ni_rounds(
    __m128i& abef, __m128i& cdgh, __m128i msg, std::size_t g) {
  const __m128i k = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * g));
  const __m128i wk = _mm_add_epi32(msg, k);
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Message words of round group g from those of groups g-4 .. g-1.
__attribute__((target("sha,sse4.1"))) inline __m128i sha_ni_schedule(
    __m128i m4, __m128i m3, __m128i m2, __m128i m1) {
  // w[t-7] for the four words of group g straddles groups g-2 and g-1.
  const __m128i w7 = _mm_alignr_epi8(m1, m2, 4);
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(_mm_sha256msg1_epu32(m4, m3), w7), m1);
}

}  // namespace

bool has_sha_ni() {
  static const bool has = detect_sha_ni();
  return has;
}

__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    State& state, const std::uint8_t* data, std::size_t blocks) {
  // Big-endian message words: byte-reverse each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  // The round instruction keeps the state as (a, b, e, f) and (c, d, g, h).
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), bswap);
    __m128i m1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), bswap);
    __m128i m2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), bswap);
    __m128i m3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), bswap);
    sha_ni_rounds(abef, cdgh, m0, 0);
    sha_ni_rounds(abef, cdgh, m1, 1);
    sha_ni_rounds(abef, cdgh, m2, 2);
    sha_ni_rounds(abef, cdgh, m3, 3);
    for (std::size_t g = 4; g < 16; g += 4) {
      m0 = sha_ni_schedule(m0, m1, m2, m3);
      sha_ni_rounds(abef, cdgh, m0, g);
      m1 = sha_ni_schedule(m1, m2, m3, m0);
      sha_ni_rounds(abef, cdgh, m1, g + 1);
      m2 = sha_ni_schedule(m2, m3, m0, m1);
      sha_ni_rounds(abef, cdgh, m2, g + 2);
      m3 = sha_ni_schedule(m3, m0, m1, m2);
      sha_ni_rounds(abef, cdgh, m3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool has_sha_ni() { return false; }

#endif  // defined(__x86_64__)

}  // namespace detail

}  // namespace fi::crypto
