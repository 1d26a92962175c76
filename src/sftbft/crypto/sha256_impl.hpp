// SHA-256 compression functions and backend dispatch (private to crypto/).
//
// `Sha256` hashes through whichever compressor `sha256_compressor()` picked
// from cpuid on first use: the SHA-NI one on x86 CPUs with the `sha` and
// `sse4.1` extensions, the portable one otherwise. Both produce identical
// state updates. The portable compressor below is also the reference
// tests/crypto_test.cpp checks the SHA-NI path against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sftbft::crypto::detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// Compresses `blocks` consecutive 64-byte blocks starting at `data`
/// into `state`.
using Sha256Compress = void (*)(Sha256State& state, const std::uint8_t* data,
                                std::size_t blocks);

inline constexpr std::array<std::uint32_t, 64> kSha256RoundConstants = {
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

inline constexpr Sha256State kSha256InitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// FIPS 180-4 compression in plain C++: the only path on CPUs without
/// SHA-NI and the reference the hardware path is tested against.
inline void sha256_compress_portable(Sha256State& state,
                                     const std::uint8_t* data,
                                     std::size_t blocks) {
  const auto rotr = [](std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  };
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
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
      const std::uint32_t temp1 =
          h + s1 + ch + kSha256RoundConstants[static_cast<std::size_t>(i)] +
          w[i];
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

#if defined(__x86_64__) || defined(__i386__)
/// Intel SHA extensions (sha256rnds2 / sha256msg1 / sha256msg2). Callable
/// only when `cpu_has_sha_ni()` is true.
void sha256_compress_shani(Sha256State& state, const std::uint8_t* data,
                           std::size_t blocks);
#endif

/// True when cpuid reports both `sha` and `sse4.1` (always false off x86).
bool cpu_has_sha_ni();

/// The compressor `Sha256` uses: SHA-NI when `cpu_has_sha_ni()`, else
/// portable. Chosen from cpuid on first use and fixed for the process.
Sha256Compress sha256_compressor();

}  // namespace sftbft::crypto::detail
