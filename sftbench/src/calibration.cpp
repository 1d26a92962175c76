#include "calibration.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

namespace sftbench {

namespace {

volatile std::uint64_t g_probe_sink = 0;

constexpr std::size_t kMixBytes = 64 * 1024;
constexpr std::size_t kMixPasses = 48;
constexpr std::size_t kTableBytes = 1 << 20;
constexpr std::size_t kChaseSlots = (8 << 20) / sizeof(std::uint32_t);
constexpr std::size_t kChaseSteps = 20'000;

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

struct ProbeInputs {
  std::vector<std::uint8_t> bytes;
  std::array<std::uint32_t, 256> table{};
  /// A single-cycle permutation of the chase slots (Sattolo's shuffle).
  std::vector<std::uint32_t> ring;

  ProbeInputs() : bytes(kMixBytes + kTableBytes), ring(kChaseSlots) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 131 + (i >> 7));
    }
    for (std::uint32_t i = 0; i < 256; ++i) table[i] = i * 0x01000193u ^ (i << 17);
    std::iota(ring.begin(), ring.end(), 0u);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = kChaseSlots - 1; i > 0; --i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(ring[i], ring[static_cast<std::size_t>((state >> 33) % i)]);
    }
  }
};

}  // namespace

double probe_pass_s() {
  static const ProbeInputs inputs;
  const auto start = std::chrono::steady_clock::now();
  // Word mixing in the shape of a hash compression loop (the program's
  // dominant cost), then byte-table lookups (its checksum shape), then a
  // short pointer chase (its hash-map and allocator shape).
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab,
                                    static_cast<std::uint32_t>(g_probe_sink)};
  for (std::size_t pass = 0; pass < kMixPasses; ++pass) {
    for (std::size_t i = 0; i + 4 <= kMixBytes; i += 4) {
      const std::uint32_t w = static_cast<std::uint32_t>(inputs.bytes[i]) << 24 |
                              static_cast<std::uint32_t>(inputs.bytes[i + 1]) << 16 |
                              static_cast<std::uint32_t>(inputs.bytes[i + 2]) << 8 |
                              inputs.bytes[i + 3];
      const std::uint32_t t1 = h[7] + (rotr(h[4], 6) ^ rotr(h[4], 11) ^ rotr(h[4], 25)) +
                               ((h[4] & h[5]) ^ (~h[4] & h[6])) + w;
      const std::uint32_t t2 = (rotr(h[0], 2) ^ rotr(h[0], 13) ^ rotr(h[0], 22)) +
                               ((h[0] & h[1]) ^ (h[0] & h[2]) ^ (h[1] & h[2]));
      h = {t1 + t2, h[0], h[1], h[2], h[3] + t1, h[4], h[5], h[6]};
    }
  }
  std::uint32_t fold = h[0];
  for (std::size_t i = kMixBytes; i < inputs.bytes.size(); ++i) {
    fold = inputs.table[(fold ^ inputs.bytes[i]) & 0xff] ^ (fold >> 8);
  }
  std::uint32_t slot = fold % kChaseSlots;
  for (std::size_t i = 0; i < kChaseSteps; ++i) slot = inputs.ring[slot];
  g_probe_sink = g_probe_sink + fold + slot;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace sftbench
