// CRC-32 (IEEE, reflected 0xEDB88320) known answers and the slice-by-8
// implementation against a bitwise reference, over every length and start
// alignment a frame can have relative to the 8-byte stride.
#include <gtest/gtest.h>

#include <string>

#include "sftbft/common/bytes.hpp"
#include "sftbft/common/crc32.hpp"
#include "sftbft/common/rng.hpp"

namespace sftbft {
namespace {

BytesView ascii(const std::string& s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

// The definition, one bit at a time.
std::uint32_t crc32_bitwise(BytesView data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32(ascii("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, QuickBrownFox) {
  EXPECT_EQ(crc32(ascii("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, MatchesBitwiseReference) {
  Rng rng(0xC3C32);
  Bytes data(1024 + 8);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const BytesView view(data.data() + offset, len);
      ASSERT_EQ(crc32(view), crc32_bitwise(view))
          << "offset=" << offset << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace sftbft
