#include "sftbft/crypto/sha256.hpp"

#include <cassert>
#include <cstring>

#include "sftbft/crypto/sha256_impl.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace sftbft::crypto {

namespace detail {

#if defined(__x86_64__) || defined(__i386__)

namespace {

// The SHA-NI helpers carry the same target as their caller so they inline
// into it; nothing here is compiled for the baseline ISA.
#define SFTBFT_SHA_NI_TARGET \
  __attribute__((target("sha,sse4.1"), always_inline))

// Four rounds on message words `w` (already in round order) with round
// constants K[4*group .. 4*group+3].
SFTBFT_SHA_NI_TARGET inline void shani_rounds(__m128i& abef, __m128i& cdgh,
                                              __m128i w, std::size_t group) {
  const __m128i k = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(&kSha256RoundConstants[4 * group]));
  __m128i wk = _mm_add_epi32(w, k);
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  wk = _mm_shuffle_epi32(wk, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
}

// W[t..t+3] from W[t-16..t-1] held as w0 (oldest) .. w3 (newest).
SFTBFT_SHA_NI_TARGET inline __m128i shani_schedule(__m128i w0, __m128i w1,
                                                   __m128i w2, __m128i w3) {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                        _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(partial, w3);
}

#undef SFTBFT_SHA_NI_TARGET

}  // namespace

__attribute__((target("sha,sse4.1"))) void sha256_compress_shani(
    Sha256State& state, const std::uint8_t* data, std::size_t blocks) {
  // Byte swap of each 32-bit word: message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // sha256rnds2 keeps the state as {A,B,E,F} and {C,D,G,H}.
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    shani_rounds(abef, cdgh, w0, 0);
    shani_rounds(abef, cdgh, w1, 1);
    shani_rounds(abef, cdgh, w2, 2);
    shani_rounds(abef, cdgh, w3, 3);
    for (std::size_t group = 4; group < 16; group += 4) {
      w0 = shani_schedule(w0, w1, w2, w3);
      shani_rounds(abef, cdgh, w0, group);
      w1 = shani_schedule(w1, w2, w3, w0);
      shani_rounds(abef, cdgh, w1, group + 1);
      w2 = shani_schedule(w2, w3, w0, w1);
      shani_rounds(abef, cdgh, w2, group + 2);
      w3 = shani_schedule(w3, w0, w1, w2);
      shani_rounds(abef, cdgh, w3, group + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // x86

bool cpu_has_sha_ni() {
#if defined(__x86_64__) || defined(__i386__)
  // Safe before libgcc's own constructor has run (static initialisers).
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

Sha256Compress sha256_compressor() {
#if defined(__x86_64__) || defined(__i386__)
  // Thread-safe one-time choice; the CPU does not change under a process.
  static const Sha256Compress chosen =
      cpu_has_sha_ni() ? &sha256_compress_shani : &sha256_compress_portable;
  return chosen;
#else
  return &sha256_compress_portable;
#endif
}

}  // namespace detail

std::string Sha256Digest::hex() const { return to_hex(bytes); }

std::string Sha256Digest::short_hex() const { return hex().substr(0, 8); }

Sha256::Sha256() : state_(detail::kSha256InitialState) {}

void Sha256::update(BytesView data) {
  assert(!finalized_);
  if (data.empty()) return;
  const detail::Sha256Compress compress = detail::sha256_compressor();
  total_len_ += data.size();
  std::size_t offset = 0;
  // Fill a partially buffered block first.
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ < 64) return;
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Every whole block straight from the input, in one call.
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(state_, data.data() + offset, blocks);
    offset += blocks * 64;
  }
  // Buffer the tail.
  buffer_len_ = data.size() - offset;
  if (buffer_len_ > 0) {
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

Sha256Digest Sha256::finalize() {
  assert(!finalized_);
  finalized_ = true;
  const detail::Sha256Compress compress = detail::sha256_compressor();

  // Padding: 0x80, zeros, then the 64-bit big-endian bit length in the
  // last 8 bytes of the final block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  const std::uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    buffer_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(state_, buffer_.data(), 1);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t word = state_[static_cast<std::size_t>(i)];
    digest.bytes[static_cast<std::size_t>(4 * i + 0)] =
        static_cast<std::uint8_t>(word >> 24);
    digest.bytes[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(word >> 16);
    digest.bytes[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(word >> 8);
    digest.bytes[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(word);
  }
  return digest;
}

Sha256Digest Sha256::hash(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

HmacKey::HmacKey(BytesView key) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    const Sha256Digest kd = Sha256::hash(key);
    std::memcpy(k_block.data(), kd.bytes.data(), kd.bytes.size());
  } else if (!key.empty()) {
    std::memcpy(k_block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad{};
  std::array<std::uint8_t, 64> opad{};
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }
  const detail::Sha256Compress compress = detail::sha256_compressor();
  inner_ = detail::kSha256InitialState;
  compress(inner_, ipad.data(), 1);
  outer_ = detail::kSha256InitialState;
  compress(outer_, opad.data(), 1);
}

Sha256Digest HmacKey::mac(BytesView message) const {
  Sha256 inner(inner_, 64);
  inner.update(message);
  const Sha256Digest inner_digest = inner.finalize();

  Sha256 outer(outer_, 64);
  outer.update(inner_digest.bytes);
  return outer.finalize();
}

Sha256Digest hmac_sha256(BytesView key, BytesView message) {
  return HmacKey(key).mac(message);
}

}  // namespace sftbft::crypto
