// Crypto substrate tests: SHA-256 against FIPS 180-4 vectors on every
// compressor the CPU can run, the dispatched path against the portable
// reference, HMAC-SHA-256 (HmacKey) against RFC 4231 vectors and the
// RFC 2104 definition, and signature/PKI behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sftbft/common/bytes.hpp"
#include "sftbft/common/rng.hpp"
#include "sftbft/crypto/sha256.hpp"
#include "sftbft/crypto/sha256_impl.hpp"
#include "sftbft/crypto/signature.hpp"

namespace sftbft::crypto {
namespace {

Bytes ascii(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

Bytes random_bytes(std::uint64_t seed, std::size_t size) {
  Rng rng(seed);
  Bytes out(size);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// Pads and hashes `data` with one given compressor, bypassing Sha256's
// buffering and dispatch, so each backend is checked on its own.
Sha256Digest hash_with(detail::Sha256Compress compress, BytesView data) {
  detail::Sha256State state = detail::kSha256InitialState;
  const std::size_t whole = data.size() / 64;
  if (whole > 0) compress(state, data.data(), whole);

  std::uint8_t tail[128] = {};
  const std::size_t rest = data.size() - whole * 64;
  if (rest > 0) std::memcpy(tail, data.data() + whole * 64, rest);
  tail[rest] = 0x80;
  const std::size_t tail_blocks = rest < 56 ? 1 : 2;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[tail_blocks * 64 - 1 - i] =
        static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  compress(state, tail, tail_blocks);

  Sha256Digest digest;
  for (std::size_t i = 0; i < 32; ++i) {
    digest.bytes[i] =
        static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

Sha256Digest portable_hash(BytesView data) {
  return hash_with(&detail::sha256_compress_portable, data);
}

// Every compressor this CPU can run, portable first.
std::vector<std::pair<std::string, detail::Sha256Compress>> compressors() {
  std::vector<std::pair<std::string, detail::Sha256Compress>> out = {
      {"portable", &detail::sha256_compress_portable}};
#if defined(__x86_64__) || defined(__i386__)
  if (detail::cpu_has_sha_ni()) {
    out.emplace_back("sha-ni", &detail::sha256_compress_shani);
  }
#endif
  return out;
}

// ---------------------------------------------------------------- SHA-256

// A FIPS 180-4 vector through Sha256::hash and through every compressor.
void expect_fips_vector(const Bytes& input, const std::string& expected) {
  EXPECT_EQ(Sha256::hash(input).hex(), expected) << "dispatched";
  for (const auto& [name, compress] : compressors()) {
    EXPECT_EQ(hash_with(compress, input).hex(), expected) << name;
  }
}

TEST(Sha256, EmptyInput) {
  expect_fips_vector(
      {}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  expect_fips_vector(
      ascii("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  expect_fips_vector(
      ascii("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: forces padding into a second block.
  expect_fips_vector(
      ascii(std::string(64, 'a')),
      "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes fits length in the same block; 56 does not.
  expect_fips_vector(
      ascii(std::string(55, 'a')),
      "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  expect_fips_vector(
      ascii(std::string(56, 'a')),
      "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, MillionAs) {
  const std::string expected =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(ascii(chunk));
  EXPECT_EQ(ctx.finalize().hex(), expected);
  expect_fips_vector(ascii(std::string(1000000, 'a')), expected);
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = ascii("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 ctx;
    ctx.update(BytesView(data.data(), split));
    ctx.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(ctx.finalize(), Sha256::hash(data)) << "split=" << split;
  }
}

TEST(Sha256, DispatchedMatchesPortableOneShot) {
  const Bytes data = random_bytes(0x5A256, 1024);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const BytesView view(data.data(), len);
    const Sha256Digest expected = portable_hash(view);
    EXPECT_EQ(Sha256::hash(view), expected) << "len=" << len;
    for (const auto& [name, compress] : compressors()) {
      EXPECT_EQ(hash_with(compress, view), expected) << name << " len=" << len;
    }
  }
}

TEST(Sha256, DispatchedMatchesPortableAtEverySplit) {
  const Bytes data = random_bytes(0x5A257, 1024);
  for (const std::size_t len :
       {1, 55, 56, 63, 64, 65, 119, 120, 128, 129, 1024}) {
    const BytesView view(data.data(), len);
    const Sha256Digest expected = portable_hash(view);
    for (std::size_t split = 0; split <= len; ++split) {
      Sha256 ctx;
      ctx.update(view.first(split));
      ctx.update(view.subspan(split));
      EXPECT_EQ(ctx.finalize(), expected)
          << "len=" << len << " split=" << split;
    }
    Sha256 bytewise;
    for (std::size_t i = 0; i < len; ++i) bytewise.update(view.subspan(i, 1));
    EXPECT_EQ(bytewise.finalize(), expected) << "len=" << len << " bytewise";
  }
}

TEST(Sha256, DispatchedMatchesPortableUnaligned) {
  const Bytes data = random_bytes(0x5A258, 1024 + 16);
  for (std::size_t offset = 1; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1024; len += 7) {
      const BytesView view(data.data() + offset, len);
      EXPECT_EQ(Sha256::hash(view), portable_hash(view))
          << "offset=" << offset << " len=" << len;
    }
  }
}

// A build or dispatch change that silently fell back to the portable
// compressor would keep every digest right and lose the speed; pin the
// choice to what cpuid reports.
TEST(Sha256, DispatchSelectsShaNiWhenCpuHasIt) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const bool has_sha_ni =
      __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  const bool has_sha_ni = false;
#endif
  EXPECT_EQ(detail::cpu_has_sha_ni(), has_sha_ni);
#if defined(__x86_64__) || defined(__i386__)
  if (has_sha_ni) {
    EXPECT_EQ(detail::sha256_compressor(), &detail::sha256_compress_shani);
    return;
  }
#endif
  EXPECT_EQ(detail::sha256_compressor(), &detail::sha256_compress_portable);
}

TEST(Sha256, ShortHexPrefix) {
  const Sha256Digest d = Sha256::hash(ascii("abc"));
  EXPECT_EQ(d.short_hex(), d.hex().substr(0, 8));
}

TEST(Sha256, DigestOrdering) {
  const Sha256Digest a = Sha256::hash(ascii("a"));
  const Sha256Digest b = Sha256::hash(ascii("b"));
  EXPECT_NE(a, b);
  EXPECT_TRUE((a < b) || (b < a));
}

// ------------------------------------------------------------ HMAC-SHA-256

struct HmacVector {
  const char* name;
  Bytes key;
  Bytes message;
  const char* mac_hex;
};

// RFC 4231 test cases 1, 2, 3 and 6 (case 6's 131-byte key is longer than
// a block, so it is hashed first).
std::vector<HmacVector> rfc4231_vectors() {
  return {
      {"case1", Bytes(20, 0x0b), ascii("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {"case2", ascii("Jefe"), ascii("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {"case3", Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {"case6", Bytes(131, 0xaa),
       ascii("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
}

// HMAC exactly as RFC 2104 writes it, from Sha256 alone:
// H((K' ^ opad) || H((K' ^ ipad) || m)), K' = H(K) if |K| > 64, zero-padded.
Sha256Digest hmac_by_definition(BytesView key, BytesView message) {
  Bytes k_block(64, 0);
  if (key.size() > 64) {
    const Sha256Digest kd = Sha256::hash(key);
    std::copy(kd.bytes.begin(), kd.bytes.end(), k_block.begin());
  } else {
    std::copy(key.begin(), key.end(), k_block.begin());
  }
  Bytes inner_in(64);
  Bytes outer_in(64);
  for (std::size_t i = 0; i < 64; ++i) {
    inner_in[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    outer_in[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }
  inner_in.insert(inner_in.end(), message.begin(), message.end());
  const Sha256Digest inner = Sha256::hash(inner_in);
  outer_in.insert(outer_in.end(), inner.bytes.begin(), inner.bytes.end());
  return Sha256::hash(outer_in);
}

TEST(HmacSha256, Rfc4231VectorsThroughHmacKey) {
  for (const HmacVector& v : rfc4231_vectors()) {
    SCOPED_TRACE(v.name);
    EXPECT_EQ(HmacKey(v.key).mac(v.message).hex(), v.mac_hex);
    EXPECT_EQ(hmac_sha256(v.key, v.message).hex(), v.mac_hex);
  }
}

TEST(HmacSha256, HmacKeyMatchesRfc2104Definition) {
  // Keys of 0..100 bytes cross the 64-byte hash-the-key threshold; messages
  // of 0..300 bytes cross every 64-byte block boundary of the inner hash.
  for (std::size_t key_len = 0; key_len <= 100; ++key_len) {
    const Bytes key = random_bytes(1000 + key_len, key_len);
    const HmacKey keyed(key);
    for (std::size_t msg_len = 0; msg_len <= 300; ++msg_len) {
      const Bytes msg = random_bytes(7 * key_len + msg_len, msg_len);
      ASSERT_EQ(keyed.mac(msg), hmac_by_definition(key, msg))
          << "key " << key_len << " B, message " << msg_len << " B";
    }
  }
}

TEST(HmacSha256, DifferentKeysDiffer) {
  EXPECT_NE(hmac_sha256(ascii("k1"), ascii("msg")),
            hmac_sha256(ascii("k2"), ascii("msg")));
}

// -------------------------------------------------------------- signatures

TEST(Signature, SignVerifyRoundTrip) {
  KeyRegistry registry(4, 7);
  const Signer signer = registry.signer_for(2);
  const Bytes msg = ascii("vote for block 42");
  const Signature sig = signer.sign(msg);
  EXPECT_EQ(sig.signer, 2u);
  EXPECT_TRUE(registry.verify(sig, msg));
}

TEST(Signature, WrongMessageRejected) {
  KeyRegistry registry(4, 7);
  const Signature sig = registry.signer_for(0).sign(ascii("message A"));
  EXPECT_FALSE(registry.verify(sig, ascii("message B")));
}

TEST(Signature, ImpersonationRejected) {
  KeyRegistry registry(4, 7);
  const Bytes msg = ascii("msg");
  Signature sig = registry.signer_for(1).sign(msg);
  sig.signer = 3;  // claim to be replica 3 with replica 1's MAC
  EXPECT_FALSE(registry.verify(sig, msg));
}

TEST(Signature, TamperedMacRejected) {
  KeyRegistry registry(4, 7);
  const Bytes msg = ascii("msg");
  Signature sig = registry.signer_for(1).sign(msg);
  sig.mac[0] ^= 0x01;
  EXPECT_FALSE(registry.verify(sig, msg));
}

TEST(Signature, UnknownSignerRejected) {
  KeyRegistry registry(4, 7);
  Signature sig = registry.signer_for(1).sign(ascii("m"));
  sig.signer = 99;
  EXPECT_FALSE(registry.verify(sig, ascii("m")));
}

TEST(Signature, DeterministicAcrossRegistries) {
  // Two registries with the same (n, seed) must agree — replicas and the
  // test harness construct their own handles.
  KeyRegistry a(4, 123), b(4, 123);
  const Bytes msg = ascii("deterministic");
  EXPECT_EQ(a.signer_for(0).sign(msg), b.signer_for(0).sign(msg));
  EXPECT_TRUE(b.verify(a.signer_for(3).sign(msg), msg));
}

TEST(Signature, DistinctSeedsDistinctKeys) {
  KeyRegistry a(4, 1), b(4, 2);
  const Bytes msg = ascii("x");
  EXPECT_FALSE(b.verify(a.signer_for(0).sign(msg), msg));
}

TEST(Signature, EveryReplicaVerifiesAndEveryMacBitMatters) {
  KeyRegistry registry(7, 11);
  const Bytes msg = random_bytes(5, 113);
  for (ReplicaId id = 0; id < registry.size(); ++id) {
    const Signature sig = registry.signer_for(id).sign(msg);
    ASSERT_TRUE(registry.verify(sig, msg)) << "replica " << id;
    for (std::size_t bit = 0; bit < sig.mac.size() * 8; ++bit) {
      Signature flipped = sig;
      flipped.mac[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ASSERT_FALSE(registry.verify(flipped, msg))
          << "replica " << id << " bit " << bit;
    }
  }
}

TEST(Signature, SignerForOutOfRangeThrows) {
  KeyRegistry registry(4, 1);
  EXPECT_THROW((void)registry.signer_for(4), std::out_of_range);
}

}  // namespace
}  // namespace sftbft::crypto
