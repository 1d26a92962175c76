#include "sftbft/crypto/aggregate.hpp"

#include "sftbft/crypto/signature.hpp"

namespace sftbft::crypto {

void SignerBitmap::set(ReplicaId id) {
  const std::size_t byte = id / 8;
  if (byte >= bits.size()) bits.resize(byte + 1, 0);
  bits[byte] = static_cast<std::uint8_t>(bits[byte] | (1u << (id % 8)));
}

void SignerBitmap::clear(ReplicaId id) {
  const std::size_t byte = id / 8;
  if (byte >= bits.size()) return;
  bits[byte] = static_cast<std::uint8_t>(bits[byte] & ~(1u << (id % 8)));
  while (!bits.empty() && bits.back() == 0) bits.pop_back();
}

bool SignerBitmap::test(ReplicaId id) const {
  const std::size_t byte = id / 8;
  if (byte >= bits.size()) return false;
  return (bits[byte] >> (id % 8)) & 1u;
}

std::size_t SignerBitmap::popcount() const {
  std::size_t total = 0;
  for (const std::uint8_t byte : bits) {
    total += static_cast<std::size_t>(__builtin_popcount(byte));
  }
  return total;
}

std::vector<ReplicaId> SignerBitmap::ids() const {
  std::vector<ReplicaId> out;
  out.reserve(popcount());
  for_each([&out](ReplicaId id) { out.push_back(id); });
  return out;
}

void SignerBitmap::encode(Encoder& enc) const { enc.bytes(BytesView(bits)); }

SignerBitmap SignerBitmap::decode(Decoder& dec) {
  SignerBitmap bitmap;
  bitmap.bits = dec.bytes();
  if (bitmap.bits.size() > kMaxBytes) {
    throw CodecError("SignerBitmap: length exceeds clamp");
  }
  if (!bitmap.bits.empty() && bitmap.bits.back() == 0) {
    throw CodecError("SignerBitmap: non-canonical trailing zero byte");
  }
  return bitmap;
}

bool AggregateSignature::fold(const Signature& sig) {
  if (sig.signer == kNoReplica || signers.test(sig.signer)) return false;
  signers.set(sig.signer);
  for (std::size_t i = 0; i < tag.size(); ++i) tag[i] ^= sig.mac[i];
  return true;
}

void AggregateSignature::encode(Encoder& enc) const {
  signers.encode(enc);
  enc.raw(tag);
}

AggregateSignature AggregateSignature::decode(Decoder& dec) {
  AggregateSignature agg;
  agg.signers = SignerBitmap::decode(dec);
  const Bytes raw = dec.raw(32);
  std::copy(raw.begin(), raw.end(), agg.tag.begin());
  return agg;
}

}  // namespace sftbft::crypto
