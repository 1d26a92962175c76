// Aggregate signatures: a signer bitmap plus one 32-byte aggregate tag.
//
// Substitution note (see README.md "Simulation substitutions"): a production
// deployment would use BLS aggregation — each certificate carries the set of
// signers and a single constant-size signature, verified against the set's
// aggregate public key (cf. AntelopeIO/leap's `quorum_certificate`). The
// simulation realizes the same shape on the HMAC substrate: the aggregate tag
// is the XOR fold of the per-signer MACs, each over that signer's own
// canonical signing bytes, and the registry verifies by recomputing every MAC
// across the bitmap and refolding. This preserves the within-run
// unforgeability contract of `signature.hpp` — producing a valid tag for a
// signer set requires every member's MAC, which only that member's Signer
// (or the verifying registry) can compute — while keeping the interface
// BLS-shaped so a production scheme drops in: certificates never grow with n
// beyond the ⌈n/8⌉-byte bitmap.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sftbft/common/bytes.hpp"
#include "sftbft/common/codec.hpp"
#include "sftbft/common/types.hpp"

namespace sftbft::crypto {

struct Signature;

/// The signer set of an aggregate: bit i (byte i/8, bit i%8) = replica i.
/// Canonical form has no trailing zero byte — decode enforces this so a
/// given signer set has exactly one wire encoding.
struct SignerBitmap {
  /// Decode clamp: certificates support n <= 4096 signers, so a hostile
  /// length prefix cannot force a large allocation.
  static constexpr std::size_t kMaxBytes = 512;

  Bytes bits;

  void set(ReplicaId id);
  /// Clears the bit and re-trims trailing zero bytes (canonical form).
  void clear(ReplicaId id);
  [[nodiscard]] bool test(ReplicaId id) const;
  [[nodiscard]] std::size_t popcount() const;
  /// The set replica ids, ascending.
  [[nodiscard]] std::vector<ReplicaId> ids() const;
  /// Calls `visit(id)` for every set replica id, ascending.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (std::size_t byte = 0; byte < bits.size(); ++byte) {
      for (std::size_t bit = 0; bit < 8; ++bit) {
        if ((bits[byte] >> bit) & 1u) {
          visit(static_cast<ReplicaId>(byte * 8 + bit));
        }
      }
    }
  }

  void encode(Encoder& enc) const;
  static SignerBitmap decode(Decoder& dec);

  friend bool operator==(const SignerBitmap&, const SignerBitmap&) = default;
};

/// One constant-size signature standing in for the bitmap's signers:
/// ⌈n/8⌉ + 32 bytes on the wire regardless of how many replicas signed.
struct AggregateSignature {
  /// Empty bitmap (u32 length prefix) + tag.
  static constexpr std::size_t kMinEncodedBytes = 4 + 32;

  SignerBitmap signers;
  std::array<std::uint8_t, 32> tag{};

  /// Folds one member signature into the aggregate. Returns false (and
  /// leaves the aggregate untouched) if that signer is already in — folding
  /// a MAC twice would cancel it out of the XOR.
  bool fold(const Signature& sig);

  [[nodiscard]] bool empty() const { return signers.bits.empty(); }

  void encode(Encoder& enc) const;
  static AggregateSignature decode(Decoder& dec);

  friend bool operator==(const AggregateSignature&,
                         const AggregateSignature&) = default;
};

}  // namespace sftbft::crypto
