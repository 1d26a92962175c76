// Signature substrate: Signer / Verifier / KeyRegistry (the PKI).
//
// Substitution note (see README.md "Simulation substitutions"): the paper's implementation uses the
// Diem production signature scheme. The protocol logic only requires that a
// Byzantine replica cannot forge an honest replica's vote *within the run*.
// We realize this with HMAC-SHA-256 over per-replica secrets: a replica can
// sign only through its own Signer (which owns its key), and the registry
// verifies by recomputation: one keyed HMAC per signature (crypto::HmacKey
// holds each key's precomputed pad states). The interfaces mirror
// asymmetric signatures so a production scheme (e.g. Ed25519) can be
// swapped in without touching protocol code.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "sftbft/common/bytes.hpp"
#include "sftbft/common/codec.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/crypto/aggregate.hpp"
#include "sftbft/crypto/sha256.hpp"

namespace sftbft::crypto {

/// A signature over a message digest, tagged with the signer identity.
struct Signature {
  ReplicaId signer = kNoReplica;
  std::array<std::uint8_t, 32> mac{};

  void encode(Encoder& enc) const;
  static Signature decode(Decoder& dec);

  friend bool operator==(const Signature&, const Signature&) = default;
};

class KeyRegistry;

namespace detail {

/// A replica's 32-byte secret and its HmacKey, derived on first use so that
/// building a registry (every Deployment does, for all n replicas) hashes
/// nothing. Not synchronised: a registry and its signers serve one
/// deployment, which runs on one thread.
class SecretKey {
 public:
  explicit SecretKey(const std::array<std::uint8_t, 32>& secret)
      : secret_(secret) {}

  [[nodiscard]] Sha256Digest mac(BytesView message) const {
    if (!key_) key_.emplace(secret_);
    return key_->mac(message);
  }

 private:
  std::array<std::uint8_t, 32> secret_;
  mutable std::optional<HmacKey> key_;
};

}  // namespace detail

/// Signing capability of one replica. Only the replica's own actor holds its
/// Signer, which is what makes honest votes unforgeable in the simulation.
class Signer {
 public:
  [[nodiscard]] ReplicaId id() const { return id_; }

  /// Signs an arbitrary message (protocol code signs canonical encodings).
  [[nodiscard]] Signature sign(BytesView message) const;

 private:
  friend class KeyRegistry;
  Signer(ReplicaId id, const detail::SecretKey& key) : id_(id), key_(key) {}

  ReplicaId id_;
  detail::SecretKey key_;
};

/// The PKI: generates all replica keys from a seed and verifies signatures.
/// Every replica (and the test harness) holds a shared_ptr to one registry.
class KeyRegistry {
 public:
  /// Deterministically derives `n` replica keys from `seed`.
  KeyRegistry(std::uint32_t n, std::uint64_t seed);

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(keys_.size());
  }

  /// Hands out the signer for `id`. Call once per replica at setup; protocol
  /// code never touches other replicas' signers.
  [[nodiscard]] Signer signer_for(ReplicaId id) const;

  /// True iff `sig` is a valid signature by `sig.signer` over `message`:
  /// recomputes the signer's MAC (one keyed HMAC, nothing memoized) and
  /// compares it in constant time.
  [[nodiscard]] bool verify(const Signature& sig, BytesView message) const;

  /// True iff `agg.tag` is the fold of every bitmap member's MAC, each over
  /// the member's own canonical signing bytes. Walks the bitmap once:
  /// `write_member(i, id, enc)` appends the signing bytes of the i-th member
  /// (bitmap order, replica `id`) to `enc`, one buffer reused across
  /// members. Certificates keep their per-member fields in bitmap order, so
  /// `i` indexes them directly. An empty signer set never verifies.
  template <typename WriteMember>
  [[nodiscard]] bool verify_aggregate(const AggregateSignature& agg,
                                      WriteMember&& write_member) const;

 private:
  /// One keyed HMAC per replica, from its seeded 32-byte secret.
  std::vector<detail::SecretKey> keys_;
};

template <typename WriteMember>
bool KeyRegistry::verify_aggregate(const AggregateSignature& agg,
                                   WriteMember&& write_member) const {
  Encoder message;
  std::array<std::uint8_t, 32> fold{};
  std::size_t members = 0;
  bool known = true;
  agg.signers.for_each([&](ReplicaId id) {
    if (id >= keys_.size()) {
      known = false;
      return;
    }
    message.clear();
    write_member(members++, id, message);
    const Sha256Digest mac = keys_[id].mac(message.data());
    for (std::size_t i = 0; i < fold.size(); ++i) fold[i] ^= mac.bytes[i];
  });
  return known && members > 0 && ct_equal(fold, agg.tag);
}

}  // namespace sftbft::crypto
