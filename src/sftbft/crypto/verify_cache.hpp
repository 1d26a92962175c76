// Receiver-side certificate memo and vote-check accounting.
//
// A QC is verified repeatedly on real paths: it is re-checked when the
// proposal that carries it is echoed, when a timeout message attaches it,
// and when sync replays it. The memo makes each of those a full aggregate
// verification exactly once: a digest of the certificate's full canonical
// encoding is noted only after a successful verification. Any tamper —
// header, metadata, bitmap, or tag — changes the encoding, so a mutated
// certificate misses the memo and pays (and fails) fresh verification.
// Tests pin this mutate-after-verify property.
//
// Single signatures are not memoized: a vote MAC is one keyed HMAC
// (crypto::HmacKey), cheaper than any lookup keyed by a hash of the signed
// bytes. The one repeat worth skipping — Streamlet's echo delivering a
// byte-identical copy of a vote the replica already accepted — is caught by
// the protocol before verification, against its own vote table.
//
// One cache per replica (simulations sweep scenarios on a thread pool, so
// caches are never shared across deployments). Obs counters, when an
// Observer is attached:
//  - sig.vote_verify_misses: vote MACs recomputed, for single signatures
//    (verify()) and for the members of certificates that missed the memo
//    (note_cert());
//  - sig.vote_verify_hits: vote checks skipped because the vote is an
//    exact duplicate of one already verified (count_duplicate_vote());
//  - sig.cert_verify_hits/misses: certificate memo hits and full aggregate
//    verifications.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "sftbft/common/types.hpp"
#include "sftbft/crypto/sha256.hpp"

namespace sftbft::obs {
class Observer;
}  // namespace sftbft::obs

namespace sftbft::crypto {

class KeyRegistry;
struct Signature;

class VerifyCache {
 public:
  /// Entry bound; reaching it clears the memo (epoch reset), so a long
  /// run's memo cannot grow without bound.
  static constexpr std::size_t kMaxEntries = 1u << 16;

  VerifyCache() = default;
  VerifyCache(obs::Observer* obs, ReplicaId replica)
      : obs_(obs), replica_(replica) {}

  /// `registry.verify(sig, message)`, counted as one vote MAC recomputed.
  [[nodiscard]] bool verify(const KeyRegistry& registry, const Signature& sig,
                            BytesView message);

  /// Counts a vote check skipped: the vote is an exact copy of one this
  /// replica already verified.
  void count_duplicate_vote();

  /// True iff a certificate with this canonical-encoding digest already
  /// verified successfully. Counts a cert-level hit/miss either way.
  [[nodiscard]] bool seen_cert(const Sha256Digest& key);

  /// Records a full aggregate verification that recomputed `members` vote
  /// MACs after a seen_cert miss; memoizes `key` only when it passed.
  void note_cert(const Sha256Digest& key, std::size_t members, bool ok);

  [[nodiscard]] std::uint64_t vote_hits() const { return vote_hits_; }
  [[nodiscard]] std::uint64_t vote_misses() const { return vote_misses_; }
  [[nodiscard]] std::uint64_t cert_hits() const { return cert_hits_; }
  [[nodiscard]] std::uint64_t cert_misses() const { return cert_misses_; }

 private:
  void count_macs(std::size_t count);
  void bump_cert(bool hit);

  std::unordered_set<Sha256Digest> certs_;
  std::uint64_t vote_hits_ = 0;
  std::uint64_t vote_misses_ = 0;
  std::uint64_t cert_hits_ = 0;
  std::uint64_t cert_misses_ = 0;
  obs::Observer* obs_ = nullptr;
  ReplicaId replica_ = kNoReplica;
};

}  // namespace sftbft::crypto
