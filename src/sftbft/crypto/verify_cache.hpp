// Receiver-side signature-check accounting.
//
// Nothing is memoized. A vote MAC is one keyed HMAC (crypto::HmacKey), and
// a certificate check is one walk over its signer bitmap
// (KeyRegistry::verify_aggregate). A memo keyed by a hash of the signed
// bytes or of the whole certificate cost about as much per check as the
// repeats it skipped saved, since most checks see a vote or certificate
// for the first time. The one repeat worth skipping — Streamlet's echo
// delivering a byte-identical copy of a vote the replica already accepted —
// is caught by the protocol before verification, against its own vote
// table.
//
// One instance per replica. Obs counters, when an Observer is attached:
//  - sig.vote_verify_misses: vote MACs recomputed, for single signatures
//    (verify()) and for every member of a checked certificate
//    (count_cert());
//  - sig.vote_verify_hits: vote checks skipped because the vote is an
//    exact duplicate of one already verified (count_duplicate_vote());
//  - sig.cert_verify_misses: full certificate (aggregate) verifications.
#pragma once

#include <cstddef>

#include "sftbft/common/bytes.hpp"
#include "sftbft/common/types.hpp"

namespace sftbft::obs {
class Observer;
}  // namespace sftbft::obs

namespace sftbft::crypto {

class KeyRegistry;
struct Signature;

class VerifyCache {
 public:
  VerifyCache() = default;
  VerifyCache(obs::Observer* obs, ReplicaId replica)
      : obs_(obs), replica_(replica) {}

  /// `registry.verify(sig, message)`, counted as one vote MAC recomputed.
  [[nodiscard]] bool verify(const KeyRegistry& registry, const Signature& sig,
                            BytesView message);

  /// Counts a vote check skipped: the vote is an exact copy of one this
  /// replica already verified.
  void count_duplicate_vote();

  /// Counts one full certificate verification that recomputed `members`
  /// vote MACs.
  void count_cert(std::size_t members);

 private:
  obs::Observer* obs_ = nullptr;
  ReplicaId replica_ = kNoReplica;
};

}  // namespace sftbft::crypto
