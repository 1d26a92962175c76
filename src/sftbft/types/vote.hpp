// Votes and strong-votes (paper Sec. 2.2, Fig. 4, Sec. 3.4).
//
// A plain DiemBFT vote is ⟨vote, B, r⟩_i. The SFT strong-vote additionally
// carries either
//   * a `marker` — the largest round of any block the voter ever voted for
//     that conflicts with B (Fig. 4), or
//   * an interval set `I` of round numbers the vote endorses (Sec. 3.4's
//     generalization, which buys liveness under Byzantine faults).
// The endorsement predicate implemented by `endorses_round()` is the paper's:
// a strong-vote for B' endorses a round-r block B iff B = B', or B' extends B
// and (marker < r | r ∈ I).
//
// The SFT history a vote carries (mode/marker/intervals) is split out as
// `VoteMeta`: certificates keep one compact meta per voter — the strength
// tracker needs it per voter — while their signature portion collapses to a
// single aggregate (see quorum_cert.hpp).
#pragma once

#include <cstdint>
#include <memory>

#include "sftbft/common/codec.hpp"
#include "sftbft/common/interval_set.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/crypto/sha256.hpp"
#include "sftbft/crypto/signature.hpp"

namespace sftbft::types {

/// Block identity is the SHA-256 digest of the block's canonical header.
using BlockId = crypto::Sha256Digest;

/// How much voting-history information a vote carries.
enum class VoteMode : std::uint8_t {
  Plain = 0,        ///< original DiemBFT: no history
  Marker = 1,       ///< SFT with one marker (Fig. 4)
  Intervals = 2,    ///< SFT with an endorsed-interval set (Sec. 3.4)
};

/// The SFT metadata of one vote — everything the strength tracker reads,
/// and everything a certificate must keep per voter.
struct VoteMeta {
  VoteMode mode = VoteMode::Plain;
  /// Largest conflicting voted round (Marker mode); 0 if none.
  Round marker = 0;
  /// Endorsed rounds (Intervals mode); empty otherwise.
  IntervalSet endorsed;

  /// The paper's endorsement predicate for a vote cast at `voted_round`
  /// (see file comment; the caller established the chain relationship).
  [[nodiscard]] bool endorses(Round voted_round, Round ancestor_round) const;

  void encode(Encoder& enc) const;
  static VoteMeta decode(Decoder& dec);

  /// Minimum encoded size (empty interval set): bounds untrusted per-voter
  /// meta counts while decoding certificates.
  static constexpr std::size_t kMinEncodedBytes = 1 + 8 + 4;

  friend bool operator==(const VoteMeta&, const VoteMeta&) = default;
};

struct Vote {
  BlockId block_id{};
  Round round = 0;
  ReplicaId voter = kNoReplica;
  VoteMode mode = VoteMode::Plain;
  /// Largest conflicting voted round (Marker mode); 0 if none.
  Round marker = 0;
  /// Endorsed rounds (Intervals mode); empty otherwise.
  IntervalSet endorsed;
  crypto::Signature sig{};

  /// This vote's SFT metadata, as certificates carry it.
  [[nodiscard]] VoteMeta meta() const { return {mode, marker, endorsed}; }

  /// Canonical bytes covered by the signature (everything except `sig`).
  /// Deliberately NOT memoized: signature verification must re-derive the
  /// bytes from the fields actually present, or an in-process tamper (the
  /// adversary layer's history forging, tests' lie-without-resigning
  /// probes) could verify against stale bytes. Digest memoization lives on
  /// the identity digests (QuorumCert::digest, Payload::records_digest)
  /// where no signature check depends on it.
  [[nodiscard]] Bytes signing_bytes() const;

  /// Appends the same canonical bytes, rebuilt from certificate parts —
  /// what an aggregate verifier recomputes per bitmap member.
  static void write_signing_bytes(Encoder& enc, const BlockId& block_id,
                                  Round round, ReplicaId voter,
                                  const VoteMeta& meta);

  /// Whether this vote endorses an ancestor block at `ancestor_round`.
  /// Precondition: the caller has established that the voted block extends
  /// the ancestor (or equals it — a vote always endorses its own block).
  [[nodiscard]] bool endorses_round(Round ancestor_round) const;

  void encode(Encoder& enc) const;
  static Vote decode(Decoder& dec);

  /// Minimum encoded size (empty interval set): used to bound untrusted
  /// vote counts while decoding vote containers.
  static constexpr std::size_t kMinEncodedBytes =
      32 + 8 + 4 + VoteMeta::kMinEncodedBytes + (4 + 32);

  friend bool operator==(const Vote&, const Vote&) = default;
};

}  // namespace sftbft::types
