// Light-client proofs of strong commits (paper Sec. 5).
//
// "To prove the strong commit efficiently, the protocol can include an
// additional Log on every block proposal, which records any update on the
// strong commit level of previous blocks due to the new strong-QC contained
// in the proposal. Once the block proposal is certified (2f + 1 replicas
// voted), at least one honest replica agrees on the strong commit update
// assuming the number of Byzantine faults does not exceed 2f."
//
// A StrongCommitProof is therefore: a claim (commit-log entry), the carrier
// proposal whose signed Log contains it, a QC certifying the carrier block,
// and — when the claimed strength is wanted for an *ancestor* of the logged
// 3-chain head — the hash-linked block path from the target up to the head
// (the strong commit rule covers all ancestors).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sftbft/consensus/diembft.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/types/proposal.hpp"

namespace sftbft::lightclient {

struct StrongCommitProof {
  /// What is being proven: `target` is x-strong committed with x = strength.
  types::BlockId target{};
  std::uint32_t strength = 0;

  /// The log entry backing the claim (for `target` itself or a descendant
  /// 3-chain head whose commit covers `target`).
  types::CommitLogEntry entry{};
  /// Proposal whose commit_log contains `entry` (Log is signature-covered).
  types::Proposal carrier;
  /// QC certifying the carrier block (2f + 1 voters vouch for the Log).
  types::QuorumCert carrier_qc;
  /// Hash-linked path target -> ... -> entry.block_id (empty when equal).
  /// path.front().id == target's child ... path.back().id == entry.block_id.
  std::vector<types::Block> path;
};

class LightClient {
 public:
  /// The light client knows only the PKI and the system size.
  LightClient(std::shared_ptr<const crypto::KeyRegistry> registry,
              std::uint32_t n);

  /// Full verification of a proof; every rejection reason is structural or
  /// cryptographic — the client holds no chain state.
  [[nodiscard]] bool verify(const StrongCommitProof& proof) const;

 private:
  std::shared_ptr<const crypto::KeyRegistry> registry_;
  std::uint32_t n_;

  [[nodiscard]] std::uint32_t f() const { return (n_ - 1) / 3; }
  [[nodiscard]] std::uint32_t quorum() const { return 2 * f() + 1; }
};

/// Builds a proof from a (trusted, local) replica's state: finds a stored
/// proposal whose Log covers `target` at >= `strength`, the certifying QC
/// from the block tree, and the ancestry path. Returns nullopt when the
/// replica cannot (yet) prove the claim. Works against any chained-kernel
/// core (DiemBFT or HotStuff — the Sec. 5 Log machinery is kernel-level).
std::optional<StrongCommitProof> build_proof(
    const core::ChainedCore& replica, const types::BlockId& target,
    std::uint32_t strength);

}  // namespace sftbft::lightclient
