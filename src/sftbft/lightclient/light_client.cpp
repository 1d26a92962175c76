#include "sftbft/lightclient/light_client.hpp"

namespace sftbft::lightclient {

using types::Block;
using types::BlockId;
using types::CommitLogEntry;
using types::Proposal;

LightClient::LightClient(
    std::shared_ptr<const crypto::KeyRegistry> registry, std::uint32_t n)
    : registry_(std::move(registry)), n_(n) {}

bool LightClient::verify(const StrongCommitProof& proof) const {
  const Block& carrier_block = proof.carrier.block;

  // 1. Carrier block integrity + proposer legitimacy (round-robin rotation
  //    is public knowledge) + Log-covering signature. The Log must also
  //    match the digest sealed into the block header — that digest is what
  //    the QC's voters actually signed over, so without this check a
  //    corrupted proposer could re-sign a different Log under an
  //    already-certified block.
  if (!carrier_block.id_is_valid()) return false;
  if (carrier_block.log_digest !=
      types::commit_log_digest(proof.carrier.commit_log)) {
    return false;
  }
  if (carrier_block.proposer != carrier_block.round % n_) return false;
  if (proof.carrier.sig.signer != carrier_block.proposer) return false;
  if (!registry_->verify(proof.carrier.sig, proof.carrier.signing_bytes())) {
    return false;
  }

  // 2. The carrier is certified: 2f + 1 distinct valid votes for its id.
  //    This is what makes the Log trustworthy with up to 2f faults — at
  //    least one of the 2f + 1 voters is honest and verified the entries
  //    before voting (Sec. 5).
  if (proof.carrier_qc.block_id != carrier_block.id ||
      proof.carrier_qc.round != carrier_block.round) {
    return false;
  }
  if (!proof.carrier_qc.verify(*registry_, quorum())) return false;

  // 3. The claimed entry is literally in the certified Log and strong
  //    enough for the claim.
  bool entry_found = false;
  for (const CommitLogEntry& entry : proof.carrier.commit_log) {
    if (entry == proof.entry) {
      entry_found = true;
      break;
    }
  }
  if (!entry_found) return false;
  if (proof.entry.strength < proof.strength) return false;
  if (proof.strength == 0 || proof.strength > 2 * f()) return false;

  // 4. Ancestry: the strong commit rule covers all ancestors of the logged
  //    3-chain head, so a hash-linked path from the target to the head
  //    extends the claim to the target.
  if (proof.target == proof.entry.block_id) return proof.path.empty();
  if (proof.path.empty()) return false;
  if (proof.path.front().parent_id != proof.target) return false;
  for (std::size_t i = 0; i < proof.path.size(); ++i) {
    if (!proof.path[i].id_is_valid()) return false;
    if (i > 0 && proof.path[i].parent_id != proof.path[i - 1].id) {
      return false;
    }
  }
  return proof.path.back().id == proof.entry.block_id;
}

std::optional<StrongCommitProof> build_proof(
    const core::ChainedCore& replica, const BlockId& target,
    std::uint32_t strength) {
  const chain::BlockTree& tree = replica.tree();
  if (!tree.contains(target)) return std::nullopt;

  for (const auto& [carrier_id, proposal] : replica.logged_proposals()) {
    for (const CommitLogEntry& entry : proposal.commit_log) {
      if (entry.strength < strength) continue;
      const bool covers = entry.block_id == target ||
                          tree.extends(entry.block_id, target);
      if (!covers) continue;

      // Certifying QC for the carrier: embedded in any child block.
      const types::QuorumCert* qc = nullptr;
      for (const Block* child : tree.children_of(carrier_id)) {
        if (child->qc.block_id == carrier_id) {
          qc = &child->qc;
          break;
        }
      }
      if (qc == nullptr) continue;  // carrier not certified (yet)

      StrongCommitProof proof;
      proof.target = target;
      proof.strength = strength;
      proof.entry = entry;
      proof.carrier = proposal;
      proof.carrier_qc = *qc;
      for (const Block* block : tree.path(target, entry.block_id)) {
        proof.path.push_back(*block);
      }
      return proof;
    }
  }
  return std::nullopt;
}

}  // namespace sftbft::lightclient
