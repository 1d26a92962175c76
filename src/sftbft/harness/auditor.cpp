#include "sftbft/harness/auditor.hpp"

#include <algorithm>
#include <cstdio>

namespace sftbft::harness {

using types::Block;
using types::BlockId;
using types::QuorumCert;

SafetyAuditor::SafetyAuditor(Config config)
    : config_(config),
      sft_tracker_(tree_, config.n, config.f(), core::CountingRule::Sft) {
  // Genesis is certified by definition (Streamlet grounding).
  certified_.insert(tree_.genesis_id());
}

// ------------------------------------------------------------------- feeds

void SafetyAuditor::on_commit(ReplicaId replica, const Block& block,
                              std::uint32_t strength, SimTime now) {
  ingest_block(block);
  audit_claim(block.id, strength, replica, now);
}

void SafetyAuditor::on_qc(ReplicaId /*replica*/, const Block& block,
                          const QuorumCert& qc) {
  ingest_block(block);
  if (tree_.contains(qc.block_id)) {
    sft_tracker_.process_qc(qc);
  } else {
    pending_qcs_[qc.block_id].push_back(qc);
  }
}

void SafetyAuditor::on_block(ReplicaId /*replica*/, const Block& block) {
  ingest_block(block);
}

void SafetyAuditor::on_vote(ReplicaId /*replica*/,
                            const core::VoteSeen& vote) {
  auto& per_voter = svotes_[vote.block_id];
  if (!per_voter.emplace(vote.voter, vote).second) return;  // global dedupe
  // Ground the endorsement with the truthful on-wire marker (the tracker's
  // walk no-ops while the block is unknown; ingest_block replays then).
  sft_tracker_.ingest_height_vote(vote.block_id, vote.voter, vote.marker);
  streamlet_try_certify(vote.block_id);
  if (tree_.contains(vote.block_id)) streamlet_check_commits(vote.block_id);
}

void SafetyAuditor::on_proof(const lightclient::StrongCommitProof& proof,
                             SimTime now) {
  ingest_block(proof.carrier.block);
  for (const Block& block : proof.path) ingest_block(block);
  audit_claim(proof.target, proof.strength, kNoReplica, now);
}

core::AuditTaps SafetyAuditor::taps() {
  core::AuditTaps taps;
  taps.canonical_qc = [this](ReplicaId replica, const Block& block,
                             const QuorumCert& qc) {
    on_qc(replica, block, qc);
  };
  taps.block_seen = [this](ReplicaId replica, const Block& block) {
    on_block(replica, block);
  };
  taps.vote_seen = [this](ReplicaId replica, const core::VoteSeen& vote) {
    on_vote(replica, vote);
  };
  return taps;
}

void SafetyAuditor::ingest_block(const Block& block) {
  if (block.height == 0) return;
  if (tree_.insert(block) != chain::BlockTree::InsertResult::Inserted) return;

  // Linking one block can adopt a whole orphan subtree; drain every pending
  // QC / vote set whose certified block became reachable.
  for (auto it = pending_qcs_.begin(); it != pending_qcs_.end();) {
    if (tree_.contains(it->first)) {
      for (const QuorumCert& qc : it->second) sft_tracker_.process_qc(qc);
      it = pending_qcs_.erase(it);
    } else {
      ++it;
    }
  }
  if (config_.protocol == engine::Protocol::Streamlet) {
    // Votes that arrived before their block now ground endorsements. The
    // insert may have adopted a whole orphan subtree, so walk every block
    // that just became reachable (replaying a vote is idempotent).
    std::vector<const Block*> frontier{tree_.get(block.id)};
    while (!frontier.empty()) {
      const Block* current = frontier.back();
      frontier.pop_back();
      if (current == nullptr) continue;
      auto votes = svotes_.find(current->id);
      if (votes != svotes_.end()) {
        for (const auto& [voter, vote] : votes->second) {
          sft_tracker_.ingest_height_vote(vote.block_id, vote.voter,
                                          vote.marker);
        }
      }
      streamlet_try_certify(current->id);
      streamlet_check_commits(current->id);
      for (const Block* child : tree_.children_of(current->id)) {
        frontier.push_back(child);
      }
    }
  }
}

// ------------------------------------------------------------------ claims

void SafetyAuditor::audit_claim(const BlockId& id, std::uint32_t strength,
                                ReplicaId replica, SimTime now) {
  ++claims_;
  max_claimed_ = std::max(max_claimed_, strength);
  const std::uint32_t prev = [&] {
    auto it = claimed_.find(id);
    return it == claimed_.end() ? 0u : it->second;
  }();
  if (strength <= prev) return;  // nothing new to audit (dedupes n replicas)

  // Conflicting commits: a different block claimed committed at the same
  // height. Honest commits always cover all ancestors, so equal-height
  // pairs capture every cross-branch conflict.
  if (const Block* block = tree_.get(id)) {
    auto& at_height = committed_at_[block->height];
    for (const BlockId& rival : at_height) {
      if (rival == id) continue;
      Violation violation;
      violation.kind = Violation::Kind::ConflictingCommit;
      violation.block = id;
      violation.rival = rival;
      violation.claimed = strength;
      auto rival_claim = claimed_.find(rival);
      violation.supported =
          rival_claim == claimed_.end() ? 0 : rival_claim->second;
      violation.threshold = std::min(strength, violation.supported);
      violation.replica = replica;
      violation.at = now;
      record_violation(std::move(violation));
    }
    if (std::find(at_height.begin(), at_height.end(), id) ==
        at_height.end()) {
      at_height.push_back(id);
    }
  }

  // Unsound strong claim: more tolerance than the VoteHistory ground truth
  // supports *right now* — the Appendix-C window where the adversary can
  // revert an "x-strong" block (checked eagerly; support accruing later
  // does not retroactively make the exposed claim safe).
  if (strength > config_.f()) {
    if (config_.protocol == engine::Protocol::Streamlet &&
        strength > supported_strength(id)) {
      streamlet_refresh_support(id);
    }
    const std::uint32_t supported = supported_strength(id);
    if (strength > supported) {
      Violation violation;
      violation.kind = Violation::Kind::UnsoundClaim;
      violation.block = id;
      violation.claimed = strength;
      violation.supported = supported;
      violation.threshold = strength;
      violation.replica = replica;
      violation.at = now;
      record_violation(std::move(violation));
    }
  }

  claimed_[id] = strength;
}

void SafetyAuditor::record_violation(Violation violation) {
  violations_.push_back(violation);
  if (violation_hook_) violation_hook_(violations_.back());
}

std::uint32_t SafetyAuditor::supported_strength(const BlockId& id) const {
  std::uint32_t supported = config_.f();  // the regular commit's baseline
  if (engine::is_chained(config_.protocol)) {
    supported = std::max(supported, sft_tracker_.effective_strength(id));
  } else {
    auto it = streamlet_supported_.find(id);
    if (it != streamlet_supported_.end()) {
      supported = std::max(supported, it->second);
    }
  }
  return supported;
}

std::uint64_t SafetyAuditor::violations_at(std::uint32_t x) const {
  std::uint64_t count = 0;
  for (const Violation& violation : violations_) {
    if (violation.threshold >= x) ++count;
  }
  return count;
}

bool SafetyAuditor::clean_at(std::uint32_t x) const {
  return violations_at(x) == 0;
}

std::string SafetyAuditor::Violation::describe() const {
  char buf[160];
  if (kind == Kind::ConflictingCommit) {
    std::snprintf(buf, sizeof(buf),
                  "conflicting commits at threshold %u (claimed x=%u vs "
                  "rival x=%u) at t=%s",
                  threshold, claimed, supported, format_time(at).c_str());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "unsound claim: x=%u committed, VoteHistory ground truth "
                  "supports only x=%u (replica %u, t=%s)",
                  claimed, supported, replica, format_time(at).c_str());
  }
  return buf;
}

// --------------------------------------- Streamlet ground truth (Fig. 11)

void SafetyAuditor::streamlet_try_certify(const BlockId& id) {
  if (certified_.contains(id)) return;
  auto it = svotes_.find(id);
  const std::uint32_t quorum = 2 * config_.f() + 1;
  if (it == svotes_.end() || it->second.size() < quorum) return;
  if (!tree_.contains(id)) return;
  certified_.insert(id);
  streamlet_check_commits(id);
}

void SafetyAuditor::streamlet_check_commits(const BlockId& id) {
  const Block* block = tree_.get(id);
  if (block == nullptr) return;
  streamlet_evaluate_triple(*block);
  if (const Block* parent = tree_.parent_of(id)) {
    streamlet_evaluate_triple(*parent);
  }
  for (const Block* child : tree_.children_of(id)) {
    streamlet_evaluate_triple(*child);
  }
}

void SafetyAuditor::streamlet_refresh_support(const BlockId& id) {
  std::vector<const Block*> frontier{tree_.get(id)};
  while (!frontier.empty()) {
    const Block* current = frontier.back();
    frontier.pop_back();
    if (current == nullptr) continue;
    streamlet_evaluate_triple(*current);
    for (const Block* child : tree_.children_of(current->id)) {
      frontier.push_back(child);
    }
  }
}

void SafetyAuditor::streamlet_evaluate_triple(const Block& middle) {
  // The kernel's single Fig. 11 rule, applied to the auditor's global
  // evidence under truthful markers.
  const std::optional<std::uint32_t> strength =
      core::streamlet_triple_strength(
          tree_, sft_tracker_, middle,
          [this](const BlockId& id) { return certified_.contains(id); },
          config_.n, config_.f(), /*sft=*/true);
  if (!strength || *strength == 0) return;  // supported floor is already f
  // Propagate down the chain (the strong commit rule covers ancestors);
  // stop once an ancestor already holds at least this strength.
  for (const Block* covered = &middle;
       covered != nullptr && covered->height > 0;
       covered = tree_.parent_of(covered->id)) {
    std::uint32_t& recorded = streamlet_supported_[covered->id];
    if (recorded >= *strength) break;
    recorded = *strength;
  }
}

}  // namespace sftbft::harness
