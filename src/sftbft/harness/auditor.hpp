// SafetyAuditor: a global, omniscient observer that checks the paper's
// central promise — an x-strong commit survives up to x corruptions — while
// an adversary is actively attacking (Appendix C / Fig. 9).
//
// The auditor sits above the deployment and never participates in the
// protocol. It consumes three feeds:
//
//  * every honest commit (the Deployment's CommitObserver): the claim
//    "block B is x-strong committed";
//  * every certificate any replica processes (core::AuditTaps): canonical
//    QCs on the chained protocols (DiemBFT, HotStuff), blocks + votes on
//    Streamlet. Because each core fires its tap *before* its own strength
//    bookkeeping consumes the data, the auditor's global view is always a
//    superset of any single replica's view at the moment that replica makes
//    a claim;
//  * every lightclient::StrongCommitProof presented to it (the Sec. 5
//    trust path) — callers verify the proof cryptographically first; the
//    auditor audits the *claim* the proof certifies.
//
// From the certificate feed the auditor maintains the ground-truth
// VoteHistory accounting — one core::StrengthTracker in the protocol's
// marker domain, the same single implementation the engines themselves run
// (with CountingRule::Sft, whatever rule the replicas were configured
// with) — and it flags two kinds of violations:
//
//  * ConflictingCommit — two conflicting blocks both claimed committed.
//    The violation's threshold is the *smaller* claimed strength: an
//    x-strong commit with a conflicting commit anywhere is broken for every
//    tolerance >= that level.
//  * UnsoundClaim — a claim of strength x > f that the ground-truth
//    VoteHistory rule cannot justify at the moment the claim is made
//    (checked eagerly, because sound support can accrue later — the paper's
//    point is that the adversary strikes *when* the overclaim happens).
//    This is exactly how the Appendix-C strawman dies: under
//    CountingRule::NaiveAllIndirect honest replicas claim strengths their
//    own cross-fork voters' truthful markers deny, and the adversary can
//    revert the block while the claim stands (Fig. 9). Under the
//    VoteHistory rule every honest claim is derived from a subset of the
//    auditor's evidence, so no honest run can ever trip this check.
//
// clean_at(x) answers the acceptance question "zero conflicting x-strong
// commits for all thresholds >= x".
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sftbft/chain/block_tree.hpp"
#include "sftbft/core/audit.hpp"
#include "sftbft/core/strength.hpp"
#include "sftbft/engine/engine.hpp"
#include "sftbft/lightclient/light_client.hpp"

namespace sftbft::harness {

class SafetyAuditor {
 public:
  struct Config {
    engine::Protocol protocol = engine::Protocol::DiemBft;
    std::uint32_t n = 4;

    [[nodiscard]] std::uint32_t f() const { return (n - 1) / 3; }
  };

  explicit SafetyAuditor(Config config);

  // --- feeds (wire into Deployment / the light-client path) ---------------
  /// Honest commit claim (Deployment CommitObserver signature).
  void on_commit(ReplicaId replica, const types::Block& block,
                 std::uint32_t strength, SimTime now);
  /// Chained-stack certificate tap (core::AuditTaps::canonical_qc).
  void on_qc(ReplicaId replica, const types::Block& block,
             const types::QuorumCert& qc);
  /// Streamlet taps (core::AuditTaps::{block_seen,vote_seen}).
  void on_block(ReplicaId replica, const types::Block& block);
  void on_vote(ReplicaId replica, const core::VoteSeen& vote);
  /// A cryptographically verified light-client claim (callers run
  /// LightClient::verify first; feeding an unverified proof audits a claim
  /// nobody certified).
  void on_proof(const lightclient::StrongCommitProof& proof, SimTime now);

  /// The deployment-facing tap bundle, feeding this auditor (pass to
  /// engine::Deployment's `taps` parameter). The auditor must outlive the
  /// deployment.
  [[nodiscard]] core::AuditTaps taps();

  // --- verdicts ------------------------------------------------------------
  struct Violation {
    enum class Kind { ConflictingCommit, UnsoundClaim };
    Kind kind = Kind::UnsoundClaim;
    types::BlockId block{};     ///< the claimed block
    types::BlockId rival{};     ///< ConflictingCommit: the conflicting block
    std::uint32_t claimed = 0;  ///< claimed tolerance x
    std::uint32_t supported = 0;///< ground-truth tolerance at claim time
    /// Tolerance level the violation breaks: claims at or above this
    /// threshold are unsafe.
    std::uint32_t threshold = 0;
    ReplicaId replica = kNoReplica;  ///< claimant (kNoReplica for proofs)
    SimTime at = 0;

    [[nodiscard]] std::string describe() const;
  };

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  /// Fired the moment a violation is recorded — the harness uses this to
  /// snapshot the flight recorder *at* the violation instant, before further
  /// events evict the incriminating timeline. May be empty.
  void set_violation_hook(std::function<void(const Violation&)> hook) {
    violation_hook_ = std::move(hook);
  }
  /// Number of violations breaking tolerance threshold x (or above is NOT
  /// implied — a violation at threshold t breaks every x <= t).
  [[nodiscard]] std::uint64_t violations_at(std::uint32_t x) const;
  /// "Zero conflicting x-strong commits for every threshold >= x": true iff
  /// no recorded violation has threshold >= x.
  [[nodiscard]] bool clean_at(std::uint32_t x) const;

  /// Claims audited so far (commits + proofs) and the strongest claim seen.
  [[nodiscard]] std::uint64_t claims() const { return claims_; }
  [[nodiscard]] std::uint32_t max_claimed() const { return max_claimed_; }

  /// Ground-truth tolerance of a block under the VoteHistory rule, given
  /// everything the auditor has seen (>= f always: the regular commit's
  /// baseline is not the auditor's to question).
  [[nodiscard]] std::uint32_t supported_strength(
      const types::BlockId& id) const;

  [[nodiscard]] const chain::BlockTree& tree() const { return tree_; }

 private:
  void record_violation(Violation violation);
  void ingest_block(const types::Block& block);
  void audit_claim(const types::BlockId& id, std::uint32_t strength,
                   ReplicaId replica, SimTime now);
  void streamlet_try_certify(const types::BlockId& id);
  void streamlet_check_commits(const types::BlockId& id);
  /// Re-evaluates every triple centred on `id` or a descendant. A vote
  /// raises the endorser counts of every ancestor of its block, but on_vote
  /// re-evaluates only the triples around the voted block, so a block's
  /// recorded support can lag the tracker until its claim is audited.
  void streamlet_refresh_support(const types::BlockId& id);
  void streamlet_evaluate_triple(const types::Block& middle);

  Config config_;
  chain::BlockTree tree_;

  /// Ground truth: the engines' own single strength-accounting
  /// implementation, fed truthful markers under CountingRule::Sft — in the
  /// round domain (canonical QCs) for the chained protocols, the height
  /// domain (individual votes) for Streamlet.
  core::StrengthTracker sft_tracker_;
  /// QCs whose certified block was still orphaned on arrival, keyed by the
  /// block id they wait for (chained protocols).
  std::unordered_map<types::BlockId, std::vector<types::QuorumCert>>
      pending_qcs_;

  // Streamlet grounding.
  std::unordered_map<types::BlockId,
                     std::unordered_map<ReplicaId, core::VoteSeen>>
      svotes_;
  std::unordered_set<types::BlockId> certified_;
  /// Highest sound strength per block, self-or-descendant heads included
  /// (the Streamlet analogue of StrengthTracker::effective_strength,
  /// maintained incrementally via commit-chain propagation).
  std::unordered_map<types::BlockId, std::uint32_t> streamlet_supported_;

  // Claims: per block the strongest committed claim, plus a height index
  // for conflict detection.
  std::unordered_map<types::BlockId, std::uint32_t> claimed_;
  std::unordered_map<Height, std::vector<types::BlockId>> committed_at_;

  std::vector<Violation> violations_;
  std::function<void(const Violation&)> violation_hook_;
  std::uint64_t claims_ = 0;
  std::uint32_t max_claimed_ = 0;
};

}  // namespace sftbft::harness
