// ByzantinePlugin: what turns an engine::ReplicaHost into an actively
// adversarial replica (paper Appendix C / Fig. 9 on the chained engines,
// Appendix D.4 on Streamlet). Byzantine behaviour is a plug-in, not an
// engine: the host still runs a *real* core — that is what keeps the
// replica synced, lets it win its leadership rounds, collect votes and form
// QCs exactly like an honest replica — and hands every outbound message to
// this plug-in instead of the transport. The plug-in has two parts:
//
//  * the send path — the OutboundFunnel (SelectiveSender drops,
//    WithholdRelease delays for certificate carriers), per peer;
//  * message crafting —
//    - EquivocatingLeader: a proposal broadcast becomes twin conflicting
//      proposals (same round/height/parent, distinct ids) shown to disjoint
//      honest peer subsets; coalition members receive both;
//    - AmnesiaVoter: the core's truthful strong-votes are re-signed with a
//      forged empty history (marker 0 / full interval), and the inbound
//      proposal hook additionally votes for every same-round proposal the
//      replica sees, staged forks included — the exact "vote on both forks
//      and lie about the markers" schedule of Fig. 9.
//
// Shared attack state (fork registry, stats) lives in the Coalition every
// Byzantine replica of a deployment shares.
#pragma once

#include <memory>
#include <unordered_set>

#include "sftbft/adversary/coalition.hpp"
#include "sftbft/adversary/funnel.hpp"
#include "sftbft/consensus/leader_election.hpp"
#include "sftbft/core/chained_core.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/engine/fault.hpp"
#include "sftbft/streamlet/streamlet.hpp"

namespace sftbft::adversary {

class ByzantinePlugin {
 public:
  /// `fault` (Kind::Byzantine, validated) must outlive the plug-in;
  /// `coalition` is shared with every other Byzantine replica of the
  /// deployment, and the plug-in enlists `id` in it.
  ByzantinePlugin(ReplicaId id, net::Transport& transport,
                  const engine::FaultSpec& fault,
                  std::shared_ptr<Coalition> coalition, crypto::Signer signer);

  // Scheduled withhold releases capture the funnel's address.
  ByzantinePlugin(const ByzantinePlugin&) = delete;
  ByzantinePlugin& operator=(const ByzantinePlugin&) = delete;

  // --- send path ------------------------------------------------------------
  void send(ReplicaId to, net::Envelope env, bool withholdable) {
    funnel_.send(to, std::move(env), withholdable);
  }
  /// Per-peer fan-out through the funnel; `include_self` first delivers the
  /// replica's own copy, unfiltered and undelayed.
  void multicast(const net::Envelope& env, bool include_self,
                 bool withholdable, const char* label);

  // --- message crafting -----------------------------------------------------
  /// EquivocatingLeader: splits `proposal` into twins and distributes them
  /// under `tag`. Returns false (and sends nothing) without the strategy.
  /// Instantiated for types::Proposal and streamlet::SProposal.
  template <class Proposal>
  bool equivocate(const Proposal& proposal, net::WireType tag);

  /// AmnesiaVoter: rewrites a core-built vote to deny its own history and
  /// re-signs it (no-op without the strategy or with nothing to deny).
  void forge_history(types::Vote& vote);
  void forge_history(streamlet::SVote& vote);

  /// AmnesiaVoter's inbound proposal hook (chained cores): votes for
  /// `block` with a forged empty history, safety rules be damned — once per
  /// block, sent to the next round's collector under `tag`.
  void forge_vote_for(const types::Block& block, core::CoreMode mode,
                      net::WireType tag);
  /// The Streamlet variant: the forged vote is multicast like every
  /// Streamlet vote, so the double votes are public.
  void forge_svote_for(const types::Block& block);

 private:
  /// AmnesiaVoter and `block` not yet forged for (marks it forged).
  [[nodiscard]] bool first_forgery_for(const types::Block& block);

  ReplicaId id_;
  net::Transport& transport_;
  const engine::FaultSpec& fault_;
  std::shared_ptr<Coalition> coalition_;
  OutboundFunnel funnel_;
  crypto::Signer signer_;
  consensus::LeaderElection election_;
  /// Blocks already amnesia-voted (one forged vote per block).
  std::unordered_set<types::BlockId> forged_for_;
};

}  // namespace sftbft::adversary
