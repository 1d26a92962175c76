#include "sftbft/adversary/byzantine.hpp"

namespace sftbft::adversary {

using net::Envelope;
using types::Vote;
using types::VoteMode;

ByzantinePlugin::ByzantinePlugin(ReplicaId id, net::Transport& transport,
                                 const engine::FaultSpec& fault,
                                 std::shared_ptr<Coalition> coalition,
                                 crypto::Signer signer)
    : id_(id),
      transport_(transport),
      fault_(fault),
      coalition_(std::move(coalition)),
      funnel_(id, transport, fault_, *coalition_),
      signer_(std::move(signer)),
      election_(transport.size()) {
  coalition_->enlist(id_);
}

void ByzantinePlugin::multicast(const Envelope& env, bool include_self,
                                bool withholdable, const char* label) {
  if (include_self) funnel_.send_self(env, label);
  funnel_.send_peers(env, withholdable, label);
}

template <class Proposal>
bool ByzantinePlugin::equivocate(const Proposal& proposal,
                                 net::WireType tag) {
  if (!fault_.byz.has(Strategy::EquivocatingLeader)) return false;
  // The twin: identical parent/round/height/payload, distinct id (the
  // creation stamp is part of the sealed header). Honest receivers cannot
  // structurally distinguish it from the original.
  Proposal twin = proposal;
  twin.block.created_at += 1;
  twin.block.seal();
  twin.sig = signer_.sign(twin.signing_bytes());

  coalition_->record_fork(proposal.block.round, proposal.block.id,
                          twin.block.id);
  ++coalition_->stats().equivocations;

  // Serialize each fork once; per-recipient sends copy the payload instead
  // of re-running the full (block-sized) canonical encode.
  const Envelope original_env = Envelope::pack(tag, id_, proposal);
  const Envelope twin_env = Envelope::pack(tag, id_, twin);
  for (ReplicaId to = 0; to < transport_.size(); ++to) {
    const bool both = coalition_->is_member(to);
    if (to == id_) {
      // Own core sees both forks (it is a coalition member): it votes its
      // own view once; the amnesia path votes the twin as well.
      funnel_.send_self(original_env);
      funnel_.send_self(twin_env);
      continue;
    }
    if (both || to % 2 == 0) {
      funnel_.send(to, original_env, /*withholdable=*/true);
    }
    if (both || to % 2 != 0) {
      funnel_.send(to, twin_env, /*withholdable=*/true);
    }
  }
  return true;
}

template bool ByzantinePlugin::equivocate(const types::Proposal&,
                                          net::WireType);
template bool ByzantinePlugin::equivocate(const streamlet::SProposal&,
                                          net::WireType);

void ByzantinePlugin::forge_history(Vote& vote) {
  if (!fault_.byz.has(Strategy::AmnesiaVoter)) return;
  switch (vote.mode) {
    case VoteMode::Plain:
      return;
    case VoteMode::Marker:
      if (vote.marker == 0) return;  // already looks historyless
      vote.marker = 0;
      break;
    case VoteMode::Intervals:
      vote.endorsed = IntervalSet::single(1, vote.round);
      break;
  }
  vote.sig = signer_.sign(vote.signing_bytes());
  ++coalition_->stats().forged_votes;
}

void ByzantinePlugin::forge_history(streamlet::SVote& vote) {
  if (!fault_.byz.has(Strategy::AmnesiaVoter) || vote.marker == 0) return;
  vote.marker = 0;  // "I never voted a conflicting fork" — a lie
  vote.sig = signer_.sign(vote.signing_bytes());
  ++coalition_->stats().forged_votes;
}

bool ByzantinePlugin::first_forgery_for(const types::Block& block) {
  return fault_.byz.has(Strategy::AmnesiaVoter) &&
         forged_for_.insert(block.id).second;
}

void ByzantinePlugin::forge_vote_for(const types::Block& block,
                                     core::CoreMode mode, net::WireType tag) {
  if (!first_forgery_for(block)) return;
  Vote vote;
  vote.block_id = block.id;
  vote.round = block.round;
  vote.voter = id_;
  switch (mode) {
    case core::CoreMode::Plain:
      vote.mode = VoteMode::Plain;
      break;
    case core::CoreMode::SftMarker:
      vote.mode = VoteMode::Marker;
      vote.marker = 0;  // "I never voted a conflicting fork" — a lie
      break;
    case core::CoreMode::SftIntervals:
      vote.mode = VoteMode::Intervals;
      vote.endorsed = IntervalSet::single(1, block.round);  // endorse all
      break;
  }
  vote.sig = signer_.sign(vote.signing_bytes());
  ++coalition_->stats().forged_votes;
  funnel_.send(election_.leader_of(block.round + 1),
               Envelope::pack(tag, id_, vote), /*withholdable=*/false);
}

void ByzantinePlugin::forge_svote_for(const types::Block& block) {
  if (!first_forgery_for(block)) return;
  streamlet::SVote vote;
  vote.block_id = block.id;
  vote.round = block.round;
  vote.height = block.height;
  vote.voter = id_;
  vote.marker = 0;
  vote.sig = signer_.sign(vote.signing_bytes());
  ++coalition_->stats().forged_votes;
  multicast(Envelope::pack(net::WireType::kSVote, id_, vote),
            /*include_self=*/true, /*withholdable=*/false, nullptr);
}

}  // namespace sftbft::adversary
