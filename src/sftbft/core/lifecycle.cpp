#include "sftbft/core/lifecycle.hpp"

#include "sftbft/obs/observer.hpp"

namespace sftbft::core {

namespace ev = obs::event;

void Lifecycle::span(const char* name, const types::Block& block, SimTime now,
                     obs::TraceEvent::Arg extra) const {
  if (!obs_->recording()) return;
  obs_->emit(obs::span_event(ev::kBlock, name, id_, block.height,
                             block.created_at, now, {"round", block.round},
                             extra));
}

void Lifecycle::instant(const char* category, const char* name,
                        const types::Block& block, SimTime at) const {
  if (!obs_->recording()) return;
  obs_->emit(obs::instant_event(category, name, id_, at,
                                {"round", block.round},
                                {"height", block.height}));
}

void Lifecycle::emit_round_entered(Round round, SimTime now) const {
  obs_->count(id_, obs::Counter::kRoundsEntered);
  obs_->gauge(id_, obs::Gauge::kRound, static_cast<std::int64_t>(round));
  if (obs_->recording()) {
    obs_->emit(obs::instant_event(ev::kPacemaker, ev::kRoundEnter, id_, now,
                                  {"round", round}));
  }
  if (obs_->tracing()) {
    // Counter track: lagging replicas show a visibly lower staircase.
    obs_->emit_trace_only(obs::counter_event(ev::kPacemaker, ev::kRound, id_,
                                             now, {"round", round}));
  }
}

void Lifecycle::emit_local_timeout(Round round, SimTime now) const {
  obs_->count(id_, obs::Counter::kTimeoutsLocal);
  if (obs_->recording()) {
    obs_->emit(obs::instant_event(ev::kPacemaker, ev::kTimeout, id_, now,
                                  {"round", round}));
  }
}

void Lifecycle::emit_proposed(const types::Block& block, SimTime now,
                              std::size_t mempool_pending) const {
  obs_->count(id_, obs::Counter::kProposalsSent);
  span(ev::kProposed, block, now, {"height", block.height});
  if (obs_->tracing()) {
    obs_->emit_trace_only(obs::counter_event(
        ev::kMempool, ev::kMempoolDepth, id_, now,
        {"pending", static_cast<std::uint64_t>(mempool_pending)}));
  }
}

void Lifecycle::emit_voted(const types::Block& block, SimTime now) const {
  // The critical path's "dissem wait" ends at the gate pass, on arrival or
  // on a retry after the missing batches landed.
  if (payload_gated_) instant(ev::kDissem, ev::kPayloadReady, block, now);
  obs_->count(id_, obs::Counter::kVotesSent);
  span(ev::kVoted, block, now);
}

void Lifecycle::note_vote(const types::BlockId& id, std::size_t distinct,
                          SimTime now) {
  if (distinct != f_ + 1 && distinct != 2 * f_ + 1) return;
  VoteClock& clock = clocks_[id];
  if (distinct == f_ + 1) clock.f1_at = now;
  if (distinct == 2 * f_ + 1) clock.quorum_at = now;
}

void Lifecycle::emit_vote_clock(const types::Block& block) {
  const auto it = clocks_.find(block.id);
  if (it == clocks_.end()) return;
  const VoteClock clock = it->second;
  clocks_.erase(it);
  if (clock.f1_at > 0) {
    obs_->observe(id_, obs::Hist::kVoteF1LatencyUs,
                  clock.f1_at - block.created_at);
    instant(ev::kBlock, ev::kVoteF1, block, clock.f1_at);
  }
  if (clock.quorum_at > 0) {
    obs_->observe(id_, obs::Hist::kVoteQuorumLatencyUs,
                  clock.quorum_at - block.created_at);
    instant(ev::kBlock, ev::kVoteQuorum, block, clock.quorum_at);
  }
}

void Lifecycle::emit_certified(const types::Block& block, SimTime now) {
  if (!certified_.insert(block.id).second) return;
  obs_->count(id_, obs::Counter::kBlocksCertified);
  obs_->observe(id_, obs::Hist::kCertifyLatencyUs, now - block.created_at);
  span(ev::kCertified, block, now);
}

void Lifecycle::emit_committed(const types::Block& block,
                               std::uint32_t strength, SimTime now) const {
  const bool strong = strength > f_;
  obs_->count(id_,
              strong ? obs::Counter::kStrongCommits : obs::Counter::kCommits);
  obs_->observe(id_,
                strong ? obs::Hist::kStrongCommitLatencyUs
                       : obs::Hist::kCommitLatencyUs,
                now - block.created_at);
  span(strong ? ev::kStrongCommit : ev::kCommitted, block, now,
       {"strength", strength});
}

}  // namespace sftbft::core
