// The block lifecycle as the observability layer sees it (paper Sec. 4
// measures each block from its creation to each x-strong commit): every
// milestone a replica reports — round entered, local timeout, proposed (plus
// the mempool-depth counter track), received, payload ready, voted, the
// f+1 / 2f+1 vote-arrival clock, certified, committed — in the obs::event
// vocabulary obs::CriticalPathAnalyzer reads back. The consensus cores and
// the committer report through it and emit nothing themselves. Whether
// votes are gated on payload availability comes from the replica's
// dissem::DataPlane; the reporter never looks at a payload's mode.
//
// Each entry point is an inline null test; the out-of-line emission runs
// only when an Observer is attached (one pointer test per site otherwise).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "sftbft/common/types.hpp"
#include "sftbft/obs/trace.hpp"
#include "sftbft/types/block.hpp"

namespace sftbft::obs {
class Observer;
}  // namespace sftbft::obs

namespace sftbft::core {

class Lifecycle {
 public:
  /// `obs` may be null (off) and must outlive the reporter. `f` sizes the
  /// vote clock and splits regular from strong commits. `payload_gated`:
  /// votes wait on the data plane's availability gate
  /// (dissem::DataPlane::gates_votes(), digest payloads), so each vote
  /// first reports the gate pass as payload_ready.
  Lifecycle(obs::Observer* obs, ReplicaId id, std::uint32_t f,
            bool payload_gated)
      : obs_(obs), id_(id), f_(f), payload_gated_(payload_gated) {}

  void round_entered(Round round, SimTime now) const {
    if (obs_ != nullptr) emit_round_entered(round, now);
  }
  void local_timeout(Round round, SimTime now) const {
    if (obs_ != nullptr) emit_local_timeout(round, now);
  }
  /// `mempool_pending`: the leader's backlog after draining the batch.
  void proposed(const types::Block& block, SimTime now,
                std::size_t mempool_pending) const {
    if (obs_ != nullptr) emit_proposed(block, now, mempool_pending);
  }
  /// A proposal entered the tree. The proposer's own loopback copy is not
  /// reported: it would zero every block's transit.
  void received(const types::Block& block, SimTime now) const {
    if (obs_ != nullptr && block.proposer != id_) {
      span(obs::event::kReceived, block, now);
    }
  }
  void voted(const types::Block& block, SimTime now) const {
    if (obs_ != nullptr) emit_voted(block, now);
  }
  /// A new distinct vote for block `id` landed; `distinct` counts it.
  void vote_arrived(const types::BlockId& id, std::size_t distinct,
                    SimTime now) {
    if (obs_ != nullptr) note_vote(id, distinct, now);
  }
  /// Reports (and forgets) the vote-arrival crossings held for `block`;
  /// call once its creation time is known, at certification.
  void vote_clock(const types::Block& block) {
    if (obs_ != nullptr) emit_vote_clock(block);
  }
  /// Reported once per block, however often its certificate is replayed.
  void certified(const types::Block& block, SimTime now) {
    if (obs_ != nullptr) emit_certified(block, now);
  }
  void committed(const types::Block& block, std::uint32_t strength,
                 SimTime now) const {
    if (obs_ != nullptr) emit_committed(block, strength, now);
  }
  /// Crash recovery: the restored replica tallies and certifies afresh.
  void reset() { clocks_.clear(); certified_.clear(); }

 private:
  void emit_round_entered(Round round, SimTime now) const;
  void emit_local_timeout(Round round, SimTime now) const;
  void emit_proposed(const types::Block& block, SimTime now,
                     std::size_t mempool_pending) const;
  void emit_voted(const types::Block& block, SimTime now) const;
  void note_vote(const types::BlockId& id, std::size_t distinct,
                 SimTime now);
  void emit_vote_clock(const types::Block& block);
  void emit_certified(const types::Block& block, SimTime now);
  void emit_committed(const types::Block& block, std::uint32_t strength,
                      SimTime now) const;
  /// A "block" span from creation to `now`, on the block's height lane.
  void span(const char* name, const types::Block& block, SimTime now,
            obs::TraceEvent::Arg extra = {}) const;
  /// A (round, height)-keyed instant.
  void instant(const char* category, const char* name,
               const types::Block& block, SimTime at) const;

  obs::Observer* obs_ = nullptr;
  ReplicaId id_ = 0;
  std::uint32_t f_ = 0;
  bool payload_gated_ = false;
  /// The paper's strength clock, per block: sim time when the (f+1)-th /
  /// (2f+1)-th distinct vote landed (0 = not yet). Observed runs only, like
  /// the set of blocks whose certification was already reported.
  struct VoteClock {
    SimTime f1_at = 0;
    SimTime quorum_at = 0;
  };
  std::unordered_map<types::BlockId, VoteClock> clocks_;
  std::unordered_set<types::BlockId> certified_;
};

}  // namespace sftbft::core
