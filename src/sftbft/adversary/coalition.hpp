// Coalition: the shared brain of all corrupted replicas in one deployment.
//
// The paper's adversary is a single entity controlling up to c replicas
// (Sec. 2, "the adversary corrupts..."), not c independent gamblers. The
// Coalition gives the per-replica Byzantine plug-ins that shared identity:
//
//  * membership — who is corrupted (the auditor and benches read the ground
//    truth from here rather than re-deriving it from fault lists);
//  * fork registry — when an EquivocatingLeader stages a twin proposal it
//    records both block ids per round, so AmnesiaVoter members recognize the
//    staged forks (and the harness can introspect exactly which rounds were
//    attacked);
//  * attack accounting — equivocations staged, history-denying votes forged,
//    messages withheld/suppressed, for the bench tables.
//
// One Coalition instance is created by engine::Deployment when the fault
// list names any Byzantine replica and handed to every Byzantine replica's
// adversary::ByzantinePlugin.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sftbft/common/types.hpp"
#include "sftbft/types/vote.hpp"

namespace sftbft::adversary {

class Coalition {
 public:
  Coalition() = default;

  void enlist(ReplicaId id);
  [[nodiscard]] const std::vector<ReplicaId>& members() const {
    return members_;
  }
  [[nodiscard]] bool is_member(ReplicaId id) const;
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(members_.size());
  }

  /// The two conflicting block ids an equivocating member staged for a
  /// round. First writer wins (one fork pair per round keeps the coalition
  /// coherent when several members lead in interleaved rounds).
  void record_fork(Round round, const types::BlockId& main,
                   const types::BlockId& twin);
  [[nodiscard]] bool forked(Round round) const {
    return forks_.contains(round);
  }
  [[nodiscard]] const std::map<Round,
                               std::pair<types::BlockId, types::BlockId>>&
  forks() const {
    return forks_;
  }

  struct Stats {
    std::uint64_t equivocations = 0;    ///< twin proposals staged
    std::uint64_t forged_votes = 0;     ///< history-denying votes sent
    std::uint64_t withheld = 0;         ///< messages delayed by WithholdRelease
    std::uint64_t suppressed = 0;       ///< messages dropped by SelectiveSender
  };
  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  std::vector<ReplicaId> members_;
  std::map<Round, std::pair<types::BlockId, types::BlockId>> forks_;
  Stats stats_;
};

}  // namespace sftbft::adversary
