// OutboundFunnel: the strategy-filtered delivery path of every Byzantine
// replica (the send-path half of adversary::ByzantinePlugin; the other half
// crafts twin proposals and forged votes). The delivery policy —
// SelectiveSender drops, WithholdRelease delays certificate carriers,
// Coalition accounting for both — lives here once, for every protocol. Since both stacks speak the same byte-level
// transport, the funnel is a plain class over net::Envelope, not a
// per-message-type template.
#pragma once

#include <utility>

#include "sftbft/adversary/coalition.hpp"
#include "sftbft/engine/fault.hpp"
#include "sftbft/net/transport.hpp"
#include "sftbft/sim/scheduler.hpp"

namespace sftbft::adversary {

class OutboundFunnel {
 public:
  /// `fault` and `coalition` must outlive the funnel (both are members of
  /// the owning replica host / shared deployment state).
  OutboundFunnel(ReplicaId id, net::Transport& transport,
                 const engine::FaultSpec& fault, Coalition& coalition)
      : id_(id), transport_(transport), fault_(fault), coalition_(coalition) {}

  [[nodiscard]] bool suppressed(ReplicaId to) const {
    if (!fault_.byz.has(Strategy::SelectiveSender)) return false;
    for (const ReplicaId peer : fault_.byz.suppress_to) {
      if (peer == to) return true;
    }
    return false;
  }

  /// Undelayed, unfiltered self-delivery: the replica's own core keeps
  /// seeing its own messages immediately even while withholding from peers
  /// (a withholding leader still certifies privately against its own view).
  void send_self(net::Envelope env, const char* label = nullptr) {
    transport_.send(id_, std::move(env), label);
  }

  /// Unicast with SelectiveSender filtering; `withholdable` messages (the
  /// carriers of fresh certificates: proposals, and timeouts leaking
  /// qc_high) are additionally delayed by WithholdRelease.
  void send(ReplicaId to, net::Envelope env, bool withholdable,
            const char* label = nullptr) {
    if (suppressed(to)) {
      ++coalition_.stats().suppressed;
      return;
    }
    if (withholdable && fault_.byz.has(Strategy::WithholdRelease)) {
      ++coalition_.stats().withheld;
      transport_.scheduler().schedule_after(
          fault_.byz.withhold_delay,
          [this, to, label, env = std::move(env)] {
            transport_.send(to, env, label);
          });
      return;
    }
    transport_.send(to, std::move(env), label);
  }

  /// Filtered fan-out to every peer except self. (The strategy filter is
  /// per-link, so this path sends per peer instead of using the transport's
  /// shared-frame broadcast — adversarial traffic pays its own encoding.)
  void send_peers(const net::Envelope& env, bool withholdable,
                  const char* label = nullptr) {
    for (ReplicaId to = 0; to < transport_.size(); ++to) {
      if (to == id_) continue;
      send(to, env, withholdable, label);
    }
  }

 private:
  ReplicaId id_;
  net::Transport& transport_;
  const engine::FaultSpec& fault_;
  Coalition& coalition_;
};

}  // namespace sftbft::adversary
