// ConsensusEngine: the protocol-agnostic per-replica interface every
// chained-BFT backend implements (paper claim: SFT applies *generically*
// across chained-BFT protocols — Secs. 3.2-3.4 for DiemBFT and HotStuff,
// Appendix D for Streamlet; all three are instantiated here over the
// sftbft::core kernel).
//
// An engine owns one replica's full stack (consensus core + mempool +
// workload + fault model) and is wired to a simulated network by a
// Deployment. There is one implementation, engine::ReplicaHost
// (replica_host.hpp), instantiated per core type; every fault kind,
// Byzantine included, runs inside it. The interface covers what the
// harness, benches, and tests need uniformly: lifecycle (start/stop),
// commit notifications (via the Deployment's CommitObserver), ledger
// access, and inbound-bandwidth metrics. Protocol-specific internals stay reachable through the
// Deployment's typed escape hatches (chained_core / streamlet_core).
#pragma once

#include <cstdint>
#include <functional>

#include "sftbft/chain/ledger.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/engine/fault.hpp"
#include "sftbft/types/block.hpp"

namespace sftbft::storage {
class ReplicaStore;
}

namespace sftbft::engine {

enum class Protocol {
  DiemBft,    ///< (SFT-)DiemBFT — responsive, round-locked (Secs. 2-3)
  Streamlet,  ///< (SFT-)Streamlet — lock-step, longest-chain (Appendix D)
  HotStuff,   ///< (SFT-)chained HotStuff — responsive, extends-locked rule
};

[[nodiscard]] constexpr const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::DiemBft: return "diembft";
    case Protocol::Streamlet: return "streamlet";
    case Protocol::HotStuff: return "hotstuff";
  }
  return "unknown";
}

/// The responsive chained-QC family (everything running the
/// core::ChainedCore kernel, as opposed to the lock-step Streamlet stack).
[[nodiscard]] constexpr bool is_chained(Protocol protocol) {
  return protocol == Protocol::DiemBft || protocol == Protocol::HotStuff;
}

/// All protocols, in sweep order (benches and conformance suites iterate
/// this instead of hand-listing engines).
inline constexpr Protocol kAllProtocols[] = {
    Protocol::DiemBft, Protocol::HotStuff, Protocol::Streamlet};

/// Commit observer: (replica, block, strength, time). Fired once per
/// strength level first reached per block; the regular commit surfaces as
/// strength = f.
using CommitObserver = std::function<void(ReplicaId, const types::Block&,
                                          std::uint32_t, SimTime)>;

class ConsensusEngine {
 public:
  virtual ~ConsensusEngine() = default;

  [[nodiscard]] virtual Protocol protocol() const = 0;
  [[nodiscard]] virtual ReplicaId id() const = 0;

  /// Registers the network handler, fills the mempool, arms fault timers,
  /// and enters the first round.
  virtual void start() = 0;

  /// Halts the engine (crash semantics: timers stop, inbound traffic is
  /// dropped). Crash faults call this at `FaultSpec::crash_at`.
  virtual void stop() = 0;

  /// Crash recovery: reconstructs the replica's consensus state from its
  /// durable ReplicaStore (WAL + snapshot), rejoins the network, and
  /// re-syncs missed blocks from peers. Only valid for engines wired with a
  /// store (Kind::CrashRestart faults schedule this automatically at
  /// `restart_at`); throws std::logic_error otherwise.
  virtual void restart() = 0;

  /// The replica's durable store, or nullptr when it runs without
  /// persistence.
  [[nodiscard]] virtual storage::ReplicaStore* store() = 0;

  [[nodiscard]] virtual const chain::Ledger& ledger() const = 0;
  [[nodiscard]] virtual Round current_round() const = 0;
  [[nodiscard]] virtual const FaultSpec& fault() const = 0;

  /// Inbound traffic actually delivered to this engine (exact Envelope
  /// frame bytes as passed by the Transport to its handler) — the
  /// receive-side complement of the transport's send-side MessageStats.
  [[nodiscard]] virtual std::uint64_t inbound_messages() const = 0;
  [[nodiscard]] virtual std::uint64_t inbound_bytes() const = 0;
};

}  // namespace sftbft::engine
