// ReplicaHost: one replica's full stack around a consensus core — the one
// ConsensusEngine implementation for every protocol. DiemBFT and chained
// HotStuff host a core::ChainedCore (their rule set rides in the core
// config, their Envelope tags are picked by protocol); Streamlet hosts a
// streamlet::StreamletCore.
//
// The host owns everything around the core once: the mempool, the inline
// WorkloadGenerator, the dissemination data plane (BatchStore,
// BatchBroadcaster, AdmissionFrontend, ClientSwarm), the transport handler
// and its inbound counters, start/stop/restart with the Crash and
// CrashRestart timers, the durable store and the commit observer. Only two
// pieces are written per core (replica_host.cpp): the inbound tag -> handler
// demux and the outbound hook wiring.
//
// Faults are read from the FaultSpec alone:
//  * Silent — every send is dropped; the broadcaster is built silent;
//  * Byzantine — an adversary::ByzantinePlugin takes the send path
//    (per-peer, strategy-filtered) and crafts twin proposals and forged
//    votes; the broadcaster withholds pushes under BatchWithholder. The
//    replica never fires the commit observer (its ledger claims are
//    adversarial; the honest-commit stream is what the auditor audits) and
//    has no store, so restart() refuses it;
//  * Crash / CrashRestart — timers armed in start();
//  * Corrupt — lives in the transport's links, so the host runs honestly.
//
// Frames whose payload does not parse, or whose tag belongs to another
// stack, are dropped and counted in MessageStats::decode_drops.
#pragma once

#include <memory>

#include "sftbft/adversary/byzantine.hpp"
#include "sftbft/core/audit.hpp"
#include "sftbft/core/chained_core.hpp"
#include "sftbft/dissem/admission.hpp"
#include "sftbft/dissem/broadcaster.hpp"
#include "sftbft/dissem/config.hpp"
#include "sftbft/engine/engine.hpp"
#include "sftbft/mempool/mempool.hpp"
#include "sftbft/net/transport.hpp"
#include "sftbft/storage/replica_store.hpp"
#include "sftbft/streamlet/streamlet.hpp"

namespace sftbft::engine {

template <class Core>
class ReplicaHost final : public ConsensusEngine {
 public:
  using Config = typename Core::Config;

  /// Wires one replica onto `transport`. `config.id` must be set (a chained
  /// config also carries the protocol's rule set); `observer` may be null.
  /// `store` (optional) enables durable state — required for CrashRestart
  /// faults and restart(). `taps` (optional) feed a harness-level
  /// SafetyAuditor. `coalition` is required when `fault` is Byzantine and
  /// ignored otherwise. `dissem.enabled` switches the replica to the batch
  /// data plane: the AdmissionFrontend + ClientSwarm replace the
  /// WorkloadGenerator, the BatchBroadcaster pushes content-addressed
  /// batches off the critical path, and the core proposes, votes and
  /// commits digest-referencing payloads.
  ReplicaHost(Protocol protocol, Config config, net::Transport& transport,
              std::shared_ptr<const crypto::KeyRegistry> registry,
              mempool::WorkloadConfig workload, Rng workload_rng,
              FaultSpec fault, CommitObserver observer,
              storage::ReplicaStore* store, const core::AuditTaps& taps,
              dissem::DissemConfig dissem,
              std::shared_ptr<adversary::Coalition> coalition);

  // Core hooks, the transport handler and scheduled timers capture `this`.
  ReplicaHost(const ReplicaHost&) = delete;
  ReplicaHost& operator=(const ReplicaHost&) = delete;

  [[nodiscard]] Protocol protocol() const override { return protocol_; }
  [[nodiscard]] ReplicaId id() const override { return id_; }
  void start() override;
  void stop() override;
  void restart() override;
  [[nodiscard]] storage::ReplicaStore* store() override { return store_; }
  [[nodiscard]] const chain::Ledger& ledger() const override {
    return core_->ledger();
  }
  [[nodiscard]] Round current_round() const override {
    return core_->current_round();
  }
  [[nodiscard]] const FaultSpec& fault() const override { return fault_; }
  [[nodiscard]] std::uint64_t inbound_messages() const override {
    return inbound_messages_;
  }
  [[nodiscard]] std::uint64_t inbound_bytes() const override {
    return inbound_bytes_;
  }

  [[nodiscard]] Core& core() { return *core_; }
  [[nodiscard]] const Core& core() const { return *core_; }

 private:
  // --- per core (replica_host.cpp) ---
  /// Outbound hooks plus the audit taps this core fires.
  [[nodiscard]] typename Core::Hooks wire_hooks(const core::AuditTaps& taps);
  /// Inbound tag -> core handler; other tags go to demux_batches.
  void demux(const net::Envelope& env);

  // --- shared ---
  void demux_batches(const net::Envelope& env);
  void register_handler();
  void make_broadcaster();
  void arm_crash_restart();
  /// Honest sends share one encoded frame per broadcast; Byzantine sends
  /// go through the plug-in's funnel; Silent sends are dropped.
  void unicast(ReplicaId to, net::Envelope env, bool withholdable);
  void multicast(net::Envelope env, bool include_self, bool withholdable,
                 const char* label = nullptr);
  [[nodiscard]] bool runs_timed_arrivals() const;

  Protocol protocol_;
  ReplicaId id_;
  /// The chained Envelope tag set (unused by Streamlet, whose tags are
  /// fixed).
  net::ChainedWireSet wires_;
  net::Transport& transport_;
  FaultSpec fault_;
  dissem::DissemConfig dissem_;
  storage::ReplicaStore* store_;
  CommitObserver observer_;
  std::uint64_t inbound_messages_ = 0;
  std::uint64_t inbound_bytes_ = 0;
  mempool::Mempool pool_;
  mempool::WorkloadGenerator workload_;
  // Data plane (dissem_.enabled only). The core holds a raw pointer into
  // *batches_, so the store object is reset by assignment, never re-seated.
  std::unique_ptr<dissem::BatchStore> batches_;
  std::unique_ptr<dissem::BatchBroadcaster> broadcaster_;
  std::unique_ptr<dissem::AdmissionFrontend> frontend_;
  std::unique_ptr<dissem::ClientSwarm> swarm_;
  /// Null unless the fault is Byzantine.
  std::unique_ptr<adversary::ByzantinePlugin> byz_;
  std::unique_ptr<Core> core_;
};

using ChainedHost = ReplicaHost<core::ChainedCore>;
using StreamletHost = ReplicaHost<streamlet::StreamletCore>;

}  // namespace sftbft::engine
