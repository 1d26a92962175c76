// Deployment: a full n-replica deployment of any supported chained-BFT
// protocol on one simulated network — the single top-level object
// experiments, benches, and integration tests drive.
//
// A Deployment owns the scheduler, the PKI, ONE byte-level transport
// (net::SimTransport — every protocol speaks net::Envelope over the same
// wire), and one ConsensusEngine per replica, and funnels every engine's
// commit notifications into a single observer (which is how the harness
// computes the paper's "average over all blocks over all replicas"
// metrics). The protocol is selected by DeploymentConfig::protocol —
// DiemBFT and chained HotStuff run the shared core::ChainedCore kernel
// under their own rule sets and wire tags; Streamlet runs the lock-step
// stack. Everything else — topology, network conditions, workload, the
// FaultSpec fault list, the seed — is shared verbatim across protocols, so
// the same scenario runs apples-to-apples on all of them (the paper's
// genericity claim).
#pragma once

#include <memory>
#include <vector>

#include "sftbft/adversary/coalition.hpp"
#include "sftbft/consensus/diembft.hpp"
#include "sftbft/core/audit.hpp"
#include "sftbft/dissem/config.hpp"
#include "sftbft/engine/engine.hpp"
#include "sftbft/engine/replica_host.hpp"
#include "sftbft/net/sim_transport.hpp"
#include "sftbft/obs/observer.hpp"
#include "sftbft/sim/scheduler.hpp"
#include "sftbft/storage/mem_backend.hpp"
#include "sftbft/storage/replica_store.hpp"

namespace sftbft::engine {

/// Audit taps for a global observer (harness::SafetyAuditor) — the kernel's
/// protocol-neutral vocabulary: chained stacks report canonical QCs,
/// lock-step stacks report blocks + height-marked votes, all attributed by
/// replica id. Only the taps matching the deployment's protocol fire.
using AuditTaps = core::AuditTaps;

struct DeploymentConfig {
  Protocol protocol = Protocol::DiemBft;
  std::uint32_t n = 4;
  /// Template for every chained-kernel replica's core config (id/n filled
  /// in per replica; the protocol's rule set is stamped by the Deployment).
  /// Used when is_chained(protocol) — i.e. DiemBFT and HotStuff share one
  /// knob surface, which is what keeps their comparisons honest.
  consensus::CoreConfig chained;
  /// Template for every Streamlet replica's core config (id/n filled in per
  /// replica; used when protocol == Protocol::Streamlet).
  streamlet::StreamletConfig streamlet;
  net::Topology topology = net::Topology::uniform(4, millis(1));
  net::NetConfig net;
  mempool::WorkloadConfig workload;
  /// Batch dissemination data plane (dissem.enabled switches every replica
  /// to digest-referencing proposals + the admission front-end). Applies to
  /// all three protocols.
  dissem::DissemConfig dissem;
  /// Per-replica faults; empty = all honest. Indexed by replica id.
  std::vector<FaultSpec> faults;
  std::uint64_t seed = 1;
  /// Durable-state cadence for replicas that get a ReplicaStore (see
  /// `persist_all`).
  storage::StoreConfig storage;
  /// Wire a ReplicaStore (simulation MemBackend) for every replica, not
  /// just the CrashRestart ones — for persistence-overhead experiments and
  /// manual ConsensusEngine::restart() from tests.
  bool persist_all = false;
  /// Observability (metrics registry, trace layer, flight recorder). Off by
  /// default: no Observer is built, every instrumented component holds a
  /// null pointer, and the hot path pays one pointer test per event site.
  obs::ObsConfig obs;
};

class Deployment {
 public:
  using CommitObserver = engine::CommitObserver;

  /// `observer` may be null; `taps` (optional) feed a harness-level
  /// SafetyAuditor. Throws std::invalid_argument if
  /// `config.topology.size() != config.n` (a silently mismatched topology
  /// was the old ClusterConfig's footgun) or if any FaultSpec is malformed
  /// (see validate_faults in engine/fault.hpp — the single shared
  /// validator for every engine).
  explicit Deployment(DeploymentConfig config, CommitObserver observer = nullptr,
                      AuditTaps taps = {});
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Starts all engines (they enter round 1 at the current sim time).
  void start();

  /// Runs the simulation for `duration` of simulated time.
  void run_for(SimDuration duration);

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] Protocol protocol() const { return config_.protocol; }
  [[nodiscard]] ConsensusEngine& engine(ReplicaId id);
  [[nodiscard]] const ConsensusEngine& engine(ReplicaId id) const;
  [[nodiscard]] const chain::Ledger& ledger(ReplicaId id) const {
    return engine(id).ledger();
  }
  [[nodiscard]] std::uint32_t size() const { return config_.n; }
  [[nodiscard]] const DeploymentConfig& config() const { return config_; }
  [[nodiscard]] std::shared_ptr<const crypto::KeyRegistry> registry() const {
    return registry_;
  }

  /// The deployment's byte-level transport (every protocol runs over the
  /// same instance). Tests use this for raw-frame / corruption probes.
  [[nodiscard]] net::SimTransport& transport() { return *transport_; }
  [[nodiscard]] const net::SimTransport& transport() const {
    return *transport_;
  }

  /// Send-side traffic stats of the underlying transport.
  [[nodiscard]] net::MessageStats& net_stats() { return transport_->stats(); }
  [[nodiscard]] const net::MessageStats& net_stats() const {
    return transport_->stats();
  }

  /// Installs (or clears, if empty) an adversarial link filter on the
  /// underlying transport.
  void set_link_filter(net::LinkFilter filter) {
    transport_->set_link_filter(std::move(filter));
  }

  /// Count of replicas that are honest for liveness purposes (Corrupt
  /// replicas count: the replica follows the protocol, only its pre-GST
  /// links are bad).
  [[nodiscard]] std::uint32_t honest_count() const;

  /// The Byzantine coalition's shared state, or nullptr when the fault list
  /// names no Byzantine replica. Benches and the auditor read membership
  /// and attack stats (equivocations staged, votes forged, ...) from here.
  [[nodiscard]] const adversary::Coalition* coalition() const {
    return coalition_.get();
  }

  /// The replica's durable store (nullptr when it runs without one).
  /// Stores exist for CrashRestart-faulted replicas and, with
  /// `persist_all`, for everyone.
  [[nodiscard]] storage::ReplicaStore* store(ReplicaId id) {
    return engines_[id]->store();
  }

  /// The deployment-wide Observer, or nullptr when `config.obs.enabled` is
  /// false. Per-deployment (never process-global): bench sweeps run many
  /// deployments concurrently on worker threads.
  [[nodiscard]] obs::Observer* observer() { return observer_.get(); }
  [[nodiscard]] const obs::Observer* observer() const {
    return observer_.get();
  }

  // Protocol-typed escape hatches. Calling a mismatched accessor, or one
  // on a Byzantine slot, throws std::logic_error — tests that need kernel
  // internals (light-client proofs, strength/endorsement state) use these.
  // The chained accessors serve both DiemBFT and HotStuff deployments;
  // diem_core is the historical name for the same thing.
  [[nodiscard]] core::ChainedCore& chained_core(ReplicaId id);
  [[nodiscard]] const core::ChainedCore& chained_core(ReplicaId id) const;
  [[nodiscard]] consensus::DiemBftCore& diem_core(ReplicaId id) {
    return chained_core(id);
  }
  [[nodiscard]] const consensus::DiemBftCore& diem_core(ReplicaId id) const {
    return chained_core(id);
  }
  [[nodiscard]] streamlet::StreamletCore& streamlet_core(ReplicaId id);
  [[nodiscard]] const streamlet::StreamletCore& streamlet_core(
      ReplicaId id) const;

 private:
  /// Builds (or skips) the durable store for one replica, pre-engine.
  /// Byzantine replicas never get one (they have no honest state to
  /// recover).
  [[nodiscard]] storage::ReplicaStore* make_store(ReplicaId id,
                                                  const FaultSpec& fault);

  DeploymentConfig config_;
  sim::Scheduler sched_;
  std::shared_ptr<const crypto::KeyRegistry> registry_;
  /// Shared state of all Byzantine replicas (null when there are none).
  std::shared_ptr<adversary::Coalition> coalition_;
  /// The one byte-level network every protocol stack sends through.
  std::unique_ptr<net::SimTransport> transport_;
  /// Deployment-wide metrics/trace sink; declared before the engines so it
  /// outlives every component holding a raw Observer*.
  std::unique_ptr<obs::Observer> observer_;
  /// Per-replica durable storage (simulation MemBackends); slots are null
  /// for replicas running without persistence.
  std::vector<std::unique_ptr<storage::MemBackend>> backends_;
  std::vector<std::unique_ptr<storage::ReplicaStore>> stores_;
  std::vector<std::unique_ptr<ConsensusEngine>> engines_;
};

}  // namespace sftbft::engine
