#include "sftbft/engine/deployment.hpp"

#include <stdexcept>
#include <string>
#include <type_traits>

#include "sftbft/hotstuff/hotstuff.hpp"

namespace sftbft::engine {

namespace {

[[noreturn]] void wrong_protocol(const char* want, Protocol have) {
  throw std::logic_error(std::string("deployment runs ") +
                         protocol_name(have) + ", not " + want);
}

/// The rule set of a chained protocol (the DiemBFT rules are the kernel
/// defaults).
core::ChainedRules chained_rules_for(Protocol protocol) {
  return protocol == Protocol::HotStuff ? hotstuff::rules()
                                        : core::ChainedRules{};
}

/// A Byzantine slot's core runs behind the adversary plug-in: its state is
/// not an honest replica's, so the honest-core escape hatches refuse it.
void require_honest_slot(const ConsensusEngine& engine, ReplicaId id) {
  if (engine.fault().kind == FaultSpec::Kind::Byzantine) {
    throw std::logic_error("replica " + std::to_string(id) +
                           " is Byzantine; honest-core escape hatches do "
                           "not apply (inspect the Coalition instead)");
  }
}

}  // namespace

Deployment::Deployment(DeploymentConfig config, CommitObserver observer,
                       AuditTaps taps)
    : config_(std::move(config)) {
  if (config_.topology.size() != config_.n) {
    throw std::invalid_argument(
        "Deployment: topology size (" +
        std::to_string(config_.topology.size()) + ") != n (" +
        std::to_string(config_.n) + ")");
  }
  // The single shared fault validator (every engine, all fault kinds).
  validate_faults(config_.faults, config_.n);
  for (const FaultSpec& fault : config_.faults) {
    if (fault.kind == FaultSpec::Kind::Byzantine && !coalition_) {
      coalition_ = std::make_shared<adversary::Coalition>();
    }
  }
  registry_ = std::make_shared<crypto::KeyRegistry>(config_.n, config_.seed);
  backends_.resize(config_.n);
  stores_.resize(config_.n);

  auto fault_for = [this](ReplicaId id) {
    return id < config_.faults.size() ? config_.faults[id]
                                      : FaultSpec::honest();
  };
  // One byte-level transport for every protocol. Seed derivations are kept
  // per protocol (0xabcd / 0x51ee7 network streams match the historical
  // per-protocol SimNetwork seeds; HotStuff gets its own stream) so
  // existing seeded experiments keep their delay geometry.
  const std::uint64_t net_seed =
      config_.seed ^ [&]() -> std::uint64_t {
        switch (config_.protocol) {
          case Protocol::DiemBft: return 0xabcdULL;
          case Protocol::Streamlet: return 0x51ee7ULL;
          case Protocol::HotStuff: return 0x407507ULL;
        }
        return 0;
      }();
  transport_ = std::make_unique<net::SimTransport>(sched_, config_.topology,
                                                   config_.net, net_seed);
  if (config_.obs.enabled) {
    observer_ = std::make_unique<obs::Observer>(config_.obs, config_.n);
    // The transport feeds per-WireType transit histograms and (when tracing)
    // cross-replica flow arrows into the same observer the replicas use.
    transport_->set_observer(observer_.get());
  }
  // Corrupt faults are link-level: they live in the transport, and the
  // replica itself runs the honest engine below. Corruption only acts
  // before GST, so a synchronous-from-the-start network would make the
  // fault a silent no-op — reject that the way validate_faults rejects
  // other no-op specs (it cannot, lacking the net config).
  for (ReplicaId id = 0; id < config_.faults.size(); ++id) {
    if (config_.faults[id].kind != FaultSpec::Kind::Corrupt) continue;
    if (config_.net.gst <= 0) {
      throw std::invalid_argument(
          "Deployment: replica " + std::to_string(id) +
          " has a Corrupt fault but net.gst == 0 — pre-GST corruption "
          "never fires on a synchronous-from-the-start network");
    }
    transport_->set_corruption(id, config_.faults[id].corrupt);
  }

  dissem::DissemConfig dissem = config_.dissem;
  dissem.observer = observer_.get();

  // One host type per protocol family; everything but the core config is
  // shared, Byzantine replicas included.
  Rng workload_rng(config_.seed ^ 0x77aa);
  for (ReplicaId id = 0; id < config_.n; ++id) {
    const FaultSpec fault = fault_for(id);
    auto add_host = [&](auto core) {
      using Host = std::conditional_t<
          std::is_same_v<decltype(core), consensus::CoreConfig>, ChainedHost,
          StreamletHost>;
      core.id = id;
      core.n = config_.n;
      core.observer = observer_.get();
      engines_.push_back(std::make_unique<Host>(
          config_.protocol, core, *transport_, registry_, config_.workload,
          workload_rng.fork(), fault, observer, make_store(id, fault), taps,
          dissem, coalition_));
    };
    if (is_chained(config_.protocol)) {
      consensus::CoreConfig core = config_.chained;
      core.rules = chained_rules_for(config_.protocol);
      add_host(core);
    } else {
      add_host(config_.streamlet);
    }
  }
}

Deployment::~Deployment() = default;

storage::ReplicaStore* Deployment::make_store(ReplicaId id,
                                              const FaultSpec& fault) {
  const bool wants_store =
      fault.kind != FaultSpec::Kind::Byzantine &&
      (config_.persist_all || fault.kind == FaultSpec::Kind::CrashRestart);
  if (!wants_store) return nullptr;
  // Per-replica backend, independently seeded: torn-tail draws at one
  // replica's crash never perturb another's stream.
  backends_[id] = std::make_unique<storage::MemBackend>(
      config_.seed ^ 0x5708AC4EDULL ^ id);
  storage::StoreConfig store_config = config_.storage;
  store_config.observer = observer_.get();
  store_config.sched = &sched_;
  stores_[id] = std::make_unique<storage::ReplicaStore>(*backends_[id], id,
                                                        store_config);
  return stores_[id].get();
}

void Deployment::start() {
  for (auto& engine : engines_) engine->start();
}

void Deployment::run_for(SimDuration duration) { sched_.run_for(duration); }

ConsensusEngine& Deployment::engine(ReplicaId id) { return *engines_[id]; }

const ConsensusEngine& Deployment::engine(ReplicaId id) const {
  return *engines_[id];
}

std::uint32_t Deployment::honest_count() const {
  std::uint32_t honest = 0;
  for (const auto& engine : engines_) {
    const FaultSpec::Kind kind = engine->fault().kind;
    if (kind == FaultSpec::Kind::Honest || kind == FaultSpec::Kind::Corrupt) {
      ++honest;
    }
  }
  return honest;
}

core::ChainedCore& Deployment::chained_core(ReplicaId id) {
  if (!is_chained(config_.protocol)) {
    wrong_protocol("a chained protocol", config_.protocol);
  }
  require_honest_slot(*engines_[id], id);
  return static_cast<ChainedHost&>(*engines_[id]).core();
}

const core::ChainedCore& Deployment::chained_core(ReplicaId id) const {
  if (!is_chained(config_.protocol)) {
    wrong_protocol("a chained protocol", config_.protocol);
  }
  require_honest_slot(*engines_[id], id);
  return static_cast<const ChainedHost&>(*engines_[id]).core();
}

streamlet::StreamletCore& Deployment::streamlet_core(ReplicaId id) {
  if (config_.protocol != Protocol::Streamlet) {
    wrong_protocol("streamlet", config_.protocol);
  }
  require_honest_slot(*engines_[id], id);
  return static_cast<StreamletHost&>(*engines_[id]).core();
}

const streamlet::StreamletCore& Deployment::streamlet_core(
    ReplicaId id) const {
  if (config_.protocol != Protocol::Streamlet) {
    wrong_protocol("streamlet", config_.protocol);
  }
  require_honest_slot(*engines_[id], id);
  return static_cast<const StreamletHost&>(*engines_[id]).core();
}

}  // namespace sftbft::engine
