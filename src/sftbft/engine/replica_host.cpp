#include "sftbft/engine/replica_host.hpp"

#include <stdexcept>
#include <string>
#include <type_traits>

namespace sftbft::engine {

using adversary::Strategy;
using net::Envelope;
using net::WireType;

namespace {

net::ChainedWireSet chained_wires_for(Protocol protocol) {
  return protocol == Protocol::HotStuff ? net::kHotStuffWires
                                        : net::kDiemBftWires;
}

}  // namespace

template <class Core>
ReplicaHost<Core>::ReplicaHost(
    Protocol protocol, Config config, net::Transport& transport,
    std::shared_ptr<const crypto::KeyRegistry> registry,
    mempool::WorkloadConfig workload, Rng workload_rng, FaultSpec fault,
    CommitObserver observer, storage::ReplicaStore* store,
    const core::AuditTaps& taps, dissem::DissemConfig dissem,
    std::shared_ptr<adversary::Coalition> coalition)
    : protocol_(protocol),
      id_(config.id),
      wires_(chained_wires_for(protocol)),
      transport_(transport),
      fault_(std::move(fault)),
      dissem_(dissem),
      store_(store),
      observer_(std::move(observer)),
      workload_(transport.scheduler(), pool_, workload, workload_rng) {
  workload_.set_id_space(id_);
  if (fault_.kind == FaultSpec::Kind::Byzantine) {
    byz_ = std::make_unique<adversary::ByzantinePlugin>(
        id_, transport_, fault_, std::move(coalition),
        registry->signer_for(id_));
  }

  if (dissem_.enabled) {
    batches_ = std::make_unique<dissem::BatchStore>();
    make_broadcaster();
    frontend_ = std::make_unique<dissem::AdmissionFrontend>(pool_, dissem_);
    swarm_ = std::make_unique<dissem::ClientSwarm>(
        transport.scheduler(), *frontend_, workload, dissem_,
        workload_rng.fork());
    swarm_->set_id_space(id_);
  }

  typename Core::Hooks hooks = wire_hooks(taps);
  if (!byz_) {
    hooks.on_commit = [this](const types::Block& block,
                             std::uint32_t strength, SimTime now) {
      if (observer_) observer_(id_, block, strength, now);
    };
  }
  if (dissem_.enabled) {
    // Control plane <-> data plane seams. Leaders draw digest payloads from
    // the batch store; voters gate on availability and pull what's missing.
    hooks.make_payload = [this](std::size_t /*max_batch*/) {
      return batches_->make_payload(dissem_.max_batches_per_proposal,
                                    transport_.scheduler().now(),
                                    dissem_.repropose_after);
    };
    hooks.payload_available = [this](const types::Payload& payload) {
      if (!payload.is_digests()) return true;
      // Present batches go Proposed either way — another leader claimed
      // them; re-proposing them here would only waste block space.
      batches_->observe_reference(payload, transport_.scheduler().now());
      return batches_->missing(payload).empty();
    };
    hooks.fetch_payload = [this](const types::Payload& payload) {
      if (!payload.is_digests()) return;
      const auto missing = batches_->missing(payload);
      if (!missing.empty()) broadcaster_->want(missing);
    };
    // Chained cores hand back a timed-out round's payload; lock-step
    // Streamlet has no such hook (its batches revert through the store's
    // repropose window).
    if constexpr (requires { hooks.requeue_payload; }) {
      hooks.requeue_payload = [this](const types::Payload& payload) {
        if (payload.is_digests()) {
          batches_->requeue(payload);
        } else {
          pool_.requeue(payload);
        }
      };
    }
  }

  core_ = std::make_unique<Core>(std::move(config), transport.scheduler(),
                                 std::move(registry), pool_,
                                 std::move(hooks), store);
  if (dissem_.enabled) {
    core_->attach_batch_store(
        batches_.get(), [this](const std::vector<crypto::Sha256Digest>& m) {
          broadcaster_->want(m);
        });
  }
}

template <class Core>
void ReplicaHost<Core>::make_broadcaster() {
  broadcaster_ = std::make_unique<dissem::BatchBroadcaster>(
      id_, transport_, pool_, *batches_, dissem_,
      [this] { core_->retry_awaiting_payloads(); },
      dissem::BatchBroadcaster::Options{
          .silent = fault_.kind == FaultSpec::Kind::Silent,
          .withhold_push = fault_.kind == FaultSpec::Kind::Byzantine &&
                           fault_.byz.has(Strategy::BatchWithholder)});
}

template <class Core>
void ReplicaHost<Core>::register_handler() {
  transport_.set_handler(id_, [this](const Envelope& env,
                                     std::size_t frame_bytes) {
    ++inbound_messages_;
    inbound_bytes_ += frame_bytes;
    try {
      demux(env);
    } catch (const CodecError&) {
      // Well-framed envelope, unparseable payload: reject, count, carry on.
      transport_.stats().record_decode_drop();
    }
  });
}

template <class Core>
void ReplicaHost<Core>::demux_batches(const Envelope& env) {
  if (broadcaster_) {
    switch (env.type) {
      case WireType::kBatchPush:
        broadcaster_->on_push(env.unpack<dissem::BatchPush>());
        return;
      case WireType::kBatchRequest:
        broadcaster_->on_request(env.unpack<dissem::BatchRequest>());
        return;
      case WireType::kBatchResponse:
        broadcaster_->on_response(env.unpack<dissem::BatchResponse>());
        return;
      default:
        break;
    }
  }
  // Another stack's tag (or the data plane's while it is off) is a payload
  // this replica cannot parse — same treatment as a garbled payload.
  throw CodecError("ReplicaHost: wire type not in this replica's stack");
}

template <class Core>
void ReplicaHost<Core>::unicast(ReplicaId to, Envelope env,
                                bool withholdable) {
  if (byz_) {
    byz_->send(to, std::move(env), withholdable);
  } else if (fault_.kind != FaultSpec::Kind::Silent) {
    transport_.send(to, std::move(env));
  }
}

template <class Core>
void ReplicaHost<Core>::multicast(Envelope env, bool include_self,
                                  bool withholdable, const char* label) {
  if (byz_) {
    byz_->multicast(env, include_self, withholdable, label);
  } else if (fault_.kind != FaultSpec::Kind::Silent) {
    transport_.broadcast(std::move(env), include_self, label);
  }
}

template <class Core>
bool ReplicaHost<Core>::runs_timed_arrivals() const {
  // Honest Streamlet replicas have never started the inline
  // WorkloadGenerator's timed arrivals: their pools are only topped up at
  // start, and every Streamlet baseline measures that. Starting them is a
  // behaviour change (on streamlet-faults it roughly triples committed
  // throughput but grows peak RSS by a third), so it is left to a change of
  // its own.
  return !std::is_same_v<Core, streamlet::StreamletCore> || byz_ != nullptr;
}

template <class Core>
void ReplicaHost<Core>::start() {
  register_handler();
  if (dissem_.enabled) {
    swarm_->start();
    broadcaster_->start();
  } else {
    workload_.top_up();
    if (runs_timed_arrivals()) workload_.start();
  }
  if (fault_.kind == FaultSpec::Kind::Crash) {
    transport_.scheduler().schedule_at(fault_.crash_at, [this] { stop(); });
  }
  // The scheduler breaks equal-time ties FIFO by sequence number, so timer
  // order is part of a seeded run: chained replicas have always armed their
  // CrashRestart timers after the core's first round, Streamlet ones before.
  constexpr bool kChained = std::is_same_v<Core, core::ChainedCore>;
  if (!kChained) arm_crash_restart();
  core_->start();
  if (kChained) arm_crash_restart();
}

template <class Core>
void ReplicaHost<Core>::arm_crash_restart() {
  if (fault_.kind != FaultSpec::Kind::CrashRestart) return;
  sim::Scheduler& sched = transport_.scheduler();
  sched.schedule_at(fault_.crash_at, [this] {
    stop();
    // The simulated power loss: unsynced storage writes are dropped (the
    // MemBackend may leave a torn WAL tail for recovery to handle).
    if (store_) store_->simulate_crash();
  });
  sched.schedule_at(fault_.restart_at, [this] { restart(); });
}

template <class Core>
void ReplicaHost<Core>::stop() {
  core_->stop();
  if (dissem_.enabled) {
    broadcaster_->stop();
    swarm_->stop();
  }
  transport_.disconnect(id_);
}

template <class Core>
void ReplicaHost<Core>::restart() {
  if (store_ == nullptr) {
    // Restarting without durable state would re-enter consensus with a
    // clean voting history — an equivocation machine. Refuse. (Byzantine
    // replicas never get a store.)
    throw std::logic_error("ReplicaHost::restart: replica " +
                           std::to_string(id_) + " has no ReplicaStore");
  }
  register_handler();
  // A fresh mempool: in-flight bookkeeping died with the process.
  pool_ = mempool::Mempool();
  if (dissem_.enabled) {
    // The volatile data plane died too: reset the store in place (the
    // committer aims a raw pointer at it) and rebuild the broadcaster's
    // pull state. Certified-but-missing batches re-arrive via sync's pull.
    pool_.set_capacity(dissem_.mempool_capacity);
    *batches_ = dissem::BatchStore();
    make_broadcaster();
    swarm_->start();
    broadcaster_->start();
  } else {
    workload_.top_up();
  }
  core_->restore(store_->recover());
  core_->request_sync();
}

// ------------------------------------------------------------ chained cores

template <>
core::ChainedCore::Hooks ReplicaHost<core::ChainedCore>::wire_hooks(
    const core::AuditTaps& taps) {
  using types::Proposal;
  using types::Vote;
  core::ChainedCore::Hooks hooks;
  hooks.send_vote = [this](ReplicaId to, Vote vote) {
    if (byz_) byz_->forge_history(vote);
    unicast(to, Envelope::pack(wires_.vote, id_, vote),
            /*withholdable=*/false);
  };
  hooks.broadcast_proposal = [this](const Proposal& proposal) {
    if (byz_ && byz_->equivocate(proposal, wires_.proposal)) return;
    multicast(Envelope::pack(wires_.proposal, id_, proposal),
              /*include_self=*/true, /*withholdable=*/true);
  };
  // Timeout messages carry qc_high, so WithholdRelease delays them too —
  // otherwise the "private" certificate leaks on the next timeout.
  hooks.broadcast_timeout = [this](const types::TimeoutMsg& msg) {
    multicast(Envelope::pack(wires_.timeout, id_, msg),
              /*include_self=*/true, /*withholdable=*/true);
  };
  hooks.broadcast_extra_vote = [this](const Vote& vote) {
    multicast(Envelope::pack(wires_.vote, id_, vote), /*include_self=*/false,
              /*withholdable=*/false, "extra_vote");
  };
  hooks.send_sync_request = [this](ReplicaId to,
                                   const types::SyncRequest& req) {
    unicast(to, Envelope::pack(wires_.sync_request, id_, req),
            /*withholdable=*/false);
  };
  hooks.send_sync_response = [this](ReplicaId to,
                                    const types::SyncResponse& resp) {
    unicast(to, Envelope::pack(wires_.sync_response, id_, resp),
            /*withholdable=*/false);
  };
  if (taps.canonical_qc) {
    hooks.on_canonical_qc = [id = id_, tap = taps.canonical_qc](
                                const types::Block& block,
                                const types::QuorumCert& qc) {
      tap(id, block, qc);
    };
  }
  return hooks;
}

template <>
void ReplicaHost<core::ChainedCore>::demux(const Envelope& env) {
  if (env.type == wires_.proposal) {
    const types::Proposal proposal = env.unpack<types::Proposal>();
    if (byz_ && proposal.round() >= core_->current_round()) {
      byz_->forge_vote_for(proposal.block, core_->config().mode,
                           wires_.vote);
    }
    core_->on_proposal(proposal);
  } else if (env.type == wires_.vote) {
    core_->on_vote(env.unpack<types::Vote>());
  } else if (env.type == wires_.timeout) {
    core_->on_timeout_msg(env.unpack<types::TimeoutMsg>());
  } else if (env.type == wires_.sync_request) {
    core_->on_sync_request(env.unpack<types::SyncRequest>());
  } else if (env.type == wires_.sync_response) {
    core_->on_sync_response(env.unpack<types::SyncResponse>());
  } else {
    demux_batches(env);
  }
}

// ---------------------------------------------------------- Streamlet core

template <>
streamlet::StreamletCore::Hooks
ReplicaHost<streamlet::StreamletCore>::wire_hooks(
    const core::AuditTaps& taps) {
  using streamlet::SProposal;
  using streamlet::SVote;
  streamlet::StreamletCore::Hooks hooks;
  hooks.broadcast_proposal = [this](const SProposal& proposal) {
    if (byz_ && byz_->equivocate(proposal, WireType::kSProposal)) return;
    multicast(Envelope::pack(WireType::kSProposal, id_, proposal),
              /*include_self=*/true, /*withholdable=*/true);
  };
  hooks.broadcast_vote = [this](SVote vote) {
    if (byz_) byz_->forge_history(vote);
    multicast(Envelope::pack(WireType::kSVote, id_, vote),
              /*include_self=*/true, /*withholdable=*/false);
  };
  hooks.echo = [this](const streamlet::SMessage& msg) {
    multicast(streamlet::to_envelope(id_, msg), /*include_self=*/false,
              /*withholdable=*/false, "echo");
  };
  hooks.send_sync_request = [this](ReplicaId to,
                                   const streamlet::SSyncRequest& req) {
    unicast(to, Envelope::pack(WireType::kSSyncRequest, id_, req),
            /*withholdable=*/false);
  };
  hooks.send_sync_response = [this](ReplicaId to,
                                    const streamlet::SSyncResponse& resp) {
    unicast(to, Envelope::pack(WireType::kSSyncResponse, id_, resp),
            /*withholdable=*/false);
  };
  if (taps.block_seen) {
    hooks.on_block_seen = [id = id_, tap = taps.block_seen](
                              const types::Block& block) { tap(id, block); };
  }
  if (taps.vote_seen) {
    hooks.on_vote_seen = [id = id_, tap = taps.vote_seen](const SVote& vote) {
      tap(id, core::VoteSeen{vote.block_id, vote.round, vote.height,
                             vote.voter, vote.marker});
    };
  }
  return hooks;
}

template <>
void ReplicaHost<streamlet::StreamletCore>::demux(const Envelope& env) {
  switch (env.type) {
    case WireType::kSProposal: {
      const auto proposal = env.unpack<streamlet::SProposal>();
      if (byz_ && proposal.block.round + 1 >= core_->current_round()) {
        byz_->forge_svote_for(proposal.block);
      }
      core_->on_proposal(proposal);
      break;
    }
    case WireType::kSVote:
      core_->on_vote(env.unpack<streamlet::SVote>());
      break;
    case WireType::kSSyncRequest:
      core_->on_sync_request(env.unpack<streamlet::SSyncRequest>());
      break;
    case WireType::kSSyncResponse:
      core_->on_sync_response(env.unpack<streamlet::SSyncResponse>());
      break;
    default:
      demux_batches(env);
  }
}

template class ReplicaHost<core::ChainedCore>;
template class ReplicaHost<streamlet::StreamletCore>;

}  // namespace sftbft::engine
