#include "sftbft/dissem/plane.hpp"

#include <algorithm>

#include "sftbft/common/codec.hpp"
#include "sftbft/obs/observer.hpp"

namespace sftbft::dissem {

using net::Envelope;
using net::WireType;

DataPlane::DataPlane(ReplicaId id, net::Transport& transport,
                     mempool::WorkloadConfig workload, Rng rng,
                     DissemConfig config, Options options,
                     std::function<void()> on_arrival)
    : id_(id),
      n_(transport.size()),
      transport_(transport),
      config_(config),
      options_(options),
      on_arrival_(std::move(on_arrival)),
      workload_(transport.scheduler(), pool_, workload, rng) {
  workload_.set_id_space(id_);
  config_.self = id_;
  if (!config_.enabled) return;
  digest_ = std::make_unique<DigestState>();
  frontend_ = std::make_unique<AdmissionFrontend>(pool_, config_);
  swarm_ = std::make_unique<ClientSwarm>(transport.scheduler(), *frontend_,
                                         workload, config_, rng.fork());
  swarm_->set_id_space(id_);
}

void DataPlane::start() {
  if (!digest_) {
    workload_.top_up();
    if (options_.timed_arrivals) workload_.start();
    return;
  }
  swarm_->start();
  // Pack immediately (the mempool was just topped up), then settle into the
  // periodic cadence.
  pack_and_push();
  schedule_pack();
}

void DataPlane::stop() {
  if (!digest_) return;
  ++epoch_;
  swarm_->stop();
}

void DataPlane::restart() {
  pool_ = mempool::Mempool();
  if (!digest_) {
    workload_.top_up();
    return;
  }
  // The frontend references the pool, so it is reset in place.
  pool_.set_capacity(config_.mempool_capacity);
  digest_ = std::make_unique<DigestState>();
  start();
}

void DataPlane::demux(const Envelope& env) {
  bool any_new = false;
  if (digest_ && env.type == WireType::kBatchPush) {
    any_new = ingest(env.unpack<BatchPush>().batch);
  } else if (digest_ && env.type == WireType::kBatchRequest) {
    const auto req = env.unpack<BatchRequest>();
    if (options_.silent || req.requester >= n_ || req.requester == id_) {
      return;
    }
    BatchResponse resp;
    for (const crypto::Sha256Digest& digest : req.digests) {
      if (resp.batches.size() >= config_.pull_max_digests) break;
      const Batch* batch = digest_->store.find(digest);
      if (batch != nullptr) resp.batches.push_back(*batch);
    }
    if (resp.batches.empty()) return;
    transport_.send(req.requester,
                    Envelope::pack(WireType::kBatchResponse, id_, resp));
  } else if (digest_ && env.type == WireType::kBatchResponse) {
    const auto resp = env.unpack<BatchResponse>();
    for (const Batch& batch : resp.batches) any_new = ingest(batch) || any_new;
  } else {
    throw CodecError("DataPlane: wire type not in this replica's stack");
  }
  if (any_new && on_arrival_) on_arrival_();
}

types::Payload DataPlane::make_payload(std::size_t max_txns) {
  if (!digest_) return pool_.make_batch(max_txns);
  return digest_->store.make_payload(config_.max_batches_per_proposal,
                                     transport_.scheduler().now(),
                                     config_.repropose_after);
}

void DataPlane::requeue(const types::Payload& payload) {
  if (digest_ && payload.is_digests()) {
    digest_->store.requeue(payload);
  } else {
    pool_.requeue(payload);
  }
}

bool DataPlane::available(const types::Payload& payload) {
  if (!digest_ || !payload.is_digests()) return true;
  digest_->store.observe_reference(payload, transport_.scheduler().now());
  return digest_->store.missing(payload).empty();
}

void DataPlane::fetch(const types::Payload& payload) {
  if (!digest_ || !payload.is_digests()) return;
  const std::vector<crypto::Sha256Digest> missing =
      digest_->store.missing(payload);
  if (!missing.empty()) want(missing);
}

const types::Block& DataPlane::materialize(const types::Block& block,
                                           types::Block& scratch) {
  if (!digest_ || !block.payload.is_digests()) return block;
  std::vector<crypto::Sha256Digest> missing;
  scratch = block;
  scratch.payload = types::Payload{};
  scratch.payload.txns =
      digest_->store.resolve_committed(block.payload, missing);
  if (missing.empty()) return scratch;
  for (const crypto::Sha256Digest& digest : missing) {
    digest_->late.emplace_back(digest, block.height);
  }
  want(missing);
  return scratch;
}

void DataPlane::recommitted(const types::Payload& payload) {
  if (!digest_ || !payload.is_digests()) return;
  std::vector<crypto::Sha256Digest> missing;
  (void)digest_->store.resolve_committed(payload, missing);
}

std::vector<DataPlane::LateCommit> DataPlane::take_late_commits() {
  std::vector<LateCommit> landed;
  if (!digest_) return landed;
  std::size_t kept = 0;
  for (const auto& entry : digest_->late) {
    const Batch* batch = digest_->store.find(entry.first);
    if (batch == nullptr) {
      digest_->late[kept++] = entry;
      continue;
    }
    types::Payload payload;
    payload.txns = batch->txns;
    pool_.mark_committed(payload);
    landed.push_back({entry.second, batch->txns.size()});
  }
  digest_->late.resize(kept);
  return landed;
}

void DataPlane::schedule_pack() {
  transport_.scheduler().schedule_after(
      config_.batch_interval, [this, epoch = epoch_] {
        if (epoch != epoch_) return;
        pack_and_push();
        schedule_pack();
      });
}

void DataPlane::pack_and_push() {
  const types::Payload drained = pool_.make_batch(config_.batch_max_txns);
  if (drained.txns.empty()) return;
  Batch batch;
  batch.creator = id_;
  batch.seq = digest_->seq++;
  batch.txns = drained.txns;
  batch.seal();
  digest_->store.add(batch);
  if (obs::Observer* obs = config_.observer) {
    obs->count(id_, obs::Counter::kBatchesPacked);
    if (obs->recording()) {
      obs->emit(obs::instant_event(
          "dissem", "batch_packed", id_, transport_.scheduler().now(),
          {"seq", batch.seq}, {"txns", batch.txns.size()}));
    }
    trace_store_size();
  }
  if (options_.silent || options_.withhold_push) return;
  transport_.broadcast(Envelope::pack(WireType::kBatchPush, id_,
                                      BatchPush{std::move(batch)}),
                       /*include_self=*/false);
}

bool DataPlane::ingest(const Batch& batch) {
  DigestState& d = *digest_;
  if (!batch.digest_is_valid() || !d.store.add(batch)) return false;
  const bool was_missing = d.missing.erase(batch.digest) > 0;
  if (obs::Observer* obs = config_.observer) {
    if (was_missing) {
      obs->count(id_, obs::Counter::kBatchesResolved);
      if (obs->recording()) {
        obs->emit(obs::instant_event("dissem", "batch_resolved", id_,
                                     transport_.scheduler().now(),
                                     {"still_missing", d.missing.size()}));
      }
    }
    trace_store_size();
  }
  return true;
}

void DataPlane::trace_store_size() const {
  obs::Observer* obs = config_.observer;
  if (!obs->tracing()) return;
  obs->emit_trace_only(obs::counter_event(
      "dissem", "batch_store", id_, transport_.scheduler().now(),
      {"batches", static_cast<std::uint64_t>(digest_->store.size())}));
}

void DataPlane::want(const std::vector<crypto::Sha256Digest>& digests) {
  DigestState& d = *digest_;
  bool added = false;
  for (const crypto::Sha256Digest& digest : digests) {
    if (d.store.has(digest)) continue;
    if (!d.missing.insert(digest).second) continue;
    d.missing_order.push_back(digest);
    added = true;
  }
  if (added && !d.pull_watchdog_armed) pull_round();
}

void DataPlane::pull_round() {
  DigestState& d = *digest_;
  // Drop already-arrived digests from the scan order.
  while (!d.missing_order.empty() &&
         !d.missing.contains(d.missing_order.front())) {
    d.missing_order.pop_front();
  }
  if (d.missing_order.empty()) {
    d.pull_attempts = 0;
    return;
  }

  BatchRequest req;
  req.requester = id_;
  for (const crypto::Sha256Digest& digest : d.missing_order) {
    if (req.digests.size() >= config_.pull_max_digests) break;
    if (d.missing.contains(digest)) req.digests.push_back(digest);
  }

  if (!options_.silent && !req.digests.empty()) {
    const std::uint32_t fanout = std::max(1u, config_.pull_fanout);
    for (std::uint32_t k = 0; k < fanout && k + 1 < n_; ++k) {
      const ReplicaId to = (id_ + 1 + d.pull_attempts * fanout + k) % n_;
      if (to == id_) continue;
      transport_.send(to, Envelope::pack(WireType::kBatchRequest, id_, req));
    }
    ++d.pull_attempts;
    if (obs::Observer* obs = config_.observer) {
      obs->count(id_, obs::Counter::kBatchPullRounds);
      if (obs->recording()) {
        obs->emit(obs::instant_event(
            "dissem", "batch_pull", id_, transport_.scheduler().now(),
            {"missing", d.missing.size()}, {"attempt", d.pull_attempts}));
      }
    }
  }

  d.pull_watchdog_armed = true;
  transport_.scheduler().schedule_after(
      config_.pull_retry, [this, epoch = epoch_] {
        if (epoch != epoch_) return;
        digest_->pull_watchdog_armed = false;
        if (!digest_->missing.empty()) pull_round();
      });
}

}  // namespace sftbft::dissem
