// DataPlane: where one replica's block payloads come from and go to — the
// only place that knows whether payloads carry their transactions inline or
// reference content-addressed batches by digest (DissemConfig::enabled).
//
// It owns the replica's Mempool plus one of two sides. Inline: the
// WorkloadGenerator feeds the mempool and leaders propose straight from it.
// Digest: the AdmissionFrontend + ClientSwarm feed the mempool; a periodic
// packing timer drains it into batches, files them in the BatchStore and
// pushes them to every peer (BatchPush), off the consensus critical path;
// leaders reference the store's proposable batches; votes wait until every
// referenced batch is held; a commit resolves its digests exactly once.
// Received batches are validated against their content address, so a peer
// cannot serve tampered bytes.
//
// Missing batches are pulled the way core::SyncClient fetches blocks: each
// pull round asks a rotating window of `pull_fanout` peers
// (`(id + 1 + attempts·fanout + k) mod n`) and a watchdog re-requests from
// the next window until everything arrived, so one withholding peer cannot
// stall the pull. Every arrival fires `on_arrival`, letting the consensus
// core retry votes parked on availability.
//
// The consensus cores and the Committer call the payload half; the replica
// host calls start/stop/restart and demux.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sftbft/common/rng.hpp"
#include "sftbft/dissem/admission.hpp"
#include "sftbft/dissem/batch.hpp"
#include "sftbft/dissem/batch_store.hpp"
#include "sftbft/dissem/config.hpp"
#include "sftbft/mempool/mempool.hpp"
#include "sftbft/net/transport.hpp"
#include "sftbft/types/block.hpp"

namespace sftbft::dissem {

class DataPlane {
 public:
  struct Options {
    /// Inline side: start() runs the workload's timed arrivals, not just
    /// the initial top-up.
    bool timed_arrivals = true;
    /// Never send anything (the Silent fault keeps receiving + storing).
    bool silent = false;
    /// Byzantine BatchWithholder: pack batches and serve pulls, but never
    /// push proactively — peers only get the data if they ask.
    bool withhold_push = false;
  };

  /// A batch that landed after the block naming it committed (block sync):
  /// its `txns` belong to the ledger entry at `height`.
  struct LateCommit {
    Height height = 0;
    std::uint64_t txns = 0;
  };

  /// `on_arrival` fires whenever a missing batch lands (digest side).
  DataPlane(ReplicaId id, net::Transport& transport,
            mempool::WorkloadConfig workload, Rng rng, DissemConfig config,
            Options options, std::function<void()> on_arrival);

  // The timers capture `this`.
  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  // --- replica host ---
  void start();
  void stop();
  /// Crash recovery: the mempool, batch store and pull state died with the
  /// process.
  void restart();
  /// Handles a 0x4x batch frame; any other tag (or a batch frame on the
  /// inline side) throws CodecError, like an unparseable payload.
  void demux(const net::Envelope& env);

  // --- consensus cores ---
  /// Up to `max_txns` inline transactions, or references to the proposable
  /// batches (marked Proposed).
  [[nodiscard]] types::Payload make_payload(std::size_t max_txns);
  /// The proposing round timed out: the payload becomes proposable again.
  void requeue(const types::Payload& payload);
  /// Vote-availability gate: every referenced batch is held locally (held
  /// ones are marked Proposed either way). A strong-QC thereby proves 2f+1
  /// replicas can materialize the payload at commit time.
  [[nodiscard]] bool available(const types::Payload& payload);
  /// Pulls the referenced batches this replica lacks.
  void fetch(const types::Payload& payload);
  [[nodiscard]] std::size_t pending() const { return pool_.pending(); }
  /// Votes wait on available() (digest side).
  [[nodiscard]] bool gates_votes() const { return digest_ != nullptr; }

  // --- committer ---
  /// `block` as its first commit records it: itself when inline, else a
  /// copy in `scratch` carrying the referenced batches' transactions (each
  /// batch counted once across forks). Missing batches are pulled and
  /// reported by take_late_commits() once they land.
  [[nodiscard]] const types::Block& materialize(const types::Block& block,
                                                types::Block& scratch);
  /// A payload the ledger already counted: its batches are filed as
  /// committed, and missing ones are not pulled.
  void recommitted(const types::Payload& payload);
  void committed(const types::Payload& payload) {
    pool_.mark_committed(payload);
  }
  [[nodiscard]] std::vector<LateCommit> take_late_commits();

  // --- introspection (tests) ---
  [[nodiscard]] mempool::Mempool& mempool() { return pool_; }
  [[nodiscard]] const BatchStore& store() const { return digest_->store; }

 private:
  void schedule_pack();
  void pack_and_push();
  /// Files a received batch if its content address holds; true when new.
  bool ingest(const Batch& batch);
  void want(const std::vector<crypto::Sha256Digest>& digests);
  void pull_round();
  void trace_store_size() const;

  ReplicaId id_;
  std::uint32_t n_;
  net::Transport& transport_;
  DissemConfig config_;
  Options options_;
  std::function<void()> on_arrival_;
  mempool::Mempool pool_;
  mempool::WorkloadGenerator workload_;
  // Digest side only (null on the inline side). The frontend and the swarm
  // survive a restart; the DigestState does not.
  std::unique_ptr<AdmissionFrontend> frontend_;
  std::unique_ptr<ClientSwarm> swarm_;
  struct DigestState {
    BatchStore store;
    std::uint64_t seq = 0;
    /// Missing digests in registration order (deterministic pull batches)
    /// plus the membership set.
    std::deque<crypto::Sha256Digest> missing_order;
    std::unordered_set<crypto::Sha256Digest> missing;
    std::uint32_t pull_attempts = 0;
    bool pull_watchdog_armed = false;
    /// Digests materialize() found missing, with their block's height.
    std::vector<std::pair<crypto::Sha256Digest, Height>> late;
  };
  std::unique_ptr<DigestState> digest_;
  /// Bumped by stop(): timers armed before it lapse.
  std::uint64_t epoch_ = 0;
};

}  // namespace sftbft::dissem
