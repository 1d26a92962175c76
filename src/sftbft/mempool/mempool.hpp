// Mempool and client workload generation.
//
// The paper's setup: "sufficiently many transactions are generated and
// submitted by the clients so that any leader always has enough transactions
// to include in its proposed block" (~1000 txns, ~450 KB per block). The
// WorkloadGenerator keeps the pool saturated with Poisson arrivals; the
// Mempool hands leaders a batch and drops transactions once they commit.
#pragma once

#include <cstdint>
#include <deque>

#include "sftbft/common/id_set.hpp"
#include "sftbft/common/rng.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/sim/scheduler.hpp"
#include "sftbft/types/transaction.hpp"

namespace sftbft::mempool {

/// Transaction id layout: (space << 40) | seq, a 24-bit id space (the
/// replica id) over a 40-bit sequence. ClientSwarm splits the sequence
/// further (dissem::client_txn_id). A field out of range would silently
/// alias another space's ids, so this throws instead: std::invalid_argument
/// for the space, std::overflow_error for the sequence.
inline constexpr unsigned kIdSpaceShift = 40;
std::uint64_t txn_id(std::uint64_t space, std::uint64_t seq);

class Mempool {
 public:
  /// How many committed ids the dedup window remembers (FIFO eviction):
  /// enough to cover every in-flight client retry horizon in the sims
  /// without growing with ledger length.
  static constexpr std::size_t kCommittedMemory = 1 << 14;

  /// Outcome of a submission — the mempool's backpressure signal.
  enum class Admit : std::uint8_t {
    kAccepted,   ///< queued
    kDuplicate,  ///< id already pending, in flight, or recently committed
    kFull,       ///< bounded capacity reached; resubmit later
  };

  /// Admits a transaction. Duplicates (by id, across the pending queue,
  /// in-flight batches, and a bounded window of recent commits) and
  /// over-capacity submissions are rejected, never silently double-queued.
  Admit submit(types::Transaction txn);

  /// Bounds the pending queue (0 = unbounded, the default). When full,
  /// submit returns kFull — the AdmissionFrontend's backpressure source.
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Takes up to `max_txns` pending transactions, oldest first. Transactions
  /// in flight (already proposed but not committed) are not re-proposed.
  [[nodiscard]] types::Payload make_batch(std::size_t max_txns);

  /// Marks a batch as committed (drops in-flight bookkeeping).
  void mark_committed(const types::Payload& payload);

  /// Returns a batch's transactions to the pending queue (leader's block
  /// abandoned — e.g. the round timed out before certification).
  void requeue(const types::Payload& payload);

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }

 private:
  std::deque<types::Transaction> queue_;
  IdSet in_flight_;
  /// Ids currently pending or in flight (the live dedup set).
  IdSet known_;
  /// Recently committed ids.
  IdWindow committed_{kCommittedMemory};
  std::size_t capacity_ = 0;
};

struct WorkloadConfig {
  /// Mean transaction arrival interval; 0 disables timed generation (the
  /// pool is then refilled instantaneously via `top_up`).
  SimDuration mean_interarrival = 0;
  std::uint32_t txn_size_bytes = 450;  ///< paper: ~450 KB / ~1000 txns
  std::size_t target_pool_size = 4000;
};

/// Feeds one replica's mempool. Deterministic given its RNG.
class WorkloadGenerator {
 public:
  WorkloadGenerator(sim::Scheduler& sched, Mempool& pool, WorkloadConfig config,
                    Rng rng);

  /// Starts Poisson arrivals (if mean_interarrival > 0).
  void start();

  /// Synchronously refills the pool to the target size ("saturated clients").
  void top_up();

  [[nodiscard]] std::uint64_t generated() const { return next_id_; }

 private:
  void schedule_next();
  types::Transaction next_txn();

  sim::Scheduler& sched_;
  Mempool& pool_;
  WorkloadConfig config_;
  Rng rng_;
  std::uint64_t next_id_ = 0;
  /// Distinguishes generators so txn ids are globally unique.
  std::uint64_t id_space_ = 0;

 public:
  /// Assigns a disjoint id space (call with the replica id). Throws
  /// std::invalid_argument when `space` does not fit the id layout.
  void set_id_space(std::uint64_t space);
};

}  // namespace sftbft::mempool
