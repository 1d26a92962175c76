// Client admission: how transactions enter a replica when dissemination is
// on.
//
// The AdmissionFrontend is the gate every submission passes: per-client
// dedup (a retrying client must not double-spend queue slots), per-client
// token-bucket rate limits, and backpressure from the bounded mempool. The
// bench-only WorkloadGenerator bypasses all of this; the frontend is what a
// real RPC edge would run, so the "millions of submitters" claims are
// exercised against admission control instead of a magic firehose.
//
// ClientSwarm simulates that submitter population: a configurable number of
// distinct clients (disjoint id spaces) submitting through the frontend,
// keeping the mempool saturated for the whole run the way the paper's
// "sufficiently many transactions" setup assumes. Deterministic given its
// Rng fork.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sftbft/common/id_set.hpp"
#include "sftbft/common/rng.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/dissem/config.hpp"
#include "sftbft/mempool/mempool.hpp"
#include "sftbft/sim/scheduler.hpp"

namespace sftbft::dissem {

/// Client transaction ids split mempool::txn_id's 40-bit sequence into
/// (client << 26) | seq: at most 2^14 clients per replica, 2^26 ids per
/// client. Throws std::invalid_argument for a client or space out of range
/// and std::overflow_error once `seq` leaves its 26 bits, rather than
/// alias another client's ids.
inline constexpr unsigned kClientSeqBits = 26;
inline constexpr std::uint64_t kMaxClients =
    std::uint64_t{1} << (mempool::kIdSpaceShift - kClientSeqBits);
std::uint64_t client_txn_id(std::uint64_t space, std::uint64_t client,
                            std::uint64_t seq);

class AdmissionFrontend {
 public:
  enum class Outcome : std::uint8_t {
    kAdmitted,
    kDuplicate,     ///< seen in the client's dedup window or the mempool
    kRateLimited,   ///< client exceeded its per-second budget
    kBackpressure,  ///< mempool at capacity; retry later
  };

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t rate_limited = 0;
    std::uint64_t backpressured = 0;
  };

  AdmissionFrontend(mempool::Mempool& pool, DissemConfig config);

  /// One client submission at simulation time `now`.
  Outcome submit(std::uint64_t client, types::Transaction txn, SimTime now);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Current mempool backlog (the swarm's saturation signal).
  [[nodiscard]] std::size_t backlog() const { return pool_.pending(); }

 private:
  /// The decision logic; submit() wraps it with observability reporting.
  Outcome classify(std::uint64_t client, types::Transaction txn, SimTime now);

  struct ClientState {
    explicit ClientState(std::size_t window) : recent(window) {}

    /// Recently admitted ids, FIFO-bounded to client_dedup_window.
    IdWindow recent;
    /// Token-bucket window (one second, client_rate_limit tokens).
    SimTime window_start = 0;
    std::uint32_t window_used = 0;
  };

  mempool::Mempool& pool_;
  DissemConfig config_;
  Stats stats_;
  std::unordered_map<std::uint64_t, ClientState> clients_;
};

/// The simulated submitter population behind one replica's frontend.
class ClientSwarm {
 public:
  /// Throws std::invalid_argument for more than kMaxClients clients.
  ClientSwarm(sim::Scheduler& sched, AdmissionFrontend& frontend,
              mempool::WorkloadConfig workload, DissemConfig config, Rng rng);

  /// Disjoint per-replica id space (call with the replica id, like
  /// WorkloadGenerator::set_id_space, which also validates it).
  void set_id_space(std::uint64_t space);

  /// Synchronously refills the backlog to the workload target.
  void top_up();

  /// Keeps the backlog topped up for the whole run (periodic refill — the
  /// data plane continuously drains the pool into batches, so a one-shot
  /// top_up would starve it).
  void start();
  void stop() { running_ = false; }

  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }

 private:
  void schedule_refill();

  sim::Scheduler& sched_;
  AdmissionFrontend& frontend_;
  mempool::WorkloadConfig workload_;
  DissemConfig config_;
  Rng rng_;
  std::uint64_t id_space_ = 0;
  std::uint32_t next_client_ = 0;
  /// Per-client submission counters (ids stay unique per client).
  std::vector<std::uint32_t> client_seq_;
  std::uint64_t submitted_ = 0;
  bool running_ = false;
};

}  // namespace sftbft::dissem
