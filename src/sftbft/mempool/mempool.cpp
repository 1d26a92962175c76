#include "sftbft/mempool/mempool.hpp"

#include <stdexcept>
#include <string>

namespace sftbft::mempool {

std::uint64_t txn_id(std::uint64_t space, std::uint64_t seq) {
  if (space >> (64 - kIdSpaceShift) != 0) {
    throw std::invalid_argument("txn id space " + std::to_string(space) +
                                " does not fit in 24 bits");
  }
  if (seq >> kIdSpaceShift != 0) {
    throw std::overflow_error("txn id sequence exhausted in space " +
                              std::to_string(space));
  }
  return (space << kIdSpaceShift) | seq;
}

Mempool::Admit Mempool::submit(types::Transaction txn) {
  if (known_.contains(txn.id) || committed_.contains(txn.id)) {
    return Admit::kDuplicate;
  }
  if (capacity_ != 0 && queue_.size() >= capacity_) return Admit::kFull;
  known_.insert(txn.id);
  queue_.push_back(std::move(txn));
  return Admit::kAccepted;
}

types::Payload Mempool::make_batch(std::size_t max_txns) {
  types::Payload payload;
  payload.txns.reserve(std::min(max_txns, queue_.size()));
  while (payload.txns.size() < max_txns && !queue_.empty()) {
    types::Transaction txn = std::move(queue_.front());
    queue_.pop_front();
    if (in_flight_.contains(txn.id)) continue;
    in_flight_.insert(txn.id);
    payload.txns.push_back(std::move(txn));
  }
  return payload;
}

void Mempool::mark_committed(const types::Payload& payload) {
  for (const types::Transaction& txn : payload.txns) {
    in_flight_.erase(txn.id);
    known_.erase(txn.id);
    committed_.push(txn.id);
  }
}

void Mempool::requeue(const types::Payload& payload) {
  for (const types::Transaction& txn : payload.txns) {
    if (in_flight_.erase(txn.id)) {
      queue_.push_back(txn);
    }
  }
}

WorkloadGenerator::WorkloadGenerator(sim::Scheduler& sched, Mempool& pool,
                                     WorkloadConfig config, Rng rng)
    : sched_(sched), pool_(pool), config_(config), rng_(rng) {}

void WorkloadGenerator::set_id_space(std::uint64_t space) {
  (void)txn_id(space, 0);  // validates the space
  id_space_ = space;
}

types::Transaction WorkloadGenerator::next_txn() {
  const std::uint64_t id = txn_id(id_space_, next_id_);
  ++next_id_;
  return {.id = id,
          .submitted_at = sched_.now(),
          .size_bytes = config_.txn_size_bytes};
}

void WorkloadGenerator::start() {
  if (config_.mean_interarrival > 0) schedule_next();
}

void WorkloadGenerator::schedule_next() {
  const auto wait = static_cast<SimDuration>(
      rng_.exponential(static_cast<double>(config_.mean_interarrival)));
  sched_.schedule_after(std::max<SimDuration>(wait, 1), [this] {
    if (pool_.pending() < config_.target_pool_size) {
      pool_.submit(next_txn());
    }
    schedule_next();
  });
}

void WorkloadGenerator::top_up() {
  while (pool_.pending() < config_.target_pool_size) {
    const Mempool::Admit admit = pool_.submit(next_txn());
    // A bounded pool below the target would otherwise spin here forever.
    if (admit == Mempool::Admit::kFull) break;
  }
}

}  // namespace sftbft::mempool
