#include "sftbft/core/committer.hpp"

#include "sftbft/obs/observer.hpp"

namespace sftbft::core {

void observe_commit(obs::Observer* obs, ReplicaId id, std::uint32_t f,
                    const types::Block& block, std::uint32_t strength,
                    SimTime now) {
  if (obs == nullptr) return;
  const SimDuration latency = now - block.created_at;
  const bool strong = strength > f;
  obs->count(id, strong ? obs::Counter::kStrongCommits : obs::Counter::kCommits);
  obs->observe(id,
               strong ? obs::Hist::kStrongCommitLatencyUs
                      : obs::Hist::kCommitLatencyUs,
               latency);
  if (obs->recording()) {
    obs->emit(obs::span_event("block", strong ? "strong_commit" : "committed",
                              id, block.height, block.created_at, now,
                              {"round", block.round}, {"strength", strength}));
  }
}

}  // namespace sftbft::core
