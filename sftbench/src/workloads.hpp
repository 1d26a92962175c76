// The benchmark's three workloads, each a harness::Scenario built from the
// command-line seed. Clients inside the simulation are open-loop Poisson
// arrivals in sim time. METRICS.md records why each workload exists.
#pragma once

#include <cstdint>
#include <string_view>

#include "sftbft/harness/scenario.hpp"

namespace sftbench {

struct Workload {
  std::string_view name;
  sftbft::harness::Scenario (*make)(std::uint64_t seed);
  /// Seeded instances one invocation runs and pools, so its sim figures
  /// cover several draws of jitter, arrivals and faults, not one.
  std::uint32_t instances = 1;
};

/// Scenario seed of instance `index` of an invocation with `seed`.
[[nodiscard]] constexpr std::uint64_t instance_seed(std::uint64_t seed,
                                                    std::uint32_t index) {
  return seed * 64 + index;
}

/// geo-inline, dissem-n50, streamlet-faults; nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace sftbench
