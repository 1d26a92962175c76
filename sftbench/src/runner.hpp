// One instrumented run of a workload through the public API:
// Scenario -> engine::Deployment, with the benchmark's own spans around
// start() and each one-sim-second run_for() slice, then the
// sim-clock metrics, the per-layer counts and the correctness checks read
// back from the scheduler, transport stats, ledgers and observer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "metric_math.hpp"
#include "sftbft/engine/deployment.hpp"
#include "sftbft/harness/scenario.hpp"

namespace sftbench {

/// Sim-clock results of one run, raw enough to pool over runs: they are
/// deterministic for a scenario and seed, so two runs of one seed must
/// agree bit for bit (the determinism self-check).
struct SimCounts {
  /// Per (in-window block, honest replica): creation -> first commit, and
  /// creation -> first commit at strength >= 2f, seconds.
  std::vector<double> commit_s;
  std::vector<double> strong_s;
  std::uint64_t window_txns = 0;  ///< replica 0, blocks created in the window
  double window_s = 0;
  std::uint64_t messages = 0;  ///< frames sent, whole run
  std::uint64_t bytes = 0;     ///< frame bytes sent, whole run
  std::uint64_t blocks = 0;    ///< committed at replica 0
  std::uint64_t txns = 0;      ///< committed at replica 0
  double service_gap_s = 0;
  RoundOutcome rounds;
  std::uint64_t events = 0;

  friend bool operator==(const SimCounts&, const SimCounts&) = default;
};

struct RunResult {
  // Host clock (this process), seconds.
  double wall_s = 0;     ///< start() plus every run_for() slice
  double cpu_s = 0;      ///< process CPU over the same spans
  double harvest_s = 0;  ///< result extraction (+ critical path when traced)
  std::vector<double> slice_wall_ms;  ///< per one-sim-second run_for() slice

  SimCounts sim;
  /// Per-layer counts, keyed by metric name (obs-backed ones only when the
  /// run was traced).
  std::map<std::string, double> layer;
  /// Failed correctness checks, one readable line each.
  std::vector<std::string> failures;
};

/// Called after harvest, while the run's Deployment is still alive.
using Inspect = std::function<void(sftbft::engine::Deployment&)>;

/// Runs `scenario` once; `traced` turns observability and tracing on.
/// `between_slices`, if set, runs after every one-sim-second slice, outside
/// the timed spans.
[[nodiscard]] RunResult run_workload(const sftbft::harness::Scenario& scenario,
                                     bool traced,
                                     const std::function<void()>& between_slices = {},
                                     const Inspect& inspect = {});

/// Builds and tears down the scenario's Deployment; returns the build time
/// (Scenario -> DeploymentConfig -> Deployment, teardown excluded).
[[nodiscard]] double time_setup(const sftbft::harness::Scenario& scenario);

}  // namespace sftbench
