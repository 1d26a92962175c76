// Pure metric arithmetic of the benchmark: percentiles and their support,
// the time-without-service and failed-round rules, the layer-share
// estimate, and metric-name validation. No simulator types, so the unit
// tests exercise these rules on hand-built inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sftbench {

/// A quantile as an exact fraction num / 10000 (p99 = 9900), so ranks are
/// integer arithmetic and never suffer 0.99 * 1000 = 990.0000000001.
using Quantile = std::uint32_t;
inline constexpr Quantile kP50 = 5000;
inline constexpr Quantile kP90 = 9000;
inline constexpr Quantile kP99 = 9900;
inline constexpr Quantile kP999 = 9990;

/// 1-based nearest rank of quantile `q` among `count` samples:
/// ceil(q * count / 10000), at least 1.
[[nodiscard]] std::uint64_t nearest_rank(std::uint64_t count, Quantile q);

/// Samples strictly above the nearest-rank position of `q`.
[[nodiscard]] std::uint64_t samples_beyond(std::uint64_t count, Quantile q);

/// The highest quantile of the ladder p50, p90, p99, p99.9 that keeps at
/// least `min_beyond` samples beyond it; 0 when even p50 lacks them.
[[nodiscard]] Quantile highest_supported(std::uint64_t count,
                                         std::uint64_t min_beyond = 10);

/// Nearest-rank quantile of `samples` (0 when empty).
[[nodiscard]] double percentile(std::vector<double> samples, Quantile q);

/// Median by the usual midpoint rule (0 when empty).
[[nodiscard]] double median(std::vector<double> samples);

/// Longest interval inside [begin, end] that holds none of `times`: the
/// time-without-service rule. Times outside the window are ignored; an
/// empty window gives 0 and a window with no event gives end - begin.
[[nodiscard]] std::int64_t longest_gap(std::vector<std::int64_t> times,
                                       std::int64_t begin, std::int64_t end);

/// Rounds as operations: `ops` rounds entered, of which `failed` never had
/// a regularly committed block.
struct RoundOutcome {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  [[nodiscard]] double share() const {
    return ops == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(ops);
  }
  friend bool operator==(const RoundOutcome&, const RoundOutcome&) = default;
};

/// Rounds 1..rounds_entered count as operations; a round fails unless one
/// of `committed_rounds` equals it. A run that failed a correctness check
/// counts every operation as failed.
[[nodiscard]] RoundOutcome round_outcome(
    std::uint64_t rounds_entered,
    const std::vector<std::uint64_t>& committed_rounds, bool run_failed);

/// One replayed call's cost and how often the run made it; a layer may
/// have several entries.
struct LayerCost {
  std::string layer;
  double seconds_per_call = 0;
  double calls = 0;
};

struct ShareEstimate {
  /// (layer, sum of cost x calls / run CPU over its entries), in order of
  /// first appearance.
  std::vector<std::pair<std::string, double>> est_share;
  /// 1 - sum of est_share (negative when the estimates overshoot).
  double unattributed = 1;
};

[[nodiscard]] ShareEstimate estimate_shares(const std::vector<LayerCost>& costs,
                                            double run_cpu_s);

/// A metric name: starts with a letter or digit, at most 64 characters of
/// [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name);

}  // namespace sftbench
