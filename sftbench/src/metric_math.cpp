#include "metric_math.hpp"

#include <algorithm>
#include <unordered_set>

namespace sftbench {

std::uint64_t nearest_rank(std::uint64_t count, Quantile q) {
  const std::uint64_t rank = (static_cast<std::uint64_t>(q) * count + 9999) / 10000;
  return std::max<std::uint64_t>(rank, 1);
}

std::uint64_t samples_beyond(std::uint64_t count, Quantile q) {
  if (count == 0) return 0;
  return count - nearest_rank(count, q);
}

Quantile highest_supported(std::uint64_t count, std::uint64_t min_beyond) {
  Quantile best = 0;
  for (const Quantile q : {kP50, kP90, kP99, kP999}) {
    if (samples_beyond(count, q) >= min_beyond) best = q;
  }
  return best;
}

double percentile(std::vector<double> samples, Quantile q) {
  if (samples.empty()) return 0;
  const auto index = static_cast<std::ptrdiff_t>(nearest_rank(samples.size(), q) - 1);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[static_cast<std::size_t>(index)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2;
}

std::int64_t longest_gap(std::vector<std::int64_t> times, std::int64_t begin,
                         std::int64_t end) {
  if (end <= begin) return 0;
  std::erase_if(times, [&](std::int64_t t) { return t < begin || t > end; });
  std::sort(times.begin(), times.end());
  std::int64_t longest = 0;
  std::int64_t last = begin;
  for (const std::int64_t t : times) {
    longest = std::max(longest, t - last);
    last = t;
  }
  return std::max(longest, end - last);
}

RoundOutcome round_outcome(std::uint64_t rounds_entered,
                           const std::vector<std::uint64_t>& committed_rounds,
                           bool run_failed) {
  RoundOutcome outcome{.ops = rounds_entered, .failed = rounds_entered};
  if (run_failed) return outcome;
  std::unordered_set<std::uint64_t> served;
  for (const std::uint64_t round : committed_rounds) {
    if (round >= 1 && round <= rounds_entered) served.insert(round);
  }
  outcome.failed -= served.size();
  return outcome;
}

ShareEstimate estimate_shares(const std::vector<LayerCost>& costs,
                              double run_cpu_s) {
  ShareEstimate estimate;
  for (const LayerCost& cost : costs) {
    const double share =
        run_cpu_s > 0 ? cost.seconds_per_call * cost.calls / run_cpu_s : 0;
    auto it = std::find_if(estimate.est_share.begin(), estimate.est_share.end(),
                           [&](const auto& entry) { return entry.first == cost.layer; });
    if (it == estimate.est_share.end()) {
      estimate.est_share.emplace_back(cost.layer, share);
    } else {
      it->second += share;
    }
    estimate.unattributed -= share;
  }
  return estimate;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace sftbench
