// Metrics registry: counters, gauges, and log-bucketed histograms.
//
// The paper's evaluation is timing (Sec. 4: strength latency from block
// creation to x-strong commit), and means hide exactly the behaviour the
// remaining ROADMAP items need to see — tails under churn, per-phase
// breakdowns, "why did this run stall". The registry replaces the harness's
// ad-hoc mean-only aggregation with a fixed vocabulary of named metrics
// (one Registry per replica, mergeable across replicas) and HDR-style
// log-bucketed histograms reporting p50/p90/p99/p99.9 plus min/max/mean.
//
// The vocabulary is a closed enum, not free-form strings: every Registry
// carries every metric (at zero) from construction, so per-replica arrays
// are index-addressed (a counter bump is one array increment — cheap enough
// to leave on in every run), merge is positional, and "the three engines
// expose identical metric keys" is a checkable conformance property rather
// than an accident of which code paths fired.
//
// Everything here is deployment-scoped, single-threaded state (one
// simulation == one thread); bench sweeps give each concurrent scenario its
// own Observer, so no locking is needed or provided.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace sftbft::obs {

/// Monotonic event counts. Names (metric_name) are stable identifiers —
/// they appear in bench JSON and the README metric registry.
enum class Counter : std::uint8_t {
  kProposalsSent,         ///< blocks this replica proposed
  kVotesSent,             ///< votes this replica cast
  kRoundsEntered,         ///< round advances (pacemaker / lock-step tick)
  kTimeoutsLocal,         ///< local round-timer expiries
  kBlocksCertified,       ///< blocks whose certification this replica saw
  kCommits,               ///< regular (f-strong) commits observed locally
  kStrongCommits,         ///< strength raises past the regular commit
  kSyncRounds,            ///< block-sync request rounds issued
  kWalAppends,            ///< WAL records appended
  kSnapshots,             ///< snapshots written
  kBatchesPacked,         ///< dissemination batches packed + pushed
  kBatchPullRounds,       ///< pull rounds issued for missing batches
  kBatchesResolved,       ///< previously missing batches that arrived
  kAdmitted,              ///< admission decisions, by outcome...
  kAdmissionDuplicate,
  kAdmissionRateLimited,
  kAdmissionBackpressure,
  kVoteVerifyHits,        ///< vote checks skipped: exact verified copies...
  kVoteVerifyMisses,      ///< ...and vote MACs recomputed (incl. cert members)
  kCertVerifyMisses,      ///< full certificate (aggregate) verifications
  kCount_,
};

/// Last-write-wins instantaneous values.
enum class Gauge : std::uint8_t {
  kRound,           ///< current consensus round
  kMempoolBacklog,  ///< pending transactions behind the admission gate
  kCount_,
};

/// Log-bucketed latency/size distributions (values in integer units; the
/// consensus histograms record microseconds of sim time).
enum class Hist : std::uint8_t {
  kCommitLatencyUs,        ///< block creation -> regular commit
  kStrongCommitLatencyUs,  ///< block creation -> any strength raise
  kCertifyLatencyUs,       ///< block creation -> local certification
  // The paper's strength clock: votes accumulate past the quorum and each
  // arrival ordinal is a latency milestone. These two pin the f+1-th and
  // 2f+1-th vote arrival per block (measured from block creation at the
  // replica that tallies the votes).
  kVoteF1LatencyUs,      ///< block creation -> (f+1)-th distinct vote
  kVoteQuorumLatencyUs,  ///< block creation -> (2f+1)-th distinct vote
  kCount_,
};

[[nodiscard]] const char* metric_name(Counter c);
[[nodiscard]] const char* metric_name(Gauge g);
[[nodiscard]] const char* metric_name(Hist h);

/// The stats a histogram reports. Percentiles are bucket-resolved: exact to
/// the bucket width (relative error <= 1/16, see Histogram).
struct HistogramSummary {
  std::uint64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  double mean = 0;
  std::int64_t p50 = 0;
  std::int64_t p90 = 0;
  std::int64_t p99 = 0;
  std::int64_t p999 = 0;
};

/// HDR-style log-bucketed histogram for non-negative 64-bit values.
///
/// Layout: values < 2^kSubBits land in exact unit buckets; above that, each
/// power-of-two range is split into 2^kSubBits linear sub-buckets, bounding
/// the relative quantization error by 2^-kSubBits (6.25%). min/max/mean are
/// tracked exactly. Merging histograms is positional bucket addition, so a
/// merge of per-replica histograms is bucket-identical to recording every
/// sample into one histogram — the property the cross-replica percentile
/// aggregation in ScenarioResult rests on (and tests assert).
class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;
  /// Buckets cover [0, 2^62) — (62 - kSubBits + 1) half-open log ranges of
  /// kSubBuckets linear buckets each, plus the exact low range.
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(62 - kSubBits + 1) * kSubBuckets + kSubBuckets;

  /// Negative values clamp to 0 (sim-time arithmetic cannot go backwards,
  /// but a clamped outlier beats UB in a metrics layer).
  void record(std::int64_t value);

  /// Positional bucket addition (see class comment).
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Value at quantile q in [0, 1] — the representative (midpoint) of the
  /// bucket holding the q-th sample; 0 when empty.
  [[nodiscard]] std::int64_t percentile(double q) const;

  [[nodiscard]] HistogramSummary summary() const;

  /// Bucket index for a value (exposed for the bucket-correctness tests).
  [[nodiscard]] static std::size_t bucket_for(std::uint64_t value);
  /// Inclusive lower / exclusive upper bound of a bucket's value range.
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t index);
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0;
};

/// One replica's metrics: every Counter/Gauge/Hist, index-addressed.
class Registry {
 public:
  void add(Counter c, std::uint64_t delta = 1) {
    counters_[static_cast<std::size_t>(c)] += delta;
  }
  void set(Gauge g, std::int64_t value) {
    gauges_[static_cast<std::size_t>(g)] = value;
  }
  void observe(Hist h, std::int64_t value) {
    hists_[static_cast<std::size_t>(h)].record(value);
  }

  [[nodiscard]] std::uint64_t counter(Counter c) const {
    return counters_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::int64_t gauge(Gauge g) const {
    return gauges_[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] const Histogram& histogram(Hist h) const {
    return hists_[static_cast<std::size_t>(h)];
  }

  /// Counters + gauges fold by addition / last-write, histograms by bucket
  /// addition. (Gauges take the other registry's value only when set —
  /// merge is used for cross-replica aggregation where "last" is
  /// meaningless; the max is the useful roll-up.)
  void merge(const Registry& other);

  /// Name -> value snapshot of every counter (the full vocabulary — zeros
  /// included, so key sets are identical across engines by construction).
  [[nodiscard]] std::map<std::string, std::uint64_t> counter_snapshot() const;

 private:
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount_)>
      counters_{};
  std::array<std::int64_t, static_cast<std::size_t>(Gauge::kCount_)> gauges_{};
  std::array<Histogram, static_cast<std::size_t>(Hist::kCount_)> hists_{};
};

}  // namespace sftbft::obs
