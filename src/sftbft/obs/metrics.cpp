#include "sftbft/obs/metrics.hpp"

#include <algorithm>
#include <bit>

namespace sftbft::obs {

const char* metric_name(Counter c) {
  switch (c) {
    case Counter::kProposalsSent: return "consensus.proposals_sent";
    case Counter::kVotesSent: return "consensus.votes_sent";
    case Counter::kRoundsEntered: return "consensus.rounds_entered";
    case Counter::kTimeoutsLocal: return "consensus.timeouts_local";
    case Counter::kBlocksCertified: return "consensus.blocks_certified";
    case Counter::kCommits: return "consensus.commits";
    case Counter::kStrongCommits: return "consensus.strong_commits";
    case Counter::kSyncRounds: return "sync.rounds";
    case Counter::kWalAppends: return "storage.wal_appends";
    case Counter::kSnapshots: return "storage.snapshots";
    case Counter::kBatchesPacked: return "dissem.batches_packed";
    case Counter::kBatchPullRounds: return "dissem.pull_rounds";
    case Counter::kBatchesResolved: return "dissem.batches_resolved";
    case Counter::kAdmitted: return "admission.admitted";
    case Counter::kAdmissionDuplicate: return "admission.duplicate";
    case Counter::kAdmissionRateLimited: return "admission.rate_limited";
    case Counter::kAdmissionBackpressure: return "admission.backpressure";
    case Counter::kVoteVerifyHits: return "sig.vote_verify_hits";
    case Counter::kVoteVerifyMisses: return "sig.vote_verify_misses";
    case Counter::kCertVerifyMisses: return "sig.cert_verify_misses";
    case Counter::kCount_: break;
  }
  return "?";
}

const char* metric_name(Gauge g) {
  switch (g) {
    case Gauge::kRound: return "consensus.round";
    case Gauge::kMempoolBacklog: return "admission.mempool_backlog";
    case Gauge::kCount_: break;
  }
  return "?";
}

const char* metric_name(Hist h) {
  switch (h) {
    case Hist::kCommitLatencyUs: return "consensus.commit_latency_us";
    case Hist::kStrongCommitLatencyUs:
      return "consensus.strong_commit_latency_us";
    case Hist::kCertifyLatencyUs: return "consensus.certify_latency_us";
    case Hist::kVoteF1LatencyUs: return "consensus.vote_f1_latency_us";
    case Hist::kVoteQuorumLatencyUs:
      return "consensus.vote_quorum_latency_us";
    case Hist::kCount_: break;
  }
  return "?";
}

// ---------------------------------------------------------------- Histogram

std::size_t Histogram::bucket_for(std::uint64_t value) {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  // msb >= kSubBits. Each power-of-two range [2^msb, 2^{msb+1}) splits into
  // kSubBuckets linear sub-buckets selected by the bits just below the msb.
  const int msb = std::bit_width(value) - 1;
  const int shift = msb - kSubBits;
  const auto sub = static_cast<std::size_t>((value >> shift) & (kSubBuckets - 1));
  const auto range = static_cast<std::size_t>(msb - kSubBits + 1);
  return range * kSubBuckets + sub;
}

std::uint64_t Histogram::bucket_lower(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::size_t range = index / kSubBuckets;       // >= 1
  const std::size_t sub = index % kSubBuckets;
  const int msb = static_cast<int>(range) + kSubBits - 1;
  const std::uint64_t base = std::uint64_t{1} << msb;
  const std::uint64_t step = std::uint64_t{1} << (msb - kSubBits);
  return base + sub * step;
}

std::uint64_t Histogram::bucket_upper(std::size_t index) {
  if (index < kSubBuckets) return index + 1;
  const std::size_t range = index / kSubBuckets;
  const int msb = static_cast<int>(range) + kSubBits - 1;
  const std::uint64_t step = std::uint64_t{1} << (msb - kSubBits);
  return bucket_lower(index) + step;
}

void Histogram::record(std::int64_t value) {
  const std::uint64_t v =
      value < 0 ? 0 : static_cast<std::uint64_t>(value);
  buckets_[bucket_for(v)] += 1;
  if (count_ == 0) {
    min_ = max_ = value < 0 ? 0 : value;
  } else {
    min_ = std::min(min_, std::max<std::int64_t>(value, 0));
    max_ = std::max(max_, value);
  }
  sum_ += static_cast<double>(v);
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

std::int64_t Histogram::percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample (1-based, ceil — p50 of 2 samples is the 1st).
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Bucket midpoint, clamped into the observed value range so tail
      // quantiles never report past the true max.
      const std::uint64_t mid = bucket_lower(i) + (bucket_upper(i) -
                                                   bucket_lower(i)) / 2;
      return std::clamp(static_cast<std::int64_t>(mid), min_, max_);
    }
  }
  return max_;
}

HistogramSummary Histogram::summary() const {
  HistogramSummary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.min = min_;
  s.max = max_;
  s.mean = sum_ / static_cast<double>(count_);
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  s.p999 = percentile(0.999);
  return s;
}

// ----------------------------------------------------------------- Registry

void Registry::merge(const Registry& other) {
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    gauges_[i] = std::max(gauges_[i], other.gauges_[i]);
  }
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    hists_[i].merge(other.hists_[i]);
  }
}

std::map<std::string, std::uint64_t> Registry::counter_snapshot() const {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out.emplace(metric_name(static_cast<Counter>(i)), counters_[i]);
  }
  return out;
}

}  // namespace sftbft::obs
