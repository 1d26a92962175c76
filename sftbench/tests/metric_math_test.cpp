// Tests of the benchmark's own metric arithmetic on hand-built inputs.
#include "metric_math.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace sftbench {
namespace {

TEST(Percentile, NearestRankUsesExactIntegerArithmetic) {
  EXPECT_EQ(nearest_rank(1000, kP99), 990u);  // not 991 from 0.99 * 1000
  EXPECT_EQ(nearest_rank(999, kP99), 990u);
  EXPECT_EQ(nearest_rank(1, kP50), 1u);
  EXPECT_EQ(nearest_rank(0, kP50), 1u);
  EXPECT_EQ(nearest_rank(10, kP50), 5u);
  EXPECT_EQ(nearest_rank(11, kP50), 6u);
}

TEST(Percentile, ValuesFollowNearestRank) {
  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);  // 1..100
  std::reverse(samples.begin(), samples.end());
  EXPECT_EQ(percentile(samples, kP50), 50.0);
  EXPECT_EQ(percentile(samples, kP90), 90.0);
  EXPECT_EQ(percentile(samples, kP99), 99.0);
  EXPECT_EQ(percentile({}, kP99), 0.0);
  EXPECT_EQ(percentile({7.0}, kP99), 7.0);
}

TEST(Percentile, HighestSupportedKeepsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, kP99), 10u);
  EXPECT_EQ(samples_beyond(999, kP99), 9u);
  EXPECT_EQ(highest_supported(1000), kP99);
  EXPECT_EQ(highest_supported(999), kP90);
  EXPECT_EQ(highest_supported(10000), kP999);
  EXPECT_EQ(highest_supported(100), kP90);
  EXPECT_EQ(highest_supported(99), kP50);
  EXPECT_EQ(highest_supported(20), kP50);
  EXPECT_EQ(highest_supported(19), 0u);
  EXPECT_EQ(highest_supported(0), 0u);
  EXPECT_EQ(highest_supported(60, 30), kP50);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(ServiceGap, LongestIntervalWithoutCommit) {
  // Commits at 2, 3, 9 inside [0, 10]: the gap 3 -> 9 is the longest.
  EXPECT_EQ(longest_gap({9, 2, 3}, 0, 10), 6);
  // The window edges count: nothing after 2 until the end at 10.
  EXPECT_EQ(longest_gap({1, 2}, 0, 10), 8);
  // Nothing before the first commit at 7.
  EXPECT_EQ(longest_gap({7, 8, 9, 10}, 0, 10), 7);
  // Commits outside the window are ignored; bursts at one instant are fine.
  EXPECT_EQ(longest_gap({-5, 4, 4, 4, 15}, 0, 10), 6);
  EXPECT_EQ(longest_gap({}, 2, 10), 8);
  EXPECT_EQ(longest_gap({5}, 10, 10), 0);
}

TEST(FailedShare, RoundsWithoutCommittedBlockFail) {
  // Rounds 1..10 entered; blocks of rounds 1-4, 6 and 8 committed (round 6
  // twice, as after a sync replay); 5 and 7 timed out, 9 and 10 in flight.
  const RoundOutcome outcome = round_outcome(10, {1, 2, 3, 4, 6, 6, 8}, false);
  EXPECT_EQ(outcome.ops, 10u);
  EXPECT_EQ(outcome.failed, 4u);
  EXPECT_DOUBLE_EQ(outcome.share(), 0.4);
}

TEST(FailedShare, CommittedRoundsOutsideRangeDoNotCount) {
  const RoundOutcome outcome = round_outcome(3, {0, 1, 2, 3, 4}, false);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_DOUBLE_EQ(outcome.share(), 0.0);
}

TEST(FailedShare, FailedRunCountsEveryRound) {
  const RoundOutcome outcome = round_outcome(10, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, true);
  EXPECT_EQ(outcome.failed, 10u);
  EXPECT_DOUBLE_EQ(outcome.share(), 1.0);
  EXPECT_DOUBLE_EQ(round_outcome(0, {}, false).share(), 0.0);
}

TEST(EstShare, CostTimesCallsOverRunCpu) {
  const ShareEstimate estimate = estimate_shares(
      {{"common", 2e-6, 100000}, {"sim", 1e-7, 1000000}, {"storage", 0, 50}}, 1.0);
  ASSERT_EQ(estimate.est_share.size(), 3u);
  EXPECT_EQ(estimate.est_share[0].first, "common");
  EXPECT_DOUBLE_EQ(estimate.est_share[0].second, 0.2);
  EXPECT_DOUBLE_EQ(estimate.est_share[1].second, 0.1);
  EXPECT_DOUBLE_EQ(estimate.est_share[2].second, 0.0);
  EXPECT_DOUBLE_EQ(estimate.unattributed, 0.7);
}

TEST(EstShare, EntriesOfOneLayerAdd) {
  const ShareEstimate estimate = estimate_shares(
      {{"crypto", 5e-5, 1000}, {"sim", 1e-7, 1000000}, {"crypto", 3e-6, 10000}}, 0.5);
  ASSERT_EQ(estimate.est_share.size(), 2u);
  EXPECT_EQ(estimate.est_share[0].first, "crypto");
  EXPECT_DOUBLE_EQ(estimate.est_share[0].second, 0.16);
  EXPECT_EQ(estimate.est_share[1].first, "sim");
  EXPECT_DOUBLE_EQ(estimate.est_share[1].second, 0.2);
  EXPECT_DOUBLE_EQ(estimate.unattributed, 0.64);
}

TEST(EstShare, OvershootGoesNegativeAndZeroCpuIsSafe) {
  EXPECT_DOUBLE_EQ(estimate_shares({{"crypto", 1.0, 3}}, 2.0).unattributed, -0.5);
  const ShareEstimate none = estimate_shares({{"crypto", 1.0, 3}}, 0.0);
  EXPECT_DOUBLE_EQ(none.est_share[0].second, 0.0);
  EXPECT_DOUBLE_EQ(none.unattributed, 1.0);
}

TEST(MetricName, AllowedCharacters) {
  EXPECT_TRUE(valid_metric_name("commit_p99_s"));
  EXPECT_TRUE(valid_metric_name("net.frames.batch_push"));
  EXPECT_TRUE(valid_metric_name("obs.cp.vote_gather_f1_share"));
  EXPECT_TRUE(valid_metric_name("9lives-a.b_c"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("cpu_µs"));
  EXPECT_FALSE(valid_metric_name("a/b"));
}

}  // namespace
}  // namespace sftbench
