// IdSet / IdWindow: differential checks against the node-based standard
// containers they replace on the commit path.
#include <gtest/gtest.h>

#include <deque>
#include <unordered_set>
#include <vector>

#include "sftbft/common/id_set.hpp"
#include "sftbft/common/rng.hpp"

namespace sftbft {
namespace {

constexpr std::uint64_t kMax = ~std::uint64_t{0};

// Ids shaped like the real layouts: (space << 40) | seq from the workload
// generator and (space << 40) | (client << 26) | seq from the client swarm,
// plus both extremes of the value range.
std::vector<std::uint64_t> id_pool(Rng& rng, std::size_t count) {
  std::vector<std::uint64_t> ids = {0, kMax, 1, kMax - 1};
  while (ids.size() < count) {
    const auto space = static_cast<std::uint64_t>(rng.uniform(0, 49));
    const auto seq = static_cast<std::uint64_t>(rng.uniform(0, 2999));
    if (rng.chance(0.5)) {
      ids.push_back((space << 40) | seq);
    } else {
      const auto client = static_cast<std::uint64_t>(rng.uniform(0, 63));
      ids.push_back((space << 40) | (client << 26) | seq);
    }
  }
  return ids;
}

std::uint64_t pick(Rng& rng, const std::vector<std::uint64_t>& ids) {
  return ids[static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(ids.size()) - 1))];
}

TEST(IdSet, EmptySetHasNoMembers) {
  IdSet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(kMax));
  EXPECT_FALSE(set.erase(0));
  EXPECT_FALSE(set.erase(kMax));
  EXPECT_FALSE(set.erase(42));
}

TEST(IdSet, ExtremeValuesAreOrdinaryMembers) {
  IdSet set;
  for (const std::uint64_t id : {kMax, std::uint64_t{0}}) {
    EXPECT_TRUE(set.insert(id));
    EXPECT_FALSE(set.insert(id));
    EXPECT_TRUE(set.contains(id));
  }
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.erase(kMax));
  EXPECT_FALSE(set.contains(kMax));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
}

TEST(IdSet, MatchesUnorderedSetOnRandomOps) {
  for (const std::uint64_t seed : {1, 2, 3, 7919}) {
    Rng rng(seed);
    // A pool a few times the live size: inserts often hit present ids,
    // erases often miss, and the table crosses several growth steps.
    const std::vector<std::uint64_t> ids = id_pool(rng, 6000);
    IdSet set;
    std::unordered_set<std::uint64_t> ref;
    for (int step = 0; step < 60000; ++step) {
      const std::uint64_t id = pick(rng, ids);
      // Insert-heavy first half, erase-heavy second half: the set grows
      // through many doublings, then drains through backward shifts.
      const double p_insert = step < 30000 ? 0.6 : 0.3;
      const double roll = rng.uniform01();
      if (roll < p_insert) {
        ASSERT_EQ(set.insert(id), ref.insert(id).second) << "step " << step;
      } else if (roll < p_insert + 0.3) {
        ASSERT_EQ(set.erase(id), ref.erase(id) > 0) << "step " << step;
      } else {
        ASSERT_EQ(set.contains(id), ref.contains(id)) << "step " << step;
      }
      ASSERT_EQ(set.size(), ref.size()) << "step " << step;
    }
    for (const std::uint64_t id : ids) {
      ASSERT_EQ(set.contains(id), ref.contains(id));
    }
  }
}

TEST(IdSet, BackwardShiftKeepsLongProbeRunsReachable) {
  // Dense sequential ids in one space fill long probe runs; erasing from
  // the middle of a run must keep every later member reachable.
  IdSet set;
  std::unordered_set<std::uint64_t> ref;
  const std::uint64_t base = std::uint64_t{17} << 40;
  for (std::uint64_t seq = 0; seq < 4096; ++seq) {
    set.insert(base | seq);
    ref.insert(base | seq);
  }
  Rng rng(5);
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t seq = round; seq < 4096; seq += 3) {
      ASSERT_EQ(set.erase(base | seq), ref.erase(base | seq) > 0);
    }
    for (std::uint64_t seq = 0; seq < 4096; ++seq) {
      ASSERT_EQ(set.contains(base | seq), ref.contains(base | seq));
    }
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t id =
          base | static_cast<std::uint64_t>(rng.uniform(0, 4095));
      ASSERT_EQ(set.insert(id), ref.insert(id).second);
    }
    ASSERT_EQ(set.size(), ref.size());
  }
}

TEST(IdSet, CollidingIdsAcrossTheWrapAround) {
  // id = j * phi^-1 (mod 2^64) hashes to j's top bits under the
  // multiplicative hash, so small j all share home slot 0 and j near 2^64
  // share the last slot: one probe run that wraps the end of the table.
  // Erasing from it exercises backward shifts across the wrap.
  constexpr std::uint64_t kPhi = 0x9E3779B97F4A7C15ull;
  std::uint64_t inv = kPhi;
  for (int i = 0; i < 5; ++i) inv *= 2 - kPhi * inv;  // Newton: phi * inv = 1
  ASSERT_EQ(kPhi * inv, 1u);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t j = 0; j < 40; ++j) {
    ids.push_back(j * inv);
    ids.push_back((0 - j - 1) * inv);
  }
  IdSet set;
  std::unordered_set<std::uint64_t> ref;
  Rng rng(9);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t id = pick(rng, ids);
    if (rng.chance(0.5)) {
      ASSERT_EQ(set.insert(id), ref.insert(id).second) << "step " << step;
    } else {
      ASSERT_EQ(set.erase(id), ref.erase(id) > 0) << "step " << step;
    }
    ASSERT_EQ(set.size(), ref.size()) << "step " << step;
    for (const std::uint64_t probe : ids) {
      ASSERT_EQ(set.contains(probe), ref.contains(probe)) << "step " << step;
    }
  }
}

// The window against the deque + set pattern it replaced.
class RefWindow {
 public:
  explicit RefWindow(std::size_t capacity) : capacity_(capacity) {}
  void push(std::uint64_t id) {
    if (!set_.insert(id).second) return;
    order_.push_back(id);
    while (order_.size() > capacity_) {
      set_.erase(order_.front());
      order_.pop_front();
    }
  }
  bool contains(std::uint64_t id) const { return set_.contains(id); }
  std::size_t size() const { return set_.size(); }

 private:
  std::size_t capacity_;
  std::unordered_set<std::uint64_t> set_;
  std::deque<std::uint64_t> order_;
};

TEST(IdWindow, MatchesDequeWindow) {
  for (const std::size_t capacity : {0, 1, 3, 32, 1000}) {
    Rng rng(capacity + 11);
    const std::vector<std::uint64_t> ids = id_pool(rng, 3 * capacity + 8);
    IdWindow window(capacity);
    RefWindow ref(capacity);
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t id = pick(rng, ids);
      window.push(id);
      ref.push(id);
      ASSERT_EQ(window.size(), ref.size()) << "step " << step;
      const std::uint64_t probe = pick(rng, ids);
      ASSERT_EQ(window.contains(probe), ref.contains(probe)) << "step " << step;
    }
  }
}

TEST(IdWindow, EvictsOldestDistinctId) {
  IdWindow window(2);
  window.push(kMax);
  window.push(0);
  window.push(kMax);  // already present: no refresh
  window.push(5);
  EXPECT_FALSE(window.contains(kMax));
  EXPECT_TRUE(window.contains(0));
  EXPECT_TRUE(window.contains(5));
  EXPECT_EQ(window.size(), 2u);
}

TEST(IdWindow, ZeroCapacityRemembersNothing) {
  IdWindow window(0);
  window.push(3);
  EXPECT_FALSE(window.contains(3));
  EXPECT_EQ(window.size(), 0u);
}

}  // namespace
}  // namespace sftbft
