// Crash-recovery: FaultSpec::CrashRestart replicas on both engines must
// rejoin via their durable ReplicaStore + peer block sync, never equivocate
// (the Ledger's conflict check throws on any conflicting commit inside a
// replica; cross-replica agreement is asserted explicitly), and keep every
// strong commit made before the crash (Theorem 2's "benign faults" now
// includes replicas that come back).
#include <gtest/gtest.h>

#include "sftbft/engine/deployment.hpp"
#include "sftbft/storage/mem_backend.hpp"
#include "sftbft/storage/replica_store.hpp"

namespace sftbft {
namespace {

using consensus::CoreMode;
using engine::Deployment;
using engine::DeploymentConfig;
using engine::FaultSpec;
using engine::Protocol;

DeploymentConfig small_cluster(Protocol protocol, std::uint32_t n,
                               std::uint64_t seed = 1) {
  DeploymentConfig config;
  config.protocol = protocol;
  config.n = n;
  config.chained.mode = CoreMode::SftMarker;
  config.chained.base_timeout = millis(500);
  config.chained.leader_processing = millis(5);
  config.chained.max_batch = 10;
  config.streamlet.delta_bound = millis(25);
  config.streamlet.sft = true;
  config.topology = net::Topology::uniform(n, millis(10));
  config.net.jitter = millis(2);
  config.workload.target_pool_size = 100;
  config.seed = seed;
  config.storage.snapshot_interval_blocks = 8;
  return config;
}

void expect_prefix_agreement(Deployment& cluster, std::uint32_t n) {
  const auto& ledger0 = cluster.ledger(0);
  for (ReplicaId id = 1; id < n; ++id) {
    const auto& ledger = cluster.ledger(id);
    const Height common =
        std::min(ledger0.tip().value_or(0), ledger.tip().value_or(0));
    for (Height h = 1; h <= common; ++h) {
      ASSERT_TRUE(ledger0.is_committed(h));
      ASSERT_TRUE(ledger.is_committed(h));
      ASSERT_EQ(ledger0.at(h).block_id, ledger.at(h).block_id)
          << "height " << h << " replica " << id;
    }
  }
}

TEST(Recovery, DiemBftCrashRestartRejoinsAndCatchesUp) {
  auto config = small_cluster(Protocol::DiemBft, 4);
  config.faults.resize(4);
  config.faults[2] = FaultSpec::crash_restart(seconds(3), seconds(6));
  Deployment cluster(config);
  cluster.start();
  cluster.run_for(seconds(5));
  const auto down_blocks = cluster.ledger(2).committed_blocks();
  cluster.run_for(seconds(15));  // restart at 6s, then catch up

  // The recovered replica resumed committing far past its crash point.
  EXPECT_GT(cluster.ledger(2).committed_blocks(), down_blocks + 20);
  // It tracks the cluster tip closely (fully caught up).
  const Height tip0 = cluster.ledger(0).tip().value_or(0);
  const Height tip2 = cluster.ledger(2).tip().value_or(0);
  EXPECT_GT(tip2 + 5, tip0);
  expect_prefix_agreement(cluster, 4);
}

TEST(Recovery, StreamletCrashRestartRejoinsAndCatchesUp) {
  auto config = small_cluster(Protocol::Streamlet, 4);
  config.faults.resize(4);
  config.faults[2] = FaultSpec::crash_restart(seconds(3), seconds(6));
  Deployment cluster(config);
  cluster.start();
  cluster.run_for(seconds(5));
  const auto down_blocks = cluster.ledger(2).committed_blocks();
  cluster.run_for(seconds(25));

  EXPECT_GT(cluster.ledger(2).committed_blocks(), down_blocks + 10);
  const Height tip0 = cluster.ledger(0).tip().value_or(0);
  const Height tip2 = cluster.ledger(2).tip().value_or(0);
  EXPECT_GT(tip2 + 8, tip0);
  expect_prefix_agreement(cluster, 4);
}

TEST(Recovery, StrongCommitsBeforeCrashSurviveRestart) {
  auto config = small_cluster(Protocol::DiemBft, 4);
  config.faults.resize(4);
  config.faults[1] = FaultSpec::crash_restart(seconds(4), seconds(7));
  Deployment cluster(config);

  cluster.start();
  cluster.run_for(seconds(4) - millis(1));  // just before the crash
  // Capture what replica 1 had strong-committed pre-crash.
  const auto pre_crash = cluster.ledger(1).snapshot();
  ASSERT_GT(pre_crash.size(), 5u);

  cluster.run_for(seconds(16) + millis(1));

  // Every pre-crash commit survives at its height, same block, with
  // strength never regressing (the ledger ratchet holds across restarts).
  const auto& ledger = cluster.ledger(1);
  for (const auto& entry : pre_crash) {
    ASSERT_TRUE(ledger.is_committed(entry.height)) << entry.height;
    EXPECT_EQ(ledger.at(entry.height).block_id, entry.block_id);
    EXPECT_GE(ledger.at(entry.height).strength, entry.strength);
  }
  expect_prefix_agreement(cluster, 4);
}

TEST(Recovery, BothEnginesRunChurnWithoutConflicts) {
  // A churn of crash/restart cycles: two replicas bounce, one at a time.
  for (const Protocol protocol : {Protocol::DiemBft, Protocol::Streamlet}) {
    auto config = small_cluster(protocol, 7, /*seed=*/9);
    config.faults.resize(7);
    config.faults[2] = FaultSpec::crash_restart(seconds(3), seconds(6));
    config.faults[5] = FaultSpec::crash_restart(seconds(9), seconds(12));
    Deployment cluster(config);
    cluster.start();
    // Any equivocation surfaces as chain::LedgerConflict (and fails here).
    ASSERT_NO_THROW(cluster.run_for(seconds(25)))
        << engine::protocol_name(protocol);
    EXPECT_GT(cluster.ledger(2).committed_blocks(), 10u);
    EXPECT_GT(cluster.ledger(5).committed_blocks(), 10u);
    expect_prefix_agreement(cluster, 7);
  }
}

TEST(Recovery, RestartWithoutStoreRefuses) {
  for (const Protocol protocol : engine::kAllProtocols) {
    Deployment cluster(small_cluster(protocol, 4));
    cluster.start();
    cluster.run_for(seconds(1));
    EXPECT_EQ(cluster.store(0), nullptr) << engine::protocol_name(protocol);
    EXPECT_THROW(cluster.engine(0).restart(), std::logic_error)
        << engine::protocol_name(protocol);
  }
}

// Satellite: the adversarial-replay regression. A recovered replica whose
// WAL says "voted in round r" but whose rebuilt tree has not re-learned the
// voted block yet must refuse to vote when the round-r proposal is replayed
// to it — equivocation would otherwise be trivial to induce.
TEST(Recovery, ReplayedProposalCannotInduceEquivocation) {
  auto config = small_cluster(Protocol::DiemBft, 4);
  config.persist_all = true;  // give everyone a store; no scheduled faults
  Deployment cluster(config);
  cluster.start();
  cluster.run_for(seconds(3));

  // Crash replica 2 manually mid-run, then restart it from its store.
  cluster.engine(2).stop();
  cluster.store(2)->simulate_crash();
  cluster.run_for(seconds(2));

  auto& core = cluster.diem_core(2);
  const Round pre_crash_voted = core.safety().voted_round();
  ASSERT_GT(pre_crash_voted, 0u);

  cluster.engine(2).restart();
  // The durable fence must be up immediately — before any sync response.
  EXPECT_GE(core.safety().voted_round(), pre_crash_voted);

  // Adversarial replay: re-deliver the proposal of the replica's last voted
  // round (the legitimate leader's own broadcast, captured via its core).
  const Round target = core.safety().voted_round();
  for (ReplicaId leader = 0; leader < 4; ++leader) {
    for (const auto& proposal : cluster.diem_core(leader).sent_proposals()) {
      if (proposal.block.round != target) continue;
      const auto frontier_before = core.vote_history().frontier();
      core.on_proposal(proposal);
      // No new vote: the frontier is untouched and r_vote did not move.
      EXPECT_EQ(core.vote_history().frontier(), frontier_before);
      EXPECT_EQ(core.safety().voted_round(), target);
    }
  }
  // And the replica still recovers liveness afterwards.
  const auto blocks_before = cluster.ledger(2).committed_blocks();
  cluster.run_for(seconds(5));
  EXPECT_GT(cluster.ledger(2).committed_blocks(), blocks_before);
}

// Restart before the first sync/snapshot: the replica comes back as a
// born-again fresh node (empty durable state) and must still rejoin safely
// via sync from genesis.
TEST(Recovery, RestartWithEmptyStoreSyncsFromGenesis) {
  auto config = small_cluster(Protocol::DiemBft, 4);
  config.faults.resize(4);
  // Crash before anything could possibly be synced (t = 1ms).
  config.faults[3] = FaultSpec::crash_restart(millis(1), seconds(4));
  Deployment cluster(config);
  cluster.start();
  ASSERT_NO_THROW(cluster.run_for(seconds(12)));
  EXPECT_GT(cluster.ledger(3).committed_blocks(), 5u);
  expect_prefix_agreement(cluster, 4);
}

}  // namespace
}  // namespace sftbft
