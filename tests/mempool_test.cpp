// Mempool + workload generation: batching, in-flight tracking, requeue.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sftbft/mempool/mempool.hpp"

namespace sftbft::mempool {
namespace {

types::Transaction txn(std::uint64_t id) {
  return {.id = id, .submitted_at = 0, .size_bytes = 450};
}

TEST(Mempool, BatchTakesOldestFirst) {
  Mempool pool;
  for (std::uint64_t i = 0; i < 10; ++i) pool.submit(txn(i));
  const types::Payload batch = pool.make_batch(4);
  ASSERT_EQ(batch.txns.size(), 4u);
  EXPECT_EQ(batch.txns[0].id, 0u);
  EXPECT_EQ(batch.txns[3].id, 3u);
  EXPECT_EQ(pool.pending(), 6u);
  EXPECT_EQ(pool.in_flight(), 4u);
}

TEST(Mempool, BatchSmallerWhenPoolLow) {
  Mempool pool;
  pool.submit(txn(1));
  EXPECT_EQ(pool.make_batch(100).txns.size(), 1u);
  EXPECT_TRUE(pool.make_batch(100).txns.empty());
}

TEST(Mempool, CommittedBatchLeavesInFlight) {
  Mempool pool;
  for (std::uint64_t i = 0; i < 5; ++i) pool.submit(txn(i));
  const types::Payload batch = pool.make_batch(5);
  pool.mark_committed(batch);
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(Mempool, RequeueReturnsTxns) {
  Mempool pool;
  for (std::uint64_t i = 0; i < 5; ++i) pool.submit(txn(i));
  const types::Payload batch = pool.make_batch(3);
  pool.requeue(batch);
  EXPECT_EQ(pool.pending(), 5u);
  EXPECT_EQ(pool.in_flight(), 0u);
  // Requeued txns can be batched again.
  EXPECT_EQ(pool.make_batch(5).txns.size(), 5u);
}

TEST(Mempool, RequeueAfterCommitIsNoop) {
  Mempool pool;
  pool.submit(txn(1));
  const types::Payload batch = pool.make_batch(1);
  pool.mark_committed(batch);
  pool.requeue(batch);  // already committed: nothing to return
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(Mempool, SubmitDedupsById) {
  Mempool pool;
  EXPECT_EQ(pool.submit(txn(7)), Mempool::Admit::kAccepted);
  EXPECT_EQ(pool.submit(txn(7)), Mempool::Admit::kDuplicate);
  EXPECT_EQ(pool.pending(), 1u);
  // Still a duplicate while the txn is in flight...
  const types::Payload batch = pool.make_batch(1);
  EXPECT_EQ(pool.submit(txn(7)), Mempool::Admit::kDuplicate);
  // ...and after it committed (the bounded committed window).
  pool.mark_committed(batch);
  EXPECT_EQ(pool.submit(txn(7)), Mempool::Admit::kDuplicate);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(Mempool, RequeuedTxnStaysDeduped) {
  Mempool pool;
  pool.submit(txn(3));
  const types::Payload batch = pool.make_batch(1);
  pool.requeue(batch);
  EXPECT_EQ(pool.submit(txn(3)), Mempool::Admit::kDuplicate);
  EXPECT_EQ(pool.pending(), 1u);
}

TEST(Mempool, BoundedCapacityBackpressure) {
  Mempool pool;
  pool.set_capacity(3);
  EXPECT_EQ(pool.submit(txn(0)), Mempool::Admit::kAccepted);
  EXPECT_EQ(pool.submit(txn(1)), Mempool::Admit::kAccepted);
  EXPECT_EQ(pool.submit(txn(2)), Mempool::Admit::kAccepted);
  EXPECT_EQ(pool.submit(txn(3)), Mempool::Admit::kFull);
  EXPECT_EQ(pool.pending(), 3u);
  // Draining the queue (even into in-flight) frees capacity: the bound is
  // on the pending backlog, not on total outstanding work.
  (void)pool.make_batch(2);
  EXPECT_EQ(pool.submit(txn(3)), Mempool::Admit::kAccepted);
  // Duplicate check runs before the capacity check — a retry of a queued
  // txn must not read as backpressure.
  EXPECT_EQ(pool.submit(txn(3)), Mempool::Admit::kDuplicate);
}

TEST(Mempool, CapacityZeroIsUnbounded) {
  Mempool pool;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(pool.submit(txn(i)), Mempool::Admit::kAccepted);
  }
  EXPECT_EQ(pool.pending(), 5000u);
}

// Commits `ids` the way a replica commits a foreign block: none of them
// was ever pending here.
void commit(Mempool& pool, std::uint64_t first, std::size_t count) {
  types::Payload payload;
  for (std::size_t i = 0; i < count; ++i) payload.txns.push_back(txn(first + i));
  pool.mark_committed(payload);
}

TEST(Mempool, CommittedWindowForgetsAfterKDistinctCommits) {
  constexpr std::size_t kWindow = Mempool::kCommittedMemory;
  constexpr std::uint64_t kX = 7;
  Mempool pool;
  commit(pool, kX, 1);
  commit(pool, 1000, kWindow - 1);
  // X is the oldest of exactly kWindow remembered ids: still a duplicate.
  EXPECT_EQ(pool.submit(txn(kX)), Mempool::Admit::kDuplicate);
  commit(pool, 1000 + kWindow - 1, 1);
  // One more distinct commit evicts it: admissible again.
  EXPECT_EQ(pool.submit(txn(kX)), Mempool::Admit::kAccepted);
  EXPECT_EQ(pool.pending(), 1u);
}

TEST(Mempool, RecommitInWindowNeitherDuplicatesNorRefreshes) {
  constexpr std::size_t kWindow = Mempool::kCommittedMemory;
  constexpr std::uint64_t kX = 7;
  constexpr std::uint64_t kY = 8;
  Mempool pool;
  commit(pool, kX, 1);
  commit(pool, kY, 1);
  commit(pool, 1000, kWindow - 2);
  // Re-committing ids already in the window is a no-op: no refresh of X
  // (it stays oldest) and no second entry for Y (which would delay the
  // eviction point of everything behind it).
  for (int i = 0; i < 3; ++i) {
    commit(pool, kX, 1);
    commit(pool, kY, 1);
    commit(pool, 1000, 5);
  }
  EXPECT_EQ(pool.submit(txn(kX)), Mempool::Admit::kDuplicate);
  EXPECT_EQ(pool.submit(txn(kY)), Mempool::Admit::kDuplicate);
  commit(pool, 1000 + kWindow, 1);
  EXPECT_EQ(pool.submit(txn(kX)), Mempool::Admit::kAccepted);
  EXPECT_EQ(pool.submit(txn(kY)), Mempool::Admit::kDuplicate);
  commit(pool, 1000 + kWindow + 1, 1);
  EXPECT_EQ(pool.submit(txn(kY)), Mempool::Admit::kAccepted);
  EXPECT_EQ(pool.pending(), 2u);
}

TEST(Mempool, ExtremeIdsAreOrdinaryIds) {
  // No id value is reserved as an empty-slot marker.
  for (const std::uint64_t id : {std::uint64_t{0}, ~std::uint64_t{0}}) {
    Mempool pool;
    EXPECT_EQ(pool.submit(txn(id)), Mempool::Admit::kAccepted);
    EXPECT_EQ(pool.submit(txn(id)), Mempool::Admit::kDuplicate);
    const types::Payload batch = pool.make_batch(1);
    ASSERT_EQ(batch.txns.size(), 1u);
    EXPECT_EQ(pool.in_flight(), 1u);
    pool.requeue(batch);
    EXPECT_EQ(pool.in_flight(), 0u);
    pool.mark_committed(pool.make_batch(1));
    EXPECT_EQ(pool.in_flight(), 0u);
    EXPECT_EQ(pool.submit(txn(id)), Mempool::Admit::kDuplicate);
    commit(pool, 1000, Mempool::kCommittedMemory);
    EXPECT_EQ(pool.submit(txn(id)), Mempool::Admit::kAccepted);
  }
}

TEST(Workload, TopUpFillsToTarget) {
  sim::Scheduler sched;
  Mempool pool;
  WorkloadGenerator gen(sched, pool,
                        {.mean_interarrival = 0, .target_pool_size = 50},
                        Rng(1));
  gen.top_up();
  EXPECT_EQ(pool.pending(), 50u);
}

TEST(Workload, PoissonArrivalsRespectTarget) {
  sim::Scheduler sched;
  Mempool pool;
  WorkloadGenerator gen(
      sched, pool,
      {.mean_interarrival = millis(1), .target_pool_size = 20}, Rng(2));
  gen.start();
  sched.run_for(seconds(1));
  EXPECT_LE(pool.pending(), 20u);
  EXPECT_GT(pool.pending(), 0u);
}

TEST(Workload, IdSpacesDisjoint) {
  sim::Scheduler sched;
  Mempool pool_a, pool_b;
  WorkloadGenerator gen_a(sched, pool_a, {.target_pool_size = 10}, Rng(1));
  WorkloadGenerator gen_b(sched, pool_b, {.target_pool_size = 10}, Rng(1));
  gen_a.set_id_space(1);
  gen_b.set_id_space(2);
  gen_a.top_up();
  gen_b.top_up();
  const auto batch_a = pool_a.make_batch(10);
  const auto batch_b = pool_b.make_batch(10);
  for (const auto& ta : batch_a.txns) {
    for (const auto& tb : batch_b.txns) EXPECT_NE(ta.id, tb.id);
  }
}

TEST(Workload, IdLayoutRejectsAliasingFields) {
  constexpr std::uint64_t kSeqEnd = std::uint64_t{1} << 40;
  constexpr std::uint64_t kSpaceEnd = std::uint64_t{1} << 24;
  EXPECT_EQ(txn_id(kSpaceEnd - 1, kSeqEnd - 1), ~std::uint64_t{0});
  EXPECT_EQ(txn_id(0, 0), 0u);
  // A 2^40th sequence number would carry into the next space's ids.
  EXPECT_THROW((void)txn_id(3, kSeqEnd), std::overflow_error);
  // A space past 24 bits would be shifted out of the id.
  EXPECT_THROW((void)txn_id(kSpaceEnd, 0), std::invalid_argument);

  sim::Scheduler sched;
  Mempool pool;
  WorkloadGenerator gen(sched, pool, {.target_pool_size = 1}, Rng(1));
  EXPECT_THROW(gen.set_id_space(kSpaceEnd), std::invalid_argument);
  gen.set_id_space(kSpaceEnd - 1);
  gen.top_up();
  EXPECT_EQ(pool.make_batch(1).txns.at(0).id, (kSpaceEnd - 1) << 40);
}

}  // namespace
}  // namespace sftbft::mempool
