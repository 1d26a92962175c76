// The storage subsystem: backends (durability + torn-write semantics), the
// CRC-framed WAL (truncated tails, corrupt frames, double recovery, a
// randomized append/crash loop), and the ReplicaStore envelope round-trip
// with snapshot truncation.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "sftbft/common/codec.hpp"
#include "sftbft/storage/file_backend.hpp"
#include "sftbft/storage/mem_backend.hpp"
#include "sftbft/storage/replica_store.hpp"
#include "sftbft/storage/wal.hpp"

namespace sftbft::storage {
namespace {

Bytes bytes_of(std::initializer_list<std::uint8_t> list) { return Bytes(list); }

Bytes record_of(std::uint8_t tag, std::size_t size) {
  Bytes record(size, tag);
  return record;
}

// ---------------------------------------------------------------- MemBackend

TEST(MemBackend, AppendIsStagedUntilSync) {
  MemBackend backend(1);
  backend.append("wal", bytes_of({1, 2, 3}));
  EXPECT_EQ(backend.read("wal").size(), 3u);   // readable pre-sync...
  EXPECT_EQ(backend.durable("wal").size(), 0u);  // ...but not durable
  backend.sync("wal");
  EXPECT_EQ(backend.durable("wal").size(), 3u);
  EXPECT_EQ(backend.staged_bytes("wal"), 0u);
}

TEST(MemBackend, CrashKeepsTornPrefixOfUnsyncedTail) {
  MemBackend backend(7);
  backend.append("wal", bytes_of({1, 2}));
  backend.sync("wal");
  backend.append("wal", Bytes(100, 0xEE));
  backend.simulate_crash();
  const Bytes durable = backend.durable("wal");
  // Synced bytes always survive; the unsynced tail survives as a prefix of
  // length in [0, 100] chosen by the seeded RNG.
  ASSERT_GE(durable.size(), 2u);
  ASSERT_LE(durable.size(), 102u);
  EXPECT_EQ(durable[0], 1);
  EXPECT_EQ(durable[1], 2);
  for (std::size_t i = 2; i < durable.size(); ++i) {
    EXPECT_EQ(durable[i], 0xEE);
  }
}

TEST(MemBackend, CrashDropsStagedAtomicReplaceWholesale) {
  MemBackend backend(1);
  backend.write_atomic("snap", bytes_of({1}));
  backend.sync("snap");
  backend.write_atomic("snap", bytes_of({2, 2}));
  backend.simulate_crash();
  EXPECT_EQ(backend.read("snap"), bytes_of({1}));  // old contents, in full
}

// --------------------------------------------------------------- FileBackend

TEST(FileBackend, RoundTripAppendAtomicTruncate) {
  const auto root = std::filesystem::temp_directory_path() /
                    "sftbft_storage_test" /
                    std::to_string(::getpid());
  std::filesystem::remove_all(root);
  FileBackend backend(root);

  backend.append("r0/wal", bytes_of({1, 2, 3}));
  backend.append("r0/wal", bytes_of({4}));
  backend.sync("r0/wal");
  EXPECT_EQ(backend.read("r0/wal"), bytes_of({1, 2, 3, 4}));

  backend.write_atomic("r0/snapshot", bytes_of({9, 9}));
  backend.sync("r0/snapshot");
  EXPECT_EQ(backend.read("r0/snapshot"), bytes_of({9, 9}));
  backend.write_atomic("r0/snapshot", bytes_of({7}));
  EXPECT_EQ(backend.read("r0/snapshot"), bytes_of({7}));

  backend.truncate("r0/wal", 2);
  EXPECT_EQ(backend.read("r0/wal"), bytes_of({1, 2}));

  EXPECT_TRUE(backend.exists("r0/wal"));
  backend.remove("r0/wal");
  EXPECT_FALSE(backend.exists("r0/wal"));
  std::filesystem::remove_all(root);
}

TEST(FileBackend, WalReplaysAcrossBackendInstances) {
  const auto root = std::filesystem::temp_directory_path() /
                    "sftbft_storage_test_wal" /
                    std::to_string(::getpid());
  std::filesystem::remove_all(root);
  {
    FileBackend backend(root);
    Wal wal(backend, "wal");
    wal.append(bytes_of({1, 2, 3}));
    wal.append(bytes_of({4, 5}));
    wal.sync();
  }
  {
    FileBackend backend(root);  // a "new process"
    Wal wal(backend, "wal");
    const auto replayed = wal.replay();
    EXPECT_FALSE(replayed.torn_tail);
    EXPECT_FALSE(replayed.corrupt);
    ASSERT_EQ(replayed.records.size(), 2u);
    EXPECT_EQ(replayed.records[0], bytes_of({1, 2, 3}));
    EXPECT_EQ(replayed.records[1], bytes_of({4, 5}));
  }
  std::filesystem::remove_all(root);
}

// ----------------------------------------------------------------------- Wal

class WalTest : public ::testing::Test {
 protected:
  MemBackend backend_{42};
  Wal wal_{backend_, "wal"};
};

TEST_F(WalTest, AppendSyncReplayRoundTrip) {
  wal_.append(bytes_of({10, 20}));
  wal_.append(Bytes{});  // empty records are legal
  wal_.append(bytes_of({30}));
  wal_.sync();
  const auto replayed = wal_.replay();
  EXPECT_FALSE(replayed.torn_tail);
  EXPECT_FALSE(replayed.corrupt);
  ASSERT_EQ(replayed.records.size(), 3u);
  EXPECT_EQ(replayed.records[0], bytes_of({10, 20}));
  EXPECT_TRUE(replayed.records[1].empty());
  EXPECT_EQ(replayed.records[2], bytes_of({30}));
}

TEST_F(WalTest, TruncatedTailRecordIsDetectedAndRepaired) {
  wal_.append(bytes_of({1, 1, 1}));
  wal_.append(bytes_of({2, 2, 2, 2}));
  wal_.sync();
  // Chop into the middle of the second frame (header is 8 bytes + payload).
  backend_.chop("wal", 2);
  auto replayed = wal_.replay();
  EXPECT_TRUE(replayed.torn_tail);
  EXPECT_FALSE(replayed.corrupt);
  ASSERT_EQ(replayed.records.size(), 1u);
  EXPECT_EQ(replayed.records[0], bytes_of({1, 1, 1}));

  // Documented state after repair: the log is exactly the intact prefix and
  // accepts appends again.
  wal_.repair_tail(replayed);
  wal_.append(bytes_of({3}));
  wal_.sync();
  replayed = wal_.replay();
  EXPECT_FALSE(replayed.torn_tail);
  ASSERT_EQ(replayed.records.size(), 2u);
  EXPECT_EQ(replayed.records[1], bytes_of({3}));
}

TEST_F(WalTest, CorruptCrcMidLogStopsReplayCleanly) {
  wal_.append(bytes_of({1, 1}));
  wal_.append(bytes_of({2, 2}));
  wal_.append(bytes_of({3, 3}));
  wal_.sync();
  // Flip one payload byte of the *middle* record: frame 1 spans
  // [0, 10), frame 2's payload starts at 10 + 8.
  backend_.poke("wal", 10 + 8, 0xFF);
  const auto replayed = wal_.replay();
  EXPECT_TRUE(replayed.corrupt);
  EXPECT_FALSE(replayed.torn_tail);
  // Only the prefix before the corruption survives; framing past a corrupt
  // record is untrusted by design.
  ASSERT_EQ(replayed.records.size(), 1u);
  EXPECT_EQ(replayed.records[0], bytes_of({1, 1}));
  EXPECT_EQ(replayed.valid_bytes, 10u);
}

TEST_F(WalTest, DoubleRecoveryLandsInDocumentedState) {
  // recover -> write -> crash -> recover: every synced record must survive
  // both recoveries; the unsynced tail may partially survive as whole
  // records only.
  wal_.append(bytes_of({1}));
  wal_.sync();
  backend_.simulate_crash();  // nothing staged: no-op

  auto first = wal_.replay();
  ASSERT_EQ(first.records.size(), 1u);
  wal_.repair_tail(first);

  wal_.append(bytes_of({2}));
  wal_.sync();
  wal_.append(bytes_of({3}));  // never synced
  backend_.simulate_crash();   // may tear the {3} frame

  const auto second = wal_.replay();
  EXPECT_FALSE(second.corrupt);
  ASSERT_GE(second.records.size(), 2u);
  ASSERT_LE(second.records.size(), 3u);
  EXPECT_EQ(second.records[0], bytes_of({1}));
  EXPECT_EQ(second.records[1], bytes_of({2}));
  if (second.records.size() == 3) {
    EXPECT_EQ(second.records[2], bytes_of({3}));  // tail survived intact
  }
}

TEST_F(WalTest, ResetReplacesLogDurably) {
  wal_.append(bytes_of({1}));
  wal_.sync();
  wal_.reset({bytes_of({9, 9})});
  const auto replayed = wal_.replay();
  ASSERT_EQ(replayed.records.size(), 1u);
  EXPECT_EQ(replayed.records[0], bytes_of({9, 9}));
  EXPECT_EQ(backend_.staged_bytes("wal"), 0u);  // durable, not staged
}

TEST_F(WalTest, FuzzRandomizedAppendCrashLoop) {
  // Deterministic fuzz: random-size appends with random sync points and a
  // crash per round. Invariant: replay yields a prefix of the appended
  // sequence (all synced records, maybe some unsynced tail records),
  // byte-identical, with no corruption ever reported.
  Rng rng(0xF022);
  std::vector<Bytes> appended;
  std::size_t synced_count = 0;
  for (int round = 0; round < 200; ++round) {
    const int appends = static_cast<int>(rng.uniform(1, 4));
    for (int i = 0; i < appends; ++i) {
      const auto size = static_cast<std::size_t>(rng.uniform(0, 64));
      Bytes record = record_of(static_cast<std::uint8_t>(rng.uniform(0, 255)),
                               size);
      wal_.append(record);
      appended.push_back(std::move(record));
      if (rng.chance(0.5)) {
        wal_.sync();
        synced_count = appended.size();
      }
    }
    backend_.simulate_crash();

    const auto replayed = wal_.replay();
    ASSERT_FALSE(replayed.corrupt) << "round " << round;
    ASSERT_GE(replayed.records.size(), synced_count) << "round " << round;
    ASSERT_LE(replayed.records.size(), appended.size()) << "round " << round;
    for (std::size_t i = 0; i < replayed.records.size(); ++i) {
      ASSERT_EQ(replayed.records[i], appended[i]) << "round " << round;
    }
    // Converge the model: recovery repairs the tail, so the log now holds
    // exactly the replayed records.
    wal_.repair_tail(replayed);
    appended.resize(replayed.records.size());
    synced_count = appended.size();
  }
}

// -------------------------------------------------------------- ReplicaStore

types::QuorumCert qc_at_round(Round round) {
  types::QuorumCert qc;
  qc.round = round;
  qc.block_id.bytes[0] = static_cast<std::uint8_t>(round);
  qc.parent_round = round > 0 ? round - 1 : 0;
  return qc;
}

TEST(ReplicaStore, WalOnlyRecovery) {
  MemBackend backend(5);
  ReplicaStore store(backend, 0);
  store.record_vote({types::BlockId{}, 3, 0});  // timeout record
  types::BlockId voted;
  voted.bytes[0] = 0xAB;
  store.record_vote({voted, 5, 4});
  store.record_high_qc(qc_at_round(4));
  store.record_high_qc(qc_at_round(6));
  types::TimeoutCert tc;
  tc.round = 5;
  store.record_high_tc(tc);

  const RecoveredState state = store.recover();
  EXPECT_TRUE(state.found);
  EXPECT_EQ(state.voted_round, 5u);
  ASSERT_EQ(state.frontier.size(), 1u);  // the timeout record adds no entry
  EXPECT_EQ(state.frontier[0].block_id, voted);
  EXPECT_EQ(state.frontier[0].height, 4u);
  EXPECT_EQ(state.high_qc.round, 6u);
  // The lock watermark covers *every* recorded QC's parent round, not just
  // the highest QC's (qc_at_round(6) has parent_round 5).
  EXPECT_EQ(state.locked_round, 5u);
  ASSERT_TRUE(state.high_tc.has_value());
  EXPECT_EQ(state.high_tc->round, 5u);
  EXPECT_FALSE(state.tip.has_value());  // no snapshot yet
  EXPECT_EQ(state.wal_records, 5u);
}

TEST(ReplicaStore, LockedRoundSurvivesALowerParentHighQc) {
  // A timeout-borne high QC can have a *lower* parent round than an earlier
  // chain QC; the recovered lock must not regress with it (Fig. 2 locking
  // rule across restarts).
  MemBackend backend(5);
  ReplicaStore store(backend, 0);
  types::QuorumCert chain_qc = qc_at_round(5);
  chain_qc.parent_round = 4;
  store.record_high_qc(chain_qc);
  types::QuorumCert timeout_qc = qc_at_round(7);
  timeout_qc.parent_round = 3;  // certified after a fork/timeout mess
  store.record_high_qc(timeout_qc);

  const RecoveredState state = store.recover();
  EXPECT_EQ(state.high_qc.round, 7u);
  EXPECT_EQ(state.locked_round, 4u);  // from chain_qc, not high_qc
}

TEST(ReplicaStore, SnapshotTruncatesWalAndMergesOnRecovery) {
  MemBackend backend(5);
  ReplicaStore store(backend, 2);
  store.record_vote({types::BlockId{}, 1, 0});

  types::Block tip;
  tip.round = 9;
  tip.height = 4;
  tip.seal();
  chain::Ledger::Entry entry;
  entry.block_id = tip.id;
  entry.round = 9;
  entry.height = 4;
  entry.strength = 2;
  Envelope envelope;
  envelope.voted_round = 9;
  envelope.locked_round = 8;
  envelope.high_qc = qc_at_round(9);
  types::TimeoutCert snap_tc;
  snap_tc.round = 7;
  envelope.high_tc = snap_tc;
  store.write_snapshot(tip, {entry}, envelope);

  // The WAL restarted empty; records after the snapshot merge on top.
  EXPECT_EQ(Wal(backend, "r2/wal").replay().records.size(), 0u);
  types::BlockId later;
  later.bytes[0] = 0xCD;
  store.record_vote({later, 11, 5});

  const RecoveredState state = store.recover();
  ASSERT_TRUE(state.found);
  EXPECT_EQ(state.voted_round, 11u);  // WAL wins over snapshot (max)
  EXPECT_EQ(state.locked_round, 8u);
  ASSERT_TRUE(state.high_tc.has_value());  // TC survives WAL truncation
  EXPECT_EQ(state.high_tc->round, 7u);
  ASSERT_TRUE(state.tip.has_value());
  EXPECT_EQ(state.tip->id, tip.id);
  ASSERT_EQ(state.ledger.size(), 1u);
  EXPECT_EQ(state.ledger[0], entry);
  ASSERT_EQ(state.frontier.size(), 1u);
  EXPECT_EQ(state.frontier[0].block_id, later);
}

TEST(ReplicaStore, CommitRecordsKeepTheLargerTxnCount) {
  // A digest-mode commit can be recorded before its late batches arrive
  // (txn_count short) and re-recorded once they are credited. Recovery keeps
  // the larger count whatever the record order, and a strength raise
  // recorded from a short entry does not bring the short count back.
  const auto commit_at = [](Height height, std::uint32_t strength,
                            std::uint64_t txns) {
    chain::Ledger::Entry entry;
    entry.block_id.bytes[0] = static_cast<std::uint8_t>(height);
    entry.round = height;
    entry.height = height;
    entry.strength = strength;
    entry.txn_count = txns;
    return entry;
  };
  MemBackend backend(5);
  ReplicaStore store(backend, 0);
  store.record_commit(commit_at(1, 1, 0));    // short, then credited
  store.record_commit(commit_at(1, 1, 320));
  store.record_commit(commit_at(2, 1, 320));  // credited, then short
  store.record_commit(commit_at(2, 1, 0));
  store.record_commit(commit_at(3, 1, 320));  // raise from a short entry
  store.record_commit(commit_at(3, 2, 0));
  store.record_commit(commit_at(4, 1, 0));    // raise after the credit
  store.record_commit(commit_at(4, 2, 320));

  RecoveredState state = store.recover();
  ASSERT_EQ(state.ledger.size(), 4u);
  for (const chain::Ledger::Entry& entry : state.ledger) {
    EXPECT_EQ(entry.txn_count, 320u) << "height " << entry.height;
  }
  EXPECT_EQ(state.ledger[0].strength, 1u);
  EXPECT_EQ(state.ledger[2].strength, 2u);
  EXPECT_EQ(state.ledger[3].strength, 2u);

  // The same holds for a snapshot entry with a short WAL raise on top.
  ReplicaStore snapped(backend, 1);
  types::Block tip;
  tip.height = 5;
  tip.seal();
  snapped.write_snapshot(tip, {commit_at(5, 1, 320)}, Envelope{});
  snapped.record_commit(commit_at(5, 2, 0));
  state = snapped.recover();
  ASSERT_EQ(state.ledger.size(), 1u);
  EXPECT_EQ(state.ledger[0].strength, 2u);
  EXPECT_EQ(state.ledger[0].txn_count, 320u);
}

TEST(ReplicaStore, VoteRecordsSyncImmediatelyDespiteBatching) {
  // WAL-before-wire: even with watermark batching (wal_sync_every > 1), a
  // vote record must be durable the moment record_vote returns — a crash
  // right after sending the vote must never forget it (equivocation fence).
  MemBackend backend(3, MemBackend::Config{.torn_tail = false});
  ReplicaStore store(backend, 0, StoreConfig{.wal_sync_every = 100});
  store.record_high_qc(qc_at_round(3));  // staged (batched watermark)
  types::BlockId voted;
  voted.bytes[0] = 0x11;
  store.record_vote({voted, 4, 2});  // must flush everything staged so far
  store.simulate_crash();
  const RecoveredState state = store.recover();
  EXPECT_EQ(state.voted_round, 4u);
  EXPECT_EQ(state.high_qc.round, 3u);  // flushed along with the vote
}

TEST(ReplicaStore, SnapshotDueFollowsCadence) {
  MemBackend backend(1);
  ReplicaStore store(backend, 0, StoreConfig{.snapshot_interval_blocks = 10});
  EXPECT_FALSE(store.snapshot_due(9));
  EXPECT_TRUE(store.snapshot_due(10));
  ReplicaStore never(backend, 1, StoreConfig{.snapshot_interval_blocks = 0});
  EXPECT_FALSE(never.snapshot_due(1'000'000));
}

TEST(ReplicaStore, CrashBeforeAnySyncRecoversEmpty) {
  // Watermark records (QCs) honour the sync batching — staged-only records
  // are gone after a crash and recovery reports an empty store. (Vote
  // records are exempt from batching; see the test below.)
  MemBackend backend(3, MemBackend::Config{.torn_tail = false});
  ReplicaStore store(backend, 0, StoreConfig{.wal_sync_every = 100});
  store.record_high_qc(qc_at_round(7));  // staged, never synced
  store.simulate_crash();
  const RecoveredState state = store.recover();
  EXPECT_FALSE(state.found);
  EXPECT_EQ(state.high_qc.round, 0u);
}

TEST(ReplicaStore, TornWalTailIsRepairedOnRecover) {
  MemBackend backend(11);
  ReplicaStore store(backend, 0);
  store.record_vote({types::BlockId{}, 2, 0});
  // Tear the durable tail directly (media fault past the last sync).
  backend.chop("r0/wal", 3);
  const RecoveredState state = store.recover();
  EXPECT_TRUE(state.wal_torn_tail);
  EXPECT_FALSE(state.found);
  // Post-repair, the store accepts and recovers new records.
  store.record_vote({types::BlockId{}, 4, 0});
  EXPECT_EQ(store.recover().voted_round, 4u);
}

}  // namespace
}  // namespace sftbft::storage
