// sftbft::dissem — the dissemination data plane, unit by unit, plus an
// end-to-end digest-mode deployment smoke: batches are content-addressed
// (tampering is detected), the BatchStore's proposable state machine dedups
// commits across forks, the DataPlane's push/pull protocol moves batches
// between replicas over the real transport, the AdmissionFrontend enforces
// dedup / rate limits / backpressure, and a digest-mode run commits real
// transactions with proposal frames a fraction of the inline-mode size.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sftbft/dissem/admission.hpp"
#include "sftbft/dissem/batch.hpp"
#include "sftbft/dissem/batch_store.hpp"
#include "sftbft/dissem/plane.hpp"
#include "sftbft/harness/scenario.hpp"
#include "sftbft/net/sim_transport.hpp"

namespace sftbft::dissem {
namespace {

types::Transaction txn(std::uint64_t id, std::uint32_t size = 100) {
  return {.id = id, .submitted_at = 0, .size_bytes = size};
}

Batch make_batch(ReplicaId creator, std::uint64_t seq,
                 std::initializer_list<std::uint64_t> ids) {
  Batch batch;
  batch.creator = creator;
  batch.seq = seq;
  for (const std::uint64_t id : ids) batch.txns.push_back(txn(id));
  batch.seal();
  return batch;
}

// ------------------------------------------------------------------ Batch

TEST(Batch, DigestBindsContents) {
  const Batch batch = make_batch(1, 0, {1, 2, 3});
  EXPECT_TRUE(batch.digest_is_valid());

  // Same txns, different creator/seq: different content address.
  EXPECT_NE(batch.digest, make_batch(2, 0, {1, 2, 3}).digest);
  EXPECT_NE(batch.digest, make_batch(1, 1, {1, 2, 3}).digest);

  // Tampering with a transaction under the old digest is detectable.
  Batch tampered = batch;
  tampered.txns[0].id = 99;
  EXPECT_FALSE(tampered.digest_is_valid());
}

TEST(Batch, RoundTripsThroughCanonicalCodec) {
  const Batch batch = make_batch(3, 7, {10, 11, 12});
  Encoder enc;
  batch.encode(enc);
  Decoder dec(enc.data());
  const Batch back = Batch::decode(dec);
  EXPECT_EQ(back, batch);
  EXPECT_TRUE(back.digest_is_valid());
  // Bodies are synthetic: the wire form carries them, the decoded form is
  // compact, and re-encoding regenerates identical bytes.
  Encoder again;
  back.encode(again);
  EXPECT_EQ(again.data(), enc.data());
}

// ------------------------------------------------------------- BatchStore

TEST(BatchStore, ProposableStateMachine) {
  BatchStore store;
  const Batch a = make_batch(0, 0, {1});
  const Batch b = make_batch(0, 1, {2});
  EXPECT_TRUE(store.add(a));
  EXPECT_FALSE(store.add(a));  // idempotent by digest
  EXPECT_TRUE(store.add(b));
  EXPECT_EQ(store.proposable(), 2u);

  // make_payload drains oldest-first and marks the batches Proposed.
  const types::Payload p = store.make_payload(1, /*now=*/0, seconds(2));
  ASSERT_TRUE(p.is_digests());
  ASSERT_EQ(p.batch_digests.size(), 1u);
  EXPECT_EQ(p.batch_digests[0], a.digest);
  EXPECT_EQ(store.proposable(), 1u);

  // A timed-out proposal requeues its batches...
  store.requeue(p);
  EXPECT_EQ(store.proposable(), 2u);
  // ...and a stale Proposed reference becomes proposable again on its own
  // after repropose_after (the leader that named it evidently failed).
  const types::Payload p2 = store.make_payload(2, /*now=*/0, seconds(2));
  EXPECT_EQ(store.proposable(), 0u);
  const types::Payload p3 =
      store.make_payload(2, /*now=*/seconds(3), seconds(2));
  EXPECT_EQ(p3.batch_digests.size(), 2u);
  (void)p2;
}

TEST(BatchStore, ObserveReferenceParksBatchesProposed) {
  // Seeing another leader's proposal reference a batch must stop this
  // replica from re-proposing it while that proposal is in flight.
  BatchStore store;
  const Batch a = make_batch(1, 0, {5});
  store.add(a);
  store.observe_reference(types::Payload::referencing({a.digest}), 0);
  EXPECT_EQ(store.proposable(), 0u);
}

TEST(BatchStore, CommitResolutionDedupsAcrossForks) {
  BatchStore store;
  const Batch a = make_batch(0, 0, {1, 2});
  const Batch b = make_batch(0, 1, {3});
  store.add(a);
  store.add(b);

  // Two competing blocks referenced batch `a`; its txns count exactly once.
  std::vector<crypto::Sha256Digest> missing;
  const auto first = store.resolve_committed(
      types::Payload::referencing({a.digest, b.digest}), missing);
  EXPECT_EQ(first.size(), 3u);
  EXPECT_TRUE(missing.empty());
  const auto second = store.resolve_committed(
      types::Payload::referencing({a.digest}), missing);
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(store.committed_batches(), 2u);
}

TEST(BatchStore, LateBatchForCommittedDigestFilesAsCommitted) {
  // Block-sync path: the ordering can commit a digest before the bytes
  // arrive. The resolution reports it missing; when the pull completes, the
  // batch must go straight to Committed (never re-proposed).
  BatchStore store;
  const Batch late = make_batch(2, 9, {42});
  std::vector<crypto::Sha256Digest> missing;
  const auto txns = store.resolve_committed(
      types::Payload::referencing({late.digest}), missing);
  EXPECT_TRUE(txns.empty());
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], late.digest);

  EXPECT_TRUE(store.add(late));
  EXPECT_EQ(store.proposable(), 0u);
  EXPECT_EQ(store.committed_batches(), 1u);
  // Re-resolving is a no-op (the digest is already counted).
  std::vector<crypto::Sha256Digest> missing2;
  EXPECT_TRUE(store
                  .resolve_committed(
                      types::Payload::referencing({late.digest}), missing2)
                  .empty());
  EXPECT_TRUE(missing2.empty());
}

// ----------------------------------------------------- DataPlane push/pull

/// One replica's digest-side data plane with no client traffic of its own:
/// tests feed its mempool by hand.
struct Node {
  std::unique_ptr<DataPlane> plane;
  std::uint32_t arrivals = 0;

  void wire(ReplicaId id, net::SimTransport& transport, DissemConfig config,
            DataPlane::Options options = {}) {
    config.enabled = true;
    plane = std::make_unique<DataPlane>(
        id, transport, mempool::WorkloadConfig{.target_pool_size = 0}, Rng(id),
        config, options, [this] { ++arrivals; });
    transport.set_handler(id, [this](const net::Envelope& env, std::size_t) {
      plane->demux(env);
    });
  }
};

TEST(DataPlane, PacksAndPushesToAllPeers) {
  sim::Scheduler sched;
  net::SimTransport transport(sched, net::Topology::uniform(3, millis(1)),
                              {}, 1);
  DissemConfig config;
  config.batch_max_txns = 4;
  Node nodes[3];
  for (ReplicaId id = 0; id < 3; ++id) nodes[id].wire(id, transport, config);

  for (std::uint64_t i = 0; i < 6; ++i) {
    nodes[0].plane->mempool().submit(txn(i));
  }
  nodes[0].plane->start();
  sched.run_for(millis(100));

  // Two batches (4 + 2 txns) packed and replicated to both peers.
  for (const Node& node : nodes) EXPECT_EQ(node.plane->store().size(), 2u);
  EXPECT_EQ(nodes[1].arrivals, 2u);
  EXPECT_EQ(transport.stats().for_type("batch_push").count, 4u);
}

TEST(DataPlane, PullRecoversWithheldBatch) {
  // Replica 0 packs but never pushes (the BatchWithholder posture). A peer
  // that learns the digest pulls it: request goes out, the withholder still
  // serves the pull, the arrival callback fires.
  sim::Scheduler sched;
  net::SimTransport transport(sched, net::Topology::uniform(3, millis(1)),
                              {}, 2);
  DissemConfig config;
  config.pull_fanout = 2;
  config.pull_retry = millis(50);
  Node nodes[3];
  nodes[0].wire(0, transport, config, {.withhold_push = true});
  nodes[1].wire(1, transport, config);
  nodes[2].wire(2, transport, config);

  for (std::uint64_t i = 0; i < 3; ++i) {
    nodes[0].plane->mempool().submit(txn(i));
  }
  nodes[0].plane->start();
  sched.run_for(millis(50));
  ASSERT_EQ(nodes[0].plane->store().size(), 1u);
  ASSERT_EQ(nodes[1].plane->store().size(), 0u);  // withheld

  // A proposal referencing the batch: replica 1 cannot vote on it yet.
  const types::Payload payload = nodes[0].plane->make_payload(0);
  ASSERT_EQ(payload.batch_digests.size(), 1u);
  EXPECT_FALSE(nodes[1].plane->available(payload));
  nodes[1].plane->fetch(payload);
  sched.run_for(millis(500));

  EXPECT_TRUE(nodes[1].plane->store().has(payload.batch_digests[0]));
  EXPECT_TRUE(nodes[1].plane->available(payload));
  EXPECT_GE(nodes[1].arrivals, 1u);
  const std::uint64_t requests = transport.stats().for_type("batch_req").count;
  EXPECT_GT(requests, 0u);
  EXPECT_GT(transport.stats().for_type("batch_resp").count, 0u);

  // The arrival settled the pull: no digest is left wanted, so further
  // watchdog periods send no more requests.
  sched.run_for(config.pull_retry * 5);
  EXPECT_EQ(transport.stats().for_type("batch_req").count, requests);
}

TEST(DataPlane, TamperedBatchIsRejected) {
  sim::Scheduler sched;
  net::SimTransport transport(sched, net::Topology::uniform(2, millis(1)),
                              {}, 3);
  DissemConfig config;
  Node nodes[2];
  nodes[0].wire(0, transport, config);
  nodes[1].wire(1, transport, config);

  Batch forged = make_batch(0, 0, {1, 2});
  forged.txns[0].id = 77;  // bytes no longer match the content address
  transport.send(1, net::Envelope::pack(net::WireType::kBatchPush, 0,
                                        BatchPush{forged}));
  sched.run_until_idle();
  EXPECT_EQ(nodes[1].plane->store().size(), 0u);
  EXPECT_EQ(nodes[1].arrivals, 0u);
}

TEST(DataPlane, InlineSideRejectsBatchFrames) {
  // The digest side is off: a batch frame is a payload this replica cannot
  // parse, and every payload stays available (votes never wait on data).
  sim::Scheduler sched;
  net::SimTransport transport(sched, net::Topology::uniform(2, millis(1)),
                              {}, 4);
  DataPlane plane(0, transport, {}, Rng(0), DissemConfig{}, {}, {});
  EXPECT_FALSE(plane.gates_votes());
  EXPECT_THROW(plane.demux(net::Envelope::pack(
                   net::WireType::kBatchPush, 1,
                   BatchPush{make_batch(1, 0, {1})})),
               CodecError);
  const types::Payload digests =
      types::Payload::referencing({make_batch(1, 0, {1}).digest});
  EXPECT_TRUE(plane.available(digests));
}

// -------------------------------------------------------- AdmissionFrontend

TEST(AdmissionFrontend, DedupsRetriesPerClient) {
  mempool::Mempool pool;
  DissemConfig config;
  config.client_dedup_window = 4;
  AdmissionFrontend frontend(pool, config);

  EXPECT_EQ(frontend.submit(1, txn(10), 0), AdmissionFrontend::Outcome::kAdmitted);
  // The client retries (timeout on its side): rejected, not double-queued.
  EXPECT_EQ(frontend.submit(1, txn(10), 0),
            AdmissionFrontend::Outcome::kDuplicate);
  EXPECT_EQ(pool.pending(), 1u);
  EXPECT_EQ(frontend.stats().duplicates, 1u);
}

// Commits everything pending, then pushes a full committed window of
// foreign ids through the pool, so the mempool no longer remembers any of
// this client's ids and only the frontend's per-client window decides.
void forget_in_mempool(mempool::Mempool& pool) {
  pool.mark_committed(pool.make_batch(pool.pending()));
  types::Payload flood;
  for (std::uint64_t i = 0; i < mempool::Mempool::kCommittedMemory; ++i) {
    flood.txns.push_back(txn((std::uint64_t{1} << 50) + i));
  }
  pool.mark_committed(flood);
}

TEST(AdmissionFrontend, ClientWindowEvictsFifo) {
  mempool::Mempool pool;
  DissemConfig config;
  config.client_dedup_window = 3;
  AdmissionFrontend frontend(pool, config);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_EQ(frontend.submit(1, txn(id), 0),
              AdmissionFrontend::Outcome::kAdmitted);
  }
  forget_in_mempool(pool);
  // The window holds the last three admissions {2, 3, 4}; 1 was evicted.
  for (const std::uint64_t id : {4, 3, 2}) {
    EXPECT_EQ(frontend.submit(1, txn(id), 0),
              AdmissionFrontend::Outcome::kDuplicate);
  }
  EXPECT_EQ(frontend.submit(1, txn(1), 0), AdmissionFrontend::Outcome::kAdmitted);
  // Re-admitting 1 pushed out the oldest entry, 2, and nothing else.
  forget_in_mempool(pool);
  EXPECT_EQ(frontend.submit(1, txn(3), 0), AdmissionFrontend::Outcome::kDuplicate);
  EXPECT_EQ(frontend.submit(1, txn(2), 0), AdmissionFrontend::Outcome::kAdmitted);
  // Windows are per client.
  EXPECT_EQ(frontend.submit(2, txn(4), 0), AdmissionFrontend::Outcome::kAdmitted);
}

TEST(AdmissionFrontend, ZeroClientWindowRemembersNothing) {
  mempool::Mempool pool;
  DissemConfig config;
  config.client_dedup_window = 0;
  AdmissionFrontend frontend(pool, config);
  EXPECT_EQ(frontend.submit(1, txn(5), 0), AdmissionFrontend::Outcome::kAdmitted);
  // Still pending: the mempool's own dedup rejects the retry.
  EXPECT_EQ(frontend.submit(1, txn(5), 0),
            AdmissionFrontend::Outcome::kDuplicate);
  forget_in_mempool(pool);
  EXPECT_EQ(frontend.submit(1, txn(5), 0), AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.stats().admitted, 2u);
  EXPECT_EQ(frontend.stats().duplicates, 1u);
}

TEST(AdmissionFrontend, RateLimitsPerClientPerSecond) {
  mempool::Mempool pool;
  DissemConfig config;
  config.client_rate_limit = 2;
  AdmissionFrontend frontend(pool, config);

  EXPECT_EQ(frontend.submit(7, txn(1), 0), AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.submit(7, txn(2), 0), AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.submit(7, txn(3), 0),
            AdmissionFrontend::Outcome::kRateLimited);
  // Another client has its own bucket.
  EXPECT_EQ(frontend.submit(8, txn(4), 0), AdmissionFrontend::Outcome::kAdmitted);
  // The window rolls over after a second.
  EXPECT_EQ(frontend.submit(7, txn(5), seconds(1)),
            AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.stats().rate_limited, 1u);
}

TEST(AdmissionFrontend, BackpressuresOnFullMempool) {
  mempool::Mempool pool;
  DissemConfig config;
  config.mempool_capacity = 2;
  AdmissionFrontend frontend(pool, config);
  pool.set_capacity(config.mempool_capacity);

  EXPECT_EQ(frontend.submit(1, txn(1), 0), AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.submit(1, txn(2), 0), AdmissionFrontend::Outcome::kAdmitted);
  EXPECT_EQ(frontend.submit(1, txn(3), 0),
            AdmissionFrontend::Outcome::kBackpressure);
  EXPECT_EQ(frontend.stats().backpressured, 1u);
  // Consensus drains the pool; the retry now lands.
  (void)pool.make_batch(2);
  EXPECT_EQ(frontend.submit(1, txn(3), 0), AdmissionFrontend::Outcome::kAdmitted);
}

TEST(ClientSwarm, KeepsBacklogSaturated) {
  sim::Scheduler sched;
  mempool::Mempool pool;
  DissemConfig config;
  config.clients = 8;
  config.batch_interval = millis(10);
  AdmissionFrontend frontend(pool, config);
  ClientSwarm swarm(sched, frontend,
                    {.mean_interarrival = 0, .target_pool_size = 40}, config,
                    Rng(5));
  swarm.set_id_space(3);
  swarm.start();
  sched.run_for(millis(5));
  EXPECT_EQ(pool.pending(), 40u);

  // Consensus keeps draining; the swarm refills on its cadence.
  (void)pool.make_batch(40);
  sched.run_for(millis(50));
  EXPECT_EQ(pool.pending(), 40u);
  EXPECT_EQ(frontend.stats().admitted, swarm.submitted());
  swarm.stop();
}

TEST(ClientSwarm, IdLayoutFailsLoudlyInsteadOfAliasing) {
  constexpr std::uint64_t kSeqEnd = std::uint64_t{1} << kClientSeqBits;
  EXPECT_EQ(kMaxClients, 1u << 14);
  EXPECT_EQ(client_txn_id(2, kMaxClients - 1, kSeqEnd - 1),
            (std::uint64_t{3} << 40) - 1);
  // The 2^26th id of client c would be id 0 of client c + 1.
  EXPECT_THROW((void)client_txn_id(2, 5, kSeqEnd), std::overflow_error);
  // Client 2^14 would be client 0 of the next replica's space.
  EXPECT_THROW((void)client_txn_id(2, kMaxClients, 0), std::invalid_argument);
  EXPECT_THROW((void)client_txn_id(std::uint64_t{1} << 24, 0, 0),
               std::invalid_argument);

  sim::Scheduler sched;
  mempool::Mempool pool;
  DissemConfig config;
  AdmissionFrontend frontend(pool, config);
  const mempool::WorkloadConfig workload{.target_pool_size = 4};
  config.clients = static_cast<std::uint32_t>(kMaxClients) + 1;
  EXPECT_THROW(ClientSwarm(sched, frontend, workload, config, Rng(1)),
               std::invalid_argument);
  config.clients = static_cast<std::uint32_t>(kMaxClients);
  ClientSwarm swarm(sched, frontend, workload, config, Rng(1));
  EXPECT_THROW(swarm.set_id_space(std::uint64_t{1} << 24),
               std::invalid_argument);
  swarm.set_id_space(7);
  swarm.top_up();
  const types::Payload batch = pool.make_batch(4);
  ASSERT_EQ(batch.txns.size(), 4u);
  EXPECT_EQ(batch.txns[3].id, client_txn_id(7, 3, 0));
}

// ----------------------------------------------------- end-to-end (smoke)

TEST(Dissemination, DigestModeDeploymentCommitsRealTransactions) {
  // One scenario, run inline and digest-mode: both commit, and digest-mode
  // proposal frames are a small fraction of the inline (block-sized) ones
  // while committed txns flow through the BatchStore resolution path.
  harness::Scenario s;
  s.protocol = engine::Protocol::DiemBft;
  s.n = 4;
  s.topo = harness::Scenario::Topo::Uniform;
  s.delta = millis(10);
  s.jitter = millis(2);
  s.jitter_frac = 0;
  s.leader_processing = millis(5);
  s.base_timeout = millis(500);
  s.max_batch = 100;
  s.txn_size_bytes = 450;
  s.duration = seconds(10);
  s.warmup = seconds(1);
  s.tail = seconds(2);
  s.seed = 11;
  // Sustained arrivals: without them the legacy one-shot top-up drains
  // after ~4 blocks and inline proposals degenerate to empty payloads,
  // which would make the size comparison below meaningless.
  s.mean_interarrival = micros(100);

  const harness::ScenarioResult inline_run = run_scenario(s);

  s.dissemination = true;
  s.dissem.batch_max_txns = 100;
  s.dissem.batch_interval = millis(20);
  const harness::ScenarioResult digest_run = run_scenario(s);

  ASSERT_GT(inline_run.summary.committed_txns, 0u);
  ASSERT_GT(digest_run.summary.committed_txns, 0u);

  const auto mean_bytes = [](const net::MessageStats::TypeStats& t) {
    return t.count == 0 ? 0.0
                        : static_cast<double>(t.bytes) /
                              static_cast<double>(t.count);
  };
  const double inline_prop =
      mean_bytes(inline_run.traffic_by_type.at("proposal"));
  const double digest_prop =
      mean_bytes(digest_run.traffic_by_type.at("proposal"));
  EXPECT_LT(digest_prop, inline_prop / 10.0)
      << "digest proposals " << digest_prop << "B vs inline " << inline_prop;

  // The egress accounting (satellite): per-replica totals exist and their
  // max matches the reported bound.
  ASSERT_FALSE(digest_run.egress_by_replica.empty());
  std::uint64_t max = 0;
  for (const std::uint64_t bytes : digest_run.egress_by_replica) {
    max = std::max(max, bytes);
  }
  EXPECT_EQ(max, digest_run.max_egress_bytes);
  EXPECT_GT(max, 0u);
}

}  // namespace
}  // namespace sftbft::dissem
