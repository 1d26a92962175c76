#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <tuple>

#include "metric_math.hpp"
#include "sftbft/chain/block_tree.hpp"
#include "sftbft/common/crc32.hpp"
#include "sftbft/core/strength.hpp"
#include "sftbft/crypto/sha256.hpp"
#include "sftbft/crypto/verify_cache.hpp"
#include "sftbft/dissem/batch_store.hpp"
#include "sftbft/net/envelope.hpp"
#include "sftbft/sim/scheduler.hpp"
#include "sftbft/storage/mem_backend.hpp"
#include "sftbft/storage/replica_store.hpp"
#include "sftbft/streamlet/streamlet.hpp"

namespace sftbench {

using namespace sftbft;

namespace {

using Clock = std::chrono::steady_clock;

/// Results of replayed calls land here so the optimizer cannot drop them.
volatile std::uint64_t g_sink = 0;

/// Median seconds of `timed` over at least 5 repetitions and 20 ms in
/// total; `prepare` runs untimed before each repetition.
double median_s(const std::function<void()>& prepare,
                const std::function<void()>& timed) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 5 ||
         (Clock::now() - start < std::chrono::milliseconds(20) &&
          samples.size() < 2000)) {
    if (prepare) prepare();
    const auto t0 = Clock::now();
    timed();
    samples.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(samples);
}

/// Up to `limit` items spread evenly over `items`.
template <typename T>
std::vector<T> spread(const std::vector<T>& items, std::size_t limit) {
  if (items.size() <= limit) return items;
  std::vector<T> picked;
  for (std::size_t i = 0; i < limit; ++i) {
    picked.push_back(items[i * items.size() / limit]);
  }
  return picked;
}

/// Seconds per KB of `fn` over the run's frame-size mix: one synthetic
/// buffer per wire label at that label's mean frame size, weighted by its
/// frame count.
double frame_mix_s_per_kb(const net::MessageStats& stats,
                          const std::function<std::uint64_t(BytesView)>& fn) {
  double seconds = 0;
  double kilobytes = 0;
  for (const auto& [label, type] : stats.by_type()) {
    if (type.count == 0) continue;
    const std::size_t size = std::max<std::size_t>(1, type.bytes / type.count);
    Bytes buffer(size);
    for (std::size_t i = 0; i < size; ++i) {
      buffer[i] = static_cast<std::uint8_t>((i * 131 + size) >> 3);
    }
    // Batch small frames so one repetition covers at least 64 KB.
    const std::size_t calls = std::max<std::size_t>(1, (64 * 1024) / size);
    const double per_call =
        median_s({}, [&] {
          for (std::size_t c = 0; c < calls; ++c) g_sink = g_sink + fn(BytesView(buffer));
        }) / static_cast<double>(calls);
    seconds += per_call * static_cast<double>(type.count);
    kilobytes += static_cast<double>(type.bytes) / 1024.0;
  }
  return kilobytes > 0 ? seconds / kilobytes : 0;
}

/// Envelope encode and decode of real proposal messages, per frame KB.
template <typename M>
void time_envelopes(const std::vector<M>& messages, net::WireType type,
                    ReplayCosts& costs) {
  if (messages.empty()) return;
  std::vector<Bytes> frames;
  double kilobytes = 0;
  for (const M& message : messages) {
    frames.push_back(net::Envelope::pack(type, 0, message).encode());
    kilobytes += static_cast<double>(frames.back().size()) / 1024.0;
    if (!(net::Envelope::decode(BytesView(frames.back())).template unpack<M>() ==
          message)) {
      costs.failures.push_back("replayed proposal did not survive an "
                               "Envelope round trip");
    }
  }
  costs.envelope_encode_s_per_kb =
      median_s({}, [&] {
        for (const M& message : messages) {
          g_sink = g_sink + net::Envelope::pack(type, 0, message).encode().size();
        }
      }) / kilobytes;
  costs.envelope_decode_s_per_kb =
      median_s({}, [&] {
        for (const Bytes& frame : frames) {
          g_sink = g_sink + net::Envelope::decode(BytesView(frame))
                                .template unpack<M>()
                                .block.round;
        }
      }) / kilobytes;
}

/// Certificate verification with a fresh memo per certificate (cold) and
/// with a memo that already holds it (warm), seconds per certificate.
template <typename Cert>
void time_certificates(const std::vector<Cert>& certs,
                       const crypto::KeyRegistry& registry, std::size_t quorum,
                       ReplayCosts& costs) {
  if (certs.empty()) return;
  const auto count = static_cast<double>(certs.size());
  bool all_valid = true;
  costs.cert_verify_cold_s =
      median_s({}, [&] {
        for (const Cert& cert : certs) {
          crypto::VerifyCache cache;
          all_valid = cert.verify(registry, quorum, &cache) && all_valid;
        }
      }) / count;
  crypto::VerifyCache warm;
  for (const Cert& cert : certs) all_valid = cert.verify(registry, quorum, &warm) && all_valid;
  costs.cert_verify_warm_s =
      median_s({}, [&] {
        for (const Cert& cert : certs) {
          all_valid = cert.verify(registry, quorum, &warm) && all_valid;
        }
      }) / count;
  if (!all_valid) {
    costs.failures.push_back("a replayed certificate failed verification");
  }
}

}  // namespace

ReplayCosts replay_layers(engine::Deployment& deployment,
                          const harness::Scenario& scenario,
                          std::size_t pending_depth) {
  ReplayCosts costs;
  const std::uint32_t n = scenario.n;
  const std::uint32_t f = scenario.f();
  const std::size_t quorum = 2 * f + 1;
  const crypto::KeyRegistry& registry = *deployment.registry();
  const bool chained = engine::is_chained(scenario.protocol);

  // Replica 0's linked blocks in (height, round) order, genesis excluded.
  const chain::BlockTree& tree = chained ? deployment.chained_core(0).tree()
                                         : deployment.streamlet_core(0).tree();
  std::vector<types::Block> blocks;
  for (const types::Block* block : tree.all_blocks()) {
    if (block->height > 0) blocks.push_back(*block);
  }
  std::sort(blocks.begin(), blocks.end(), [](const auto& a, const auto& b) {
    return std::tie(a.height, a.round) < std::tie(b.height, b.round);
  });
  const std::vector<types::Block> sample = spread(blocks, 32);

  // --- common / crypto: checksum and hash over the frame-size mix ---------
  const net::MessageStats& stats = deployment.net_stats();
  costs.crc32_s_per_kb = frame_mix_s_per_kb(stats, [](BytesView data) {
    return static_cast<std::uint64_t>(crc32(data));
  });
  costs.sha256_s_per_kb = frame_mix_s_per_kb(stats, [](BytesView data) {
    return static_cast<std::uint64_t>(crypto::Sha256::hash(data).bytes[0]);
  });

  // --- net: Envelope encode/decode of replica 0's proposals ----------------
  // --- crypto: certificate verification over replica 0's certificates -----
  if (chained) {
    const auto wire = scenario.protocol == engine::Protocol::HotStuff
                          ? net::WireType::kHProposal
                          : net::WireType::kProposal;
    time_envelopes(spread(deployment.chained_core(0).sent_proposals(), 32), wire,
                   costs);
    std::vector<types::QuorumCert> qcs;
    for (const types::Block& block : sample) {
      if (!block.qc.is_genesis()) qcs.push_back(block.qc);
    }
    time_certificates(qcs, registry, quorum, costs);
  } else {
    // Streamlet keeps no sent-proposal log or certificate objects: rebuild
    // replica 0's proposals and a quorum certificate per block with the
    // deployment's own keys.
    std::vector<crypto::Signer> signers;
    for (ReplicaId id = 0; id < n; ++id) signers.push_back(registry.signer_for(id));
    std::vector<streamlet::SProposal> proposals;
    std::vector<streamlet::SCert> certs;
    for (const types::Block& block : sample) {
      if (block.proposer == 0) {
        streamlet::SProposal proposal{.block = block};
        proposal.sig = signers[0].sign(BytesView(proposal.signing_bytes()));
        proposals.push_back(std::move(proposal));
      }
      streamlet::SCert cert;
      cert.block_id = block.id;
      cert.round = block.round;
      cert.height = block.height;
      for (ReplicaId voter = 0; voter < quorum; ++voter) {
        streamlet::SVote vote{.block_id = block.id, .round = block.round,
                              .height = block.height, .voter = voter};
        vote.sig = signers[voter].sign(BytesView(vote.signing_bytes()));
        cert.add_vote(vote);
      }
      certs.push_back(std::move(cert));
    }
    time_envelopes(proposals, net::WireType::kSProposal, costs);
    time_certificates(certs, registry, quorum, costs);
  }

  // --- chain: block-tree insertion of replica 0's blocks --------------------
  if (!blocks.empty()) {
    std::unique_ptr<chain::BlockTree> fresh;
    costs.block_tree_insert_s =
        median_s([&] { fresh = std::make_unique<chain::BlockTree>(); },
                 [&] {
                   for (const types::Block& block : blocks) fresh->insert(block);
                 }) /
        static_cast<double>(blocks.size());
  }

  // --- core: strength accounting over the same blocks ----------------------
  // Chained: one process_qc per block's embedded QC (round domain).
  // Streamlet: one quorum of height-marked votes per block (height domain).
  if (!blocks.empty()) {
    chain::BlockTree full;
    for (const types::Block& block : blocks) full.insert(block);
    std::unique_ptr<core::StrengthTracker> tracker;
    costs.strength_process_qc_s =
        median_s([&] { tracker = std::make_unique<core::StrengthTracker>(full, n, f); },
                 [&] {
                   for (const types::Block& block : blocks) {
                     if (chained) {
                       g_sink = g_sink + tracker->process_qc(block.qc).size();
                     } else {
                       for (ReplicaId voter = 0; voter < quorum; ++voter) {
                         tracker->ingest_height_vote(block.id, voter, 0);
                       }
                     }
                   }
                 }) /
        static_cast<double>(blocks.size());
  }

  // --- sim: schedule + dispatch of a no-op at the run's peak queue depth ---
  {
    sim::Scheduler sched;
    for (std::size_t i = 0; i < pending_depth; ++i) {
      sched.schedule_at(seconds(1000000) + static_cast<SimTime>(i), [] {});
    }
    constexpr int kEvents = 20000;
    costs.event_s = median_s({}, [&] {
                      for (int i = 0; i < kEvents; ++i) {
                        sched.schedule_after(1, [] {});
                        sched.run_one();
                      }
                    }) /
                    kEvents;
  }

  // --- dissem: BatchStore::add of batches built from committed txns --------
  {
    std::vector<types::Transaction> txns;
    for (const types::Block& block : blocks) {
      txns.insert(txns.end(), block.payload.txns.begin(), block.payload.txns.end());
    }
    constexpr std::size_t kBatches = 64;
    const std::size_t per_batch = scenario.dissem.batch_max_txns;
    for (std::uint64_t id = txns.size() + 1; txns.size() < kBatches * per_batch; ++id) {
      txns.push_back({.id = id, .submitted_at = 0, .size_bytes = scenario.txn_size_bytes});
    }
    std::vector<dissem::Batch> batches(kBatches);
    for (std::size_t i = 0; i < kBatches; ++i) {
      batches[i].creator = static_cast<ReplicaId>(i % n);
      batches[i].seq = i;
      batches[i].txns.assign(txns.begin() + static_cast<std::ptrdiff_t>(i * per_batch),
                             txns.begin() + static_cast<std::ptrdiff_t>((i + 1) * per_batch));
      batches[i].seal();
    }
    std::vector<dissem::Batch> copies;
    std::unique_ptr<dissem::BatchStore> store;
    costs.batch_store_add_s =
        median_s([&] {
                   copies = batches;
                   store = std::make_unique<dissem::BatchStore>();
                 },
                 [&] {
                   for (dissem::Batch& batch : copies) store->add(std::move(batch));
                 }) /
        static_cast<double>(kBatches);
  }

  // --- storage: WAL append of replica 0's ledger entries --------------------
  const std::vector<chain::Ledger::Entry> entries = deployment.ledger(0).snapshot();
  if (!entries.empty()) {
    storage::StoreConfig config;
    config.snapshot_interval_blocks = scenario.snapshot_interval_blocks;
    std::unique_ptr<storage::MemBackend> backend;
    std::unique_ptr<storage::ReplicaStore> store;
    costs.wal_append_s =
        median_s([&] {
                   store.reset();
                   backend = std::make_unique<storage::MemBackend>(scenario.seed);
                   store = std::make_unique<storage::ReplicaStore>(*backend, 0, config);
                 },
                 [&] {
                   for (const chain::Ledger::Entry& entry : entries) store->record_commit(entry);
                 }) /
        static_cast<double>(entries.size());
  }
  return costs;
}

}  // namespace sftbench
