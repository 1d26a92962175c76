// Knobs for the dissemination data plane + client admission front-end.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sftbft/common/types.hpp"

namespace sftbft::obs {
class Observer;
}  // namespace sftbft::obs

namespace sftbft::dissem {

struct DissemConfig {
  /// Master switch. Off = the legacy inline-payload path (proposals carry
  /// full transaction bodies, WorkloadGenerator feeds the mempool) — the
  /// exact pre-dissemination behaviour, byte for byte.
  bool enabled = false;

  // ------------------------------------------------------------ data plane
  /// Max transactions packed into one batch.
  std::size_t batch_max_txns = 250;
  /// How often each replica drains its mempool into a fresh batch and
  /// pushes it (off the consensus critical path).
  SimDuration batch_interval = millis(20);
  /// Max batch digests referenced per proposal.
  std::size_t max_batches_per_proposal = 16;
  /// A batch referenced by a proposal that never certifies becomes
  /// proposable again after this long (duplicate references across forks
  /// are harmless: commit-time resolution dedups by digest).
  SimDuration repropose_after = seconds(2);

  // ------------------------------------------------------------ batch pull
  /// Peers asked per pull round (rotating window, core::SyncClient style).
  std::uint32_t pull_fanout = 3;
  /// Watchdog: re-request still-missing digests from the next window.
  SimDuration pull_retry = millis(250);
  /// Max digests per BatchRequest frame.
  std::size_t pull_max_digests = 64;

  // ------------------------------------------------------------- admission
  /// Simulated client population submitting through each replica's
  /// AdmissionFrontend (distinct id spaces; the swarm stands in for the
  /// "millions of submitters" the ROADMAP north-star talks about).
  std::uint32_t clients = 64;
  /// Per-client admission budget per second (token bucket); 0 = unlimited.
  std::uint32_t client_rate_limit = 0;
  /// Per-client window of remembered submissions (retry dedup).
  std::size_t client_dedup_window = 32;
  /// Mempool bound; admissions beyond it are rejected with backpressure
  /// (0 = unbounded).
  std::size_t mempool_capacity = 0;

  // ---------------------------------------------------------- observability
  /// Metrics + trace events (batch lifecycle, admission outcomes); null =
  /// off. Stamped by the Deployment; outlives the data plane.
  obs::Observer* observer = nullptr;
  /// The owning replica (trace/metric attribution for components that are
  /// not otherwise id-aware, e.g. the AdmissionFrontend); stamped by the
  /// DataPlane.
  ReplicaId self = 0;
};

}  // namespace sftbft::dissem
