// Host cost of single layers, timed by replaying a finished run's own
// artifacts through each layer's public functions: replica 0's sent
// proposals and block-tree blocks with their certificates, the frame-size
// mix from net::MessageStats, replica 0's ledger, and the deployment's
// KeyRegistry. Runs after the traced run, outside every timed span.
#pragma once

#include <string>
#include <vector>

#include "sftbft/engine/deployment.hpp"
#include "sftbft/harness/scenario.hpp"

namespace sftbench {

/// Per-call (or per-KB) costs in seconds; 0 when the run gave no input.
struct ReplayCosts {
  double crc32_s_per_kb = 0;
  double envelope_encode_s_per_kb = 0;
  double envelope_decode_s_per_kb = 0;
  double sha256_s_per_kb = 0;
  double cert_verify_cold_s = 0;
  double cert_verify_warm_s = 0;
  double strength_process_qc_s = 0;
  double block_tree_insert_s = 0;
  double event_s = 0;
  double batch_store_add_s = 0;
  double wal_append_s = 0;
  /// Replayed inputs that a layer rejected (a certificate that failed to
  /// verify, a frame that failed to decode): correctness failures.
  std::vector<std::string> failures;
};

[[nodiscard]] ReplayCosts replay_layers(sftbft::engine::Deployment& deployment,
                                        const sftbft::harness::Scenario& scenario,
                                        std::size_t pending_depth);

}  // namespace sftbench
