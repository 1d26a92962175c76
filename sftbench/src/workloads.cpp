#include "workloads.hpp"

namespace sftbench {

using namespace sftbft;
using harness::Scenario;

namespace {

// SFT-DiemBFT (marker) under the paper's symmetric geo calibration, the
// Fig. 7 setting: few, ~450 KB inline frames, so the byte-bound layers
// (SHA-256, CRC, the encoder) dominate host cost.
Scenario geo_inline(std::uint64_t seed) {
  Scenario s;
  s.name = "geo-inline";
  s.protocol = engine::Protocol::DiemBft;
  s.mode = consensus::CoreMode::SftMarker;
  s.n = 31;
  s.topo = Scenario::Topo::Symmetric3;
  s.delta = millis(100);
  s.intra = millis(1);
  s.jitter = millis(40);
  s.jitter_frac = 0.25;
  s.hetero_fast_max = millis(35);
  s.hetero_medium_fraction = 0.25;
  s.hetero_medium_lo = millis(40);
  s.hetero_medium_hi = millis(60);
  s.leader_processing = millis(80);
  s.max_batch = 100;
  s.txn_size_bytes = 4500;
  s.mean_interarrival = millis(10);
  s.verify_signatures = true;
  s.duration = seconds(60);
  s.warmup = seconds(5);
  s.tail = seconds(10);
  s.seed = seed;
  return s;
}

// SFT-HotStuff at n = 50 on the dissemination data plane: digest proposals,
// batch push/pull and the admission front end carry the payload, and the
// n^2 aggregate-certificate refolds sit on the path. The memory-heavy case.
Scenario dissem_n50(std::uint64_t seed) {
  Scenario s;
  s.name = "dissem-n50";
  s.protocol = engine::Protocol::HotStuff;
  s.mode = consensus::CoreMode::SftMarker;
  s.n = 50;
  s.topo = Scenario::Topo::Symmetric3;
  s.delta = millis(100);
  s.jitter = millis(40);
  s.jitter_frac = 0.25;
  s.leader_processing = millis(80);
  s.max_batch = 100;
  s.txn_size_bytes = 450;
  // Client refills every 50 ms (Poisson) against a 5 txn/s-per-client
  // budget: most refills are refused, and each refusal is a trace event,
  // so a faster cadence mostly grows the traced run's memory.
  s.mean_interarrival = millis(50);
  s.verify_signatures = true;
  s.dissemination = true;
  s.dissem.batch_max_txns = 250;
  s.dissem.batch_interval = seconds(1);
  s.dissem.clients = 50;
  s.dissem.client_rate_limit = 5;
  s.duration = seconds(20);
  s.warmup = seconds(4);
  s.tail = seconds(4);
  s.seed = seed;
  return s;
}

// SFT-Streamlet at n = 16 with the O(n^3) echo under every fault family at
// once: a Byzantine coalition, crash-restart churn, pre-GST link
// corruption, durable state everywhere and the safety auditor. Bound by
// event and frame counts rather than bytes; the only workload that
// exercises storage, block sync, the adversary and the auditor.
Scenario streamlet_faults(std::uint64_t seed) {
  Scenario s;
  s.name = "streamlet-faults";
  s.protocol = engine::Protocol::Streamlet;
  s.mode = consensus::CoreMode::SftMarker;
  s.n = 16;
  s.topo = Scenario::Topo::Uniform;
  s.delta = millis(100);
  s.jitter = millis(20);
  s.jitter_frac = 0;
  s.gst = seconds(5);
  s.streamlet_delta_bound = millis(150);
  s.streamlet_echo = true;
  s.max_batch = 50;
  s.txn_size_bytes = 450;
  s.mean_interarrival = millis(20);
  s.verify_signatures = true;
  s.byzantine_count = 2;
  s.byzantine.strategies = {adversary::Strategy::EquivocatingLeader,
                            adversary::Strategy::AmnesiaVoter};
  s.corrupt_count = 2;
  s.crash_restart_count = 2;  // crash at 30 s and 45 s, each down for 10 s
  s.persist_all = true;
  s.audit = true;
  s.duration = seconds(60);
  s.warmup = seconds(6);
  s.tail = seconds(4);
  s.seed = seed;
  return s;
}

constexpr Workload kWorkloads[] = {
    {"geo-inline", geo_inline, 8},
    {"dissem-n50", dissem_n50, 3},
    {"streamlet-faults", streamlet_faults, 6},
};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

}  // namespace sftbench
