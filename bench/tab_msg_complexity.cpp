// Message-complexity claim (paper Sec. 3.2 and Appendix B): SFT-DiemBFT
// keeps DiemBFT's linear (O(n)) amortized messages per block decision, while
// adapting FBFT to DiemBFT costs O(n^2) — the leader must multicast up to f
// extra votes that arrive after the 2f+1-vote QC was sealed.
//
// This bench measures messages per committed block over a sweep of n. SFT
// should track ~3n (proposal multicast + votes + timeout noise); FBFT grows
// quadratically as stragglers' late votes are rebroadcast to everyone.
//
// Since the Envelope refactor the byte numbers here are *exact*: every
// message is charged its canonical encoded frame size. The wire accounting
// runs on ALL THREE engines (DiemBFT, chained HotStuff, Streamlet — the
// HotStuff 0x2x tags included), and --smoke writes it as BENCH_wire.json
// for CI to archive. Sweep cells are independent deterministic runs;
// --jobs N executes them on a thread pool with stable output ordering.
#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench_util.hpp"
#include "sftbft/types/quorum_cert.hpp"
#include "sftbft/types/timeout.hpp"

using namespace sftbft;
using namespace sftbft::bench;

namespace {

/// Exact per-certificate wire bytes at scale n (quorum = 2f+1 signers):
/// one aggregate-signature QC and one TimeoutCert (which carries a single
/// high QC, not one per sender). Structural assembly is enough — encoded
/// size depends only on the certificate's shape, not its MACs. These are
/// the bytes the perf gate pins: a change that reintroduces O(n)
/// signature vectors shows up here before it shows up in traffic.
std::pair<std::size_t, std::size_t> certificate_bytes(std::uint32_t n) {
  const std::uint32_t quorum = 2 * ((n - 1) / 3) + 1;
  types::QuorumCert qc;
  for (ReplicaId voter = 0; voter < quorum; ++voter) {
    qc.votes.push_back({voter, types::VoteMeta{}});
    qc.agg.signers.set(voter);
  }
  qc.canonicalize();
  Encoder qc_enc;
  qc.encode(qc_enc);
  types::TimeoutCert tc;
  tc.high_qc = qc;
  for (ReplicaId sender = 0; sender < quorum; ++sender) {
    tc.hqc_rounds.push_back(0);
    tc.agg.signers.set(sender);
  }
  Encoder tc_enc;
  tc.encode(tc_enc);
  return {qc_enc.data().size(), tc_enc.data().size()};
}

harness::Scenario complexity_scenario(engine::Protocol protocol,
                                      std::uint32_t n, bool fbft,
                                      const BenchArgs& args) {
  harness::Scenario s = geo_scenario();
  s.name = "tab_msg_complexity";
  s.protocol = protocol;
  s.n = n;
  s.topo = harness::Scenario::Topo::Symmetric3;
  s.delta = millis(100);
  s.fbft = fbft;
  // Streamlet is lock-step: keep the echo on (its O(n^3) is the point of
  // measuring it) and give rounds a Δ that covers delta + jitter plus the
  // echo's queueing — at Δ = 120 ms the n = 31 cell's proposal transit p99
  // (~270 ms) outlasted the 2Δ round and the cluster never decided. Every
  // cell mixes Δ into its config digest, so only the Streamlet cell takes
  // the new value and the other manifests stay put.
  s.streamlet_delta_bound =
      protocol == engine::Protocol::Streamlet ? millis(200) : millis(120);
  // Metrics (not tracing): the transport's per-WireType transit/queueing
  // histograms feed the delay columns of the per-type wire tables.
  s.obs.enabled = true;
  // Heterogeneity scaled to keep a comparable straggler share at every n.
  s.duration = args.smoke ? seconds(40) : seconds(90);
  s.tail = args.smoke ? seconds(10) : seconds(30);
  if (args.seed != 0) s.seed = args.seed;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  std::printf("== Messages per committed block: SFT-DiemBFT (linear) vs "
              "FBFT-on-DiemBFT (quadratic, Appendix B) ==\n\n");

  harness::Table table({"n", "SFT msgs/block", "SFT /n", "FBFT msgs/block",
                        "FBFT /n", "FBFT extra votes/block"});

  const std::vector<std::uint32_t> sizes =
      args.smoke ? std::vector<std::uint32_t>{16u, 31u}
                 : std::vector<std::uint32_t>{16u, 31u, 61u, 100u};
  const std::uint32_t wire_n = sizes.back();

  // The whole grid up front: (sft, fbft) per n, plus one exact-wire run at
  // n = wire_n for the OTHER engines — the DiemBFT wire section reuses the
  // largest SFT complexity cell instead of re-simulating it. All cells are
  // independent and --jobs parallelizable.
  std::vector<harness::Scenario> sweep;
  for (const std::uint32_t n : sizes) {
    sweep.push_back(
        complexity_scenario(engine::Protocol::DiemBft, n, false, args));
    sweep.push_back(
        complexity_scenario(engine::Protocol::DiemBft, n, true, args));
  }
  const std::size_t wire_base = sweep.size();
  for (const engine::Protocol protocol : engine::kAllProtocols) {
    if (protocol == engine::Protocol::DiemBft) continue;  // reuse SFT cell
    sweep.push_back(complexity_scenario(protocol, wire_n, false, args));
  }
  // One digest-mode cell at n = 100 (always, smoke included): the dissem
  // data plane turns proposals into digest references, so certificate bytes
  // dominate the remaining traffic — the configuration where the aggregate
  // signature collapse is most visible on the wire. SFT-DiemBFT only (the
  // paper's linear engine): a Streamlet n = 100 cell is O(n^3) echo
  // traffic and would dominate the whole smoke run's wall clock.
  const std::size_t digest_index = sweep.size();
  constexpr std::uint32_t kDigestN = 100;
  {
    harness::Scenario s =
        complexity_scenario(engine::Protocol::DiemBft, kDigestN, false, args);
    s.dissemination = true;
    // This cell accounts certificate bytes, not batch throughput — at
    // n = 100 the saturating default data plane (64 clients, 250x4.5 KB
    // batches every 20 ms, each pushed to 99 peers) swamps a single-core
    // CI runner's memory and wall clock. Trim the payload side so the
    // control-plane frames (proposal/vote/timeout + certificates) dominate
    // the table, which is the point of digest mode here.
    s.txn_size_bytes = 450;
    s.max_batch = 25;
    s.dissem.clients = 8;
    s.dissem.batch_max_txns = 25;
    s.dissem.batch_interval = millis(100);
    s.duration = args.smoke ? seconds(20) : seconds(60);
    s.tail = seconds(5);
    sweep.push_back(std::move(s));
  }
  const std::vector<harness::ScenarioResult> results =
      run_scenarios(sweep, args.jobs);
  // A cell that commits nothing in its window under a clean fault spec
  // describes a cluster that never decided: its rows are not data. Fail the
  // run (after writing the artifacts, for diagnosis).
  bool stalled = false;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto faults = sweep[i].effective_faults();
    const bool clean = std::all_of(
        faults.begin(), faults.end(), [](const engine::FaultSpec& f) {
          return f.kind == engine::FaultSpec::Kind::Honest;
        });
    if (clean && results[i].window_blocks == 0) {
      std::fprintf(stderr, "[tab_msg_complexity] %s n=%u%s%s committed no "
                           "block in its window\n",
                   engine::protocol_name(sweep[i].protocol), sweep[i].n,
                   sweep[i].fbft ? " fbft" : "",
                   sweep[i].dissemination ? " digest" : "");
      stalled = true;
    }
  }

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::uint32_t n = sizes[i];
    const harness::ScenarioResult& sft = results[2 * i];
    const harness::ScenarioResult& fbft = results[2 * i + 1];

    // Extra-vote traffic is the quadratic term; report it separately.
    const double fbft_blocks =
        fbft.messages_per_block > 0
            ? static_cast<double>(fbft.total_messages) / fbft.messages_per_block
            : 1.0;
    table.add_row({std::to_string(n),
                   harness::Table::num(sft.messages_per_block, 0),
                   harness::Table::num(sft.messages_per_block / n, 2),
                   harness::Table::num(fbft.messages_per_block, 0),
                   harness::Table::num(fbft.messages_per_block / n, 2),
                   harness::Table::num(
                       static_cast<double>(fbft.extra_vote_messages) /
                           fbft_blocks,
                       0)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("Expected: 'SFT /n' stays ~flat (linear per decision); "
              "'FBFT /n' grows with n (quadratic per decision).\n");

  // Byte-level wire accounting (SFT runs at n = wire_n, one per engine):
  // per-type frame bytes are EXACT canonical Envelope sizes — the HotStuff
  // stack's 0x2x tags included — and the broadcast path encodes each frame
  // once for all recipients.
  std::vector<std::pair<std::string, harness::Table>> sections;
  sections.emplace_back("complexity", table);
  // decode_drops must read 0 on every clean run: any frame a replica could
  // not decode back to the message it encoded is a codec bug, not noise.
  harness::Table broadcast_table({"engine", "n", "charged bytes", "qc bytes",
                                  "tc bytes", "encode-once saved bytes",
                                  "saved/charged", "decode drops"});
  // Adds one per-type section + one broadcast row for a wire cell. `label`
  // doubles as the gate's row key, so each cell needs a distinct one.
  const auto add_wire_cell = [&](const std::string& label, std::uint32_t n,
                                 const harness::ScenarioResult& wire_run) {
    harness::Table wire_table({"type", "frames", "total bytes",
                               "avg frame bytes", "transit p50 (ms)",
                               "transit p99 (ms)"});
    for (const auto& [type, stats] : wire_run.traffic_by_type) {
      // Transit percentiles (send -> delivery, micros in the histogram):
      // self-delivered frames are not on the wire, so a type that only ever
      // loops back (or never got delivered) reads "--".
      std::string p50 = "--";
      std::string p99 = "--";
      if (const auto it = wire_run.wire_delays.find(type);
          it != wire_run.wire_delays.end() && it->second.transit.count > 0) {
        p50 = harness::Table::num(
            static_cast<double>(it->second.transit.p50) / 1000.0, 1);
        p99 = harness::Table::num(
            static_cast<double>(it->second.transit.p99) / 1000.0, 1);
      }
      wire_table.add_row(
          {type, std::to_string(stats.count), std::to_string(stats.bytes),
           harness::Table::num(
               stats.count > 0
                   ? static_cast<double>(stats.bytes) /
                         static_cast<double>(stats.count)
                   : 0.0,
               1),
           std::move(p50), std::move(p99)});
    }
    const auto [qc_bytes, tc_bytes] = certificate_bytes(n);
    broadcast_table.add_row(
        {label, std::to_string(n),
         std::to_string(wire_run.total_message_bytes),
         std::to_string(qc_bytes), std::to_string(tc_bytes),
         std::to_string(wire_run.broadcast_saved_bytes),
         harness::Table::num(
             wire_run.total_message_bytes > 0
                 ? static_cast<double>(wire_run.broadcast_saved_bytes) /
                       static_cast<double>(wire_run.total_message_bytes)
                 : 0.0,
             3),
         std::to_string(wire_run.decode_drops)});
    std::printf("-- %s --\n%s\n", label.c_str(), wire_table.render().c_str());
    sections.emplace_back("per_type_" + label, std::move(wire_table));
  };

  std::printf("\n== On-wire bytes (exact, SFT n=%u, all engines) ==\n",
              wire_n);
  std::size_t extra_wire = 0;
  for (const engine::Protocol protocol : engine::kAllProtocols) {
    const harness::ScenarioResult& wire_run =
        protocol == engine::Protocol::DiemBft
            ? results[2 * (sizes.size() - 1)]  // the largest SFT cell
            : results[wire_base + extra_wire++];
    add_wire_cell(engine::protocol_name(protocol), wire_n, wire_run);
  }
  std::printf("\n== Digest-mode wire bytes (dissem data plane, n=%u) ==\n",
              kDigestN);
  add_wire_cell(
      std::string(engine::protocol_name(engine::Protocol::DiemBft)) + "+digest",
      kDigestN, results[digest_index]);
  std::printf("%s\n", broadcast_table.render().c_str());
  sections.emplace_back("broadcast", broadcast_table);

  // One manifest per sweep cell, keyed engine/n/variant (FBFT cells are a
  // different config digest than SFT at the same n — that is the point).
  std::vector<std::pair<std::string, std::string>> manifests;
  for (const harness::Scenario& s : sweep) {
    manifests.emplace_back(std::string(engine::protocol_name(s.protocol)) +
                               "_n" + std::to_string(s.n) +
                               (s.fbft ? "_fbft" : ""),
                           s.manifest().render_json());
  }
  if (!args.json_path.empty() &&
      !write_json_artifact(args.json_path, "tab_msg_complexity",
                           args.seed != 0 ? args.seed : 42, args.smoke,
                           sections, manifests)) {
    return 1;
  }
  // CI archives the exact wire accounting next to BENCH_adversary.json —
  // all three engines' sections included.
  if (args.smoke) {
    std::vector<std::pair<std::string, harness::Table>> wire_sections(
        sections.begin() + 1, sections.end());
    if (!write_json_artifact("BENCH_wire.json", "wire",
                             args.seed != 0 ? args.seed : 42, args.smoke,
                             wire_sections, manifests)) {
      return 1;
    }
  }
  return stalled ? 1 : 0;
}
