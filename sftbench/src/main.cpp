// sftbench: host cost and simulated commit behaviour of one workload.
//
//   sftbench --workload <geo-inline|dissem-n50|streamlet-faults>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Untraced runs of the seed's instances repeat until `--seconds` have
// passed (each instance at least once); host metrics are medians over the
// runs, and repeated runs of an instance must agree bit for bit on sim
// results. `--trace 1` adds one run of the same seed with
// observability and tracing on, replays its artifacts through single
// layers, and reports the per-layer metrics. The last stdout line is the
// JSON result; METRICS.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>

#include "calibration.hpp"
#include "metric_math.hpp"
#include "replay.hpp"
#include "report.hpp"
#include "runner.hpp"
#include "workloads.hpp"

using namespace sftbench;

namespace {

/// Deployment constructions timed for setup_s. One takes well under a
/// millisecond and bursts of load from other tenants last tens of
/// milliseconds, so the constructions are spread over the whole invocation
/// (a share after every run) and reported as a median.
constexpr std::size_t kSetups = 101;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <geo-inline|dissem-n50|streamlet-faults> "
               "[--seed <n>] [--seconds <s>] [--trace <0|1>]\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0) usage(argv[0]);
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value.front() == '-') usage(argv[0]);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0 && args.seconds <= 120)) {
        usage(argv[0]);
      }
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else {
      usage(argv[0]);
    }
  }
  if (args.workload.empty()) usage(argv[0]);
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Sim-clock metrics over one run per instance. Latency percentiles and
/// the service gap are medians of the per-instance values (the tail of one
/// instance depends on which replicas its seed made slow); rates and shares
/// pool the instances' counts.
std::vector<Metric> pooled_sim(const std::vector<const SimCounts*>& instances,
                               bool correct) {
  std::vector<double> commit_p50;
  std::vector<double> commit_p99;
  std::vector<double> strong_p50;
  std::vector<double> strong_p99;
  std::vector<double> gaps;
  std::uint64_t commit_min = UINT64_MAX;
  std::uint64_t strong_min = UINT64_MAX;
  double window_txns = 0;
  double window_s = 0;
  double messages = 0;
  double bytes = 0;
  double blocks = 0;
  double txns = 0;
  RoundOutcome rounds;
  for (const SimCounts* sim : instances) {
    commit_p50.push_back(percentile(sim->commit_s, kP50));
    commit_p99.push_back(percentile(sim->commit_s, kP99));
    strong_p50.push_back(percentile(sim->strong_s, kP50));
    strong_p99.push_back(percentile(sim->strong_s, kP99));
    commit_min = std::min<std::uint64_t>(commit_min, sim->commit_s.size());
    strong_min = std::min<std::uint64_t>(strong_min, sim->strong_s.size());
    gaps.push_back(sim->service_gap_s);
    window_txns += static_cast<double>(sim->window_txns);
    window_s += sim->window_s;
    messages += static_cast<double>(sim->messages);
    bytes += static_cast<double>(sim->bytes);
    blocks += static_cast<double>(sim->blocks);
    txns += static_cast<double>(sim->txns);
    rounds.ops += sim->rounds.ops;
    rounds.failed += sim->rounds.failed;
  }
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const auto samples = [&](std::uint64_t fewest) {
    return "sim, median of " + std::to_string(instances.size()) + " instances, >= " +
           std::to_string(fewest) + " samples each" +
           (highest_supported(fewest) >= kP99 ? "" : " (p99 has <10 beyond it)");
  };
  return {
      {"commit_p50_s", median(commit_p50), "s", samples(commit_min)},
      {"commit_p99_s", median(commit_p99), "s", samples(commit_min)},
      {"strong_2f_p50_s", median(strong_p50), "s", samples(strong_min)},
      {"strong_2f_p99_s", median(strong_p99), "s", samples(strong_min)},
      {"committed_tps", ratio(window_txns, window_s), "txn/s", "sim, replica 0, window"},
      {"msgs_per_block", ratio(messages, blocks), "msgs", "sim"},
      {"wire_bytes_per_txn", ratio(bytes, txns), "B", "sim"},
      {"service_gap_s", median(gaps), "s", "sim, replica 0, median of instances"},
      {"failed_share", correct ? rounds.share() : 1.0, "ratio",
       "sim, " + std::to_string(rounds.failed) + " of " + std::to_string(rounds.ops) +
           " rounds"},
  };
}

/// Host metrics are medians of per-run values, each scaled to the
/// reference machine by the probe passes taken around and during that run
/// (`scales[i]`, see calibration.hpp).
std::vector<Metric> end_to_end(const std::vector<RunResult>& runs,
                               const std::vector<double>& scales,
                               std::uint32_t instances,
                               const std::vector<double>& setups, bool correct) {
  std::vector<double> wall;
  std::vector<double> cpu_per_commit;
  std::vector<double> raw_wall;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    wall.push_back(runs[i].wall_s * scales[i]);
    raw_wall.push_back(runs[i].wall_s);
    if (runs[i].sim.blocks > 0) {
      cpu_per_commit.push_back(runs[i].cpu_s * scales[i] * 1e6 /
                               static_cast<double>(runs[i].sim.blocks));
    }
  }
  std::vector<const SimCounts*> pooled;
  for (std::uint32_t i = 0; i < instances; ++i) pooled.push_back(&runs[i].sim);
  const std::string runs_note =
      "host, median of " + std::to_string(runs.size()) + " scaled runs";
  std::vector<Metric> metrics = {
      {"wall_s", median(wall), "s",
       runs_note + ", unscaled " + std::to_string(median(raw_wall)) + " s"},
      {"cpu_us_per_commit", median(cpu_per_commit), "us", runs_note},
      {"peak_rss_mb", peak_rss_mb(), "MB", "host, process peak"},
      {"setup_s", median(setups), "s",
       "host, median of " + std::to_string(setups.size()) + " scaled constructions"},
  };
  for (Metric& metric : pooled_sim(pooled, correct)) metrics.push_back(std::move(metric));
  return metrics;
}

/// Host times here are scaled by the median of the runs' scale factors;
/// ratios and est_share compare unscaled times with each other.
std::vector<Metric> per_layer(const std::vector<RunResult>& runs,
                              const std::vector<double>& scales,
                              const RunResult& traced, const ReplayCosts& replay) {
  const double scale = median(scales);
  const auto& layer = traced.layer;
  const auto at = [&](const std::string& name) {
    const auto it = layer.find(name);
    return it == layer.end() ? 0.0 : it->second;
  };
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> slices;
  for (const RunResult& run : runs) {
    wall.push_back(run.wall_s);
    cpu.push_back(run.cpu_s);
    slices.insert(slices.end(), run.slice_wall_ms.begin(), run.slice_wall_ms.end());
  }
  const double run_wall = median(wall);
  const double run_cpu = median(cpu);
  const double kb_encoded = at("net.bytes_encoded") / 1024.0;

  std::vector<Metric> metrics;
  const auto count = [&](const std::string& name, const char* unit = "count") {
    metrics.push_back({name, at(name), unit, "traced run"});
  };
  const auto replayed = [&](const std::string& name, double seconds, double per_second,
                            const char* unit) {
    metrics.push_back({name, seconds * scale * per_second, unit, "replay"});
  };

  count("sim.events");
  count("sim.pending_peak");
  metrics.push_back({"sim.events_per_wall_s", at("sim.events") / (run_wall * scale),
                     "1/s", "untraced runs"});
  metrics.push_back({"sim.wall_ms_per_sim_s_p50", percentile(slices, kP50) * scale, "ms",
                     "untraced, " + std::to_string(slices.size()) + " slices"});
  metrics.push_back({"sim.wall_ms_per_sim_s_p90", percentile(slices, kP90) * scale, "ms",
                     "untraced, " + std::to_string(slices.size()) + " slices"});
  replayed("sim.event_ns", replay.event_s, 1e9, "ns");

  count("net.frames");
  count("net.bytes", "B");
  count("net.bytes_encoded", "B");
  for (const char* label : {"proposal", "vote", "timeout", "sync_req", "sync_resp",
                            "echo", "batch_push", "batch_req", "batch_resp"}) {
    count(std::string("net.frames.") + label);
    count(std::string("net.bytes.") + label, "B");
  }
  count("net.max_egress_bytes", "B");
  count("net.corrupt_drops");
  count("net.decode_drops");
  replayed("net.envelope_encode_ns_per_kb", replay.envelope_encode_s_per_kb, 1e9, "ns/KB");
  replayed("net.envelope_decode_ns_per_kb", replay.envelope_decode_s_per_kb, 1e9, "ns/KB");
  replayed("common.crc32_ns_per_kb", replay.crc32_s_per_kb, 1e9, "ns/KB");

  count("crypto.vote_verify_hits");
  count("crypto.vote_verify_misses");
  count("crypto.cert_verify_hits");
  count("crypto.cert_verify_misses");
  count("crypto.vote_cache_lookups");
  metrics.push_back({"crypto.vote_cache_hit_ratio", at("crypto.vote_cache_hit_ratio"),
                     "ratio",
                     "traced run, base " +
                         std::to_string(static_cast<std::uint64_t>(at("crypto.vote_cache_lookups"))) +
                         " lookups"});
  replayed("crypto.sha256_ns_per_kb", replay.sha256_s_per_kb, 1e9, "ns/KB");
  replayed("crypto.cert_verify_cold_us", replay.cert_verify_cold_s, 1e6, "us");
  replayed("crypto.cert_verify_warm_us", replay.cert_verify_warm_s, 1e6, "us");

  for (const char* name : {"consensus.rounds_entered", "consensus.timeouts_local",
                           "consensus.proposals_sent", "consensus.votes_sent",
                           "consensus.blocks_certified", "core.commits",
                           "core.strong_commits", "core.sync_rounds"}) {
    count(name);
  }
  replayed("core.strength_process_qc_us", replay.strength_process_qc_s, 1e6, "us");
  replayed("chain.block_tree_insert_us", replay.block_tree_insert_s, 1e6, "us");
  count("storage.wal_appends");
  count("storage.snapshots");
  replayed("storage.wal_append_us", replay.wal_append_s, 1e6, "us");
  count("dissem.batches_packed");
  count("dissem.pull_rounds");
  count("dissem.batches_resolved");
  replayed("dissem.batch_store_add_us", replay.batch_store_add_s, 1e6, "us");
  count("mempool.admitted");
  count("mempool.refused");

  for (const char* segment : {"proposal_transit", "dissem_wait", "vote_gather_f1",
                              "straggler_wait", "qc_formation", "pacemaker_idle",
                              "commit_delivery"}) {
    metrics.push_back({std::string("obs.cp.") + segment + "_share",
                       at(std::string("obs.cp.") + segment + "_share"), "ratio",
                       "traced run, " +
                           std::to_string(static_cast<std::uint64_t>(at("obs.cp.blocks"))) +
                           " blocks"});
  }
  metrics.push_back({"obs.trace_overhead", traced.wall_s / run_wall, "ratio",
                     "traced wall / untraced median wall"});
  metrics.push_back({"harness.harvest_s", traced.harvest_s * scale, "s", "traced run"});

  // Per-call cost x the run's call count / run CPU, for each layer whose
  // call count the run reports.
  const ShareEstimate shares = estimate_shares(
      {
          {"common", replay.crc32_s_per_kb, kb_encoded},
          {"net",
           std::max(0.0, replay.envelope_encode_s_per_kb - replay.crc32_s_per_kb),
           kb_encoded},
          {"crypto", replay.cert_verify_cold_s, at("crypto.cert_verify_misses")},
          {"crypto", replay.cert_verify_warm_s, at("crypto.cert_verify_hits")},
          {"core", replay.strength_process_qc_s, at("consensus.blocks_certified")},
          {"chain", replay.block_tree_insert_s, at("net.frames.proposal")},
          {"sim", replay.event_s, at("sim.events")},
          {"dissem", replay.batch_store_add_s,
           at("net.frames.batch_push") + at("dissem.batches_packed")},
          {"storage", replay.wal_append_s, at("storage.wal_appends")},
      },
      run_cpu);
  for (const auto& [module, share] : shares.est_share) {
    metrics.push_back({module + ".est_share", share, "ratio", "estimate"});
  }
  metrics.push_back({"unattributed_share", shares.unattributed, "ratio",
                     "1 - sum of est_share, run CPU " + std::to_string(run_cpu) + " s"});
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) usage(argv[0]);
  std::vector<sftbft::harness::Scenario> scenarios;
  for (std::uint32_t i = 0; i < workload->instances; ++i) {
    scenarios.push_back(workload->make(instance_seed(args.seed, i)));
  }
  const sftbft::harness::Scenario& scenario = scenarios.front();

  std::printf("== sftbench %s seed=%llu seconds=%g trace=%d ==\n",
              std::string(workload->name).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::string manifests;
  for (const sftbft::harness::Scenario& instance : scenarios) {
    manifests += (manifests.empty() ? "" : ",") + instance.manifest().render_json();
  }
  std::printf("facts {\"workload\":%s,\"manifests\":[%s],\"build\":%s,\"host\":%s}\n",
              json_string(std::string(workload->name)).c_str(), manifests.c_str(),
              build_facts_json().c_str(), host_facts_json().c_str());
  std::fflush(stdout);

  // Each run's host times are scaled by the mean of the probe passes taken
  // right before it, between its slices (at most one per 200 ms) and right
  // after it; each batch of setup constructions by the passes around it.
  for (int i = 0; i < 3; ++i) (void)probe_pass_s();  // faults the probe's inputs in
  const std::size_t setups_per_run = (kSetups + scenarios.size() - 1) / scenarios.size();
  std::vector<RunResult> runs;
  std::vector<double> scales;
  std::vector<double> setups;
  std::vector<double> probes;
  auto last_probe = std::chrono::steady_clock::now();
  const auto probe = [&](std::vector<double>& around) {
    around.push_back(probe_pass_s());
    probes.push_back(around.back());
    last_probe = std::chrono::steady_clock::now();
  };
  const auto scale_of = [](const std::vector<double>& around) {
    return kReferenceProbeS * static_cast<double>(around.size()) /
           std::accumulate(around.begin(), around.end(), 0.0);
  };
  const auto start = std::chrono::steady_clock::now();
  while (runs.size() < scenarios.size() ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
             args.seconds) {
    const sftbft::harness::Scenario& next = scenarios[runs.size() % scenarios.size()];
    std::vector<double> around;
    probe(around);
    runs.push_back(run_workload(next, false, [&] {
      if (std::chrono::steady_clock::now() - last_probe > std::chrono::milliseconds(200)) {
        probe(around);
      }
    }));
    probe(around);
    scales.push_back(scale_of(around));

    std::vector<double> batch;
    for (std::size_t i = 0; i < setups_per_run; ++i) batch.push_back(time_setup(next));
    std::vector<double> setup_probes = {around.back()};
    probe(setup_probes);
    for (const double raw : batch) setups.push_back(raw * scale_of(setup_probes));
  }
  std::printf("probe median %.6f s over %zu passes, reference %.6f s\n", median(probes),
              probes.size(), kReferenceProbeS);

  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const RunResult& run, const std::string& tag) {
    attempted += run.sim.rounds.ops;
    if (run.failures.empty()) return;
    failed += run.sim.rounds.ops;
    for (const std::string& failure : run.failures) failures.push_back(tag + ": " + failure);
  };
  for (std::size_t i = 0; i < runs.size(); ++i) {
    account(runs[i], "run " + std::to_string(i + 1));
    const std::size_t first = i % scenarios.size();
    if (!(runs[i].sim == runs[first].sim)) {
      failures.push_back("run " + std::to_string(i + 1) +
                         ": sim-clock results differ from run " +
                         std::to_string(first + 1) + " of the same seed");
      if (runs[i].failures.empty()) failed += runs[i].sim.rounds.ops;
    }
  }

  RunResult traced;
  ReplayCosts replay;
  if (args.trace) {
    const auto depth = static_cast<std::size_t>(runs.front().layer.at("sim.pending_peak"));
    traced = run_workload(scenario, true, {}, [&](sftbft::engine::Deployment& deployment) {
      replay = replay_layers(deployment, scenario, depth);
    });
    for (const std::string& failure : replay.failures) traced.failures.push_back("replay: " + failure);
    account(traced, "traced run");
    if (!(traced.sim == runs.front().sim)) {
      failures.push_back("traced run: sim-clock results differ from the untraced runs");
      if (traced.failures.empty()) failed += traced.sim.rounds.ops;
    }
  }

  const bool correct = failures.empty();
  const std::vector<Metric> e2e =
      end_to_end(runs, scales, workload->instances, setups, correct);
  print_table("end to end (" + std::to_string(runs.size()) + " untraced runs)", e2e);
  std::vector<Metric> layers;
  if (args.trace) {
    layers = per_layer(runs, scales, traced, replay);
    print_table("per layer (traced run + replay)", layers);
  }
  for (const Metric& metric : args.trace ? layers : e2e) {
    if (!valid_metric_name(metric.name)) {
      std::fprintf(stderr, "invalid metric name '%s'\n", metric.name.c_str());
      return 3;
    }
  }
  std::printf("-- correctness: %s --\n", correct ? "all checks passed" : "FAILED");
  for (const std::string& failure : failures) std::printf("  %s\n", failure.c_str());
  std::printf("%s\n", result_json(correct, attempted, failed, args.trace ? layers : e2e).c_str());
  return 0;
}
