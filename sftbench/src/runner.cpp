#include "runner.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>
#include <unordered_map>

#include "sftbft/chain/ledger.hpp"
#include "sftbft/harness/auditor.hpp"
#include "sftbft/obs/critical_path.hpp"

namespace sftbench {

using namespace sftbft;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double to_s(SimDuration micros) { return static_cast<double>(micros) / 1e6; }

/// Wire labels reported one by one (net.frames.<label>, net.bytes.<label>).
constexpr const char* kWireLabels[] = {
    "proposal", "vote",      "timeout",   "sync_req",  "sync_resp",
    "echo",     "batch_push", "batch_req", "batch_resp"};

/// A restarted replica may trail the cluster tip by at most this many
/// heights at the end of a run.
constexpr std::uint64_t kRestartTipSlack = 5;

/// Seed of the cluster every run deploys on (see deployment_config).
constexpr std::uint64_t kClusterSeed = 42;

/// The scenario's deployment on a fixed cluster: per-replica heterogeneity
/// (which replicas are slow, and by how much) comes from kClusterSeed, so a
/// workload runs on the same machines under every seed and the seed varies
/// only the traffic: jitter, client arrivals, keys and fault draws.
engine::DeploymentConfig deployment_config(const harness::Scenario& scenario) {
  engine::DeploymentConfig config = scenario.to_deployment_config();
  harness::Scenario cluster = scenario;
  cluster.seed = kClusterSeed;
  config.topology = cluster.build_topology();
  return config;
}

/// Per (in-window block, honest replica): the first commit notification
/// and the first one at strength >= 2f, as latencies from block creation.
class CommitLog {
 public:
  CommitLog(std::uint32_t n, std::uint32_t two_f, SimTime lo, SimTime hi)
      : n_(n), two_f_(two_f), lo_(lo), hi_(hi) {}

  void on_commit(ReplicaId replica, const types::Block& block,
                 std::uint32_t strength, SimTime now) {
    if (block.created_at < lo_ || block.created_at > hi_) return;
    auto [it, fresh] = seen_.try_emplace(block.id);
    if (fresh) it->second.assign(n_, 0);
    std::uint8_t& flags = it->second[replica];
    const double latency = to_s(now - block.created_at);
    if ((flags & kCommitted) == 0) {
      flags |= kCommitted;
      commit_s.push_back(latency);
    }
    if (strength >= two_f_ && (flags & kStrong) == 0) {
      flags |= kStrong;
      strong_s.push_back(latency);
    }
  }

  std::vector<double> commit_s;
  std::vector<double> strong_s;

 private:
  static constexpr std::uint8_t kCommitted = 1;
  static constexpr std::uint8_t kStrong = 2;
  std::uint32_t n_;
  std::uint32_t two_f_;
  SimTime lo_;
  SimTime hi_;
  std::unordered_map<types::BlockId, std::vector<std::uint8_t>> seen_;
};

void check_ledgers(const engine::Deployment& deployment,
                   const std::vector<engine::FaultSpec>& faults,
                   std::vector<std::string>& failures) {
  const auto kind = [&](ReplicaId id) {
    return id < faults.size() ? faults[id].kind : engine::FaultSpec::Kind::Honest;
  };
  const chain::Ledger& anchor = deployment.ledger(0);
  std::uint64_t cluster_tip = 0;
  for (ReplicaId id = 0; id < deployment.size(); ++id) {
    if (kind(id) == engine::FaultSpec::Kind::Byzantine) continue;
    const chain::Ledger& ledger = deployment.ledger(id);
    cluster_tip = std::max<std::uint64_t>(cluster_tip, ledger.tip().value_or(0));
    const Height common = std::min(ledger.tip().value_or(0), anchor.tip().value_or(0));
    for (Height h = 1; h <= common; ++h) {
      if (ledger.is_committed(h) && anchor.is_committed(h) &&
          ledger.at(h).block_id != anchor.at(h).block_id) {
        failures.push_back("ledgers of replicas 0 and " + std::to_string(id) +
                           " disagree at height " + std::to_string(h));
        break;
      }
    }
  }
  for (ReplicaId id = 0; id < deployment.size(); ++id) {
    if (kind(id) != engine::FaultSpec::Kind::CrashRestart) continue;
    const std::uint64_t tip = deployment.ledger(id).tip().value_or(0);
    if (tip + kRestartTipSlack < cluster_tip) {
      failures.push_back("restarted replica " + std::to_string(id) +
                         " ends at height " + std::to_string(tip) +
                         ", cluster tip " + std::to_string(cluster_tip));
    }
  }
}

void read_obs(const obs::Observer& observer, std::map<std::string, double>& layer) {
  const auto counters = observer.merged().counter_snapshot();
  const auto count = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  // obs vocabulary name -> the benchmark's <module>.<metric> name.
  const std::pair<const char*, const char*> renames[] = {
      {"sig.vote_verify_hits", "crypto.vote_verify_hits"},
      {"sig.vote_verify_misses", "crypto.vote_verify_misses"},
      {"sig.cert_verify_hits", "crypto.cert_verify_hits"},
      {"sig.cert_verify_misses", "crypto.cert_verify_misses"},
      {"consensus.rounds_entered", "consensus.rounds_entered"},
      {"consensus.timeouts_local", "consensus.timeouts_local"},
      {"consensus.proposals_sent", "consensus.proposals_sent"},
      {"consensus.votes_sent", "consensus.votes_sent"},
      {"consensus.blocks_certified", "consensus.blocks_certified"},
      {"consensus.commits", "core.commits"},
      {"consensus.strong_commits", "core.strong_commits"},
      {"sync.rounds", "core.sync_rounds"},
      {"storage.wal_appends", "storage.wal_appends"},
      {"storage.snapshots", "storage.snapshots"},
      {"dissem.batches_packed", "dissem.batches_packed"},
      {"dissem.pull_rounds", "dissem.pull_rounds"},
      {"dissem.batches_resolved", "dissem.batches_resolved"},
      {"admission.admitted", "mempool.admitted"},
  };
  for (const auto& [from, to] : renames) layer[to] = count(from);
  layer["mempool.refused"] = count("admission.duplicate") +
                             count("admission.rate_limited") +
                             count("admission.backpressure");
  const double hits = layer["crypto.vote_verify_hits"];
  const double lookups = hits + layer["crypto.vote_verify_misses"];
  layer["crypto.vote_cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
  layer["crypto.vote_cache_lookups"] = lookups;

  if (observer.tracing()) {
    const obs::CriticalPathResult path =
        obs::CriticalPathAnalyzer::analyze(observer.trace().events());
    for (std::size_t i = 0; i < obs::kSegmentCount; ++i) {
      const auto segment = static_cast<obs::Segment>(i);
      layer[std::string("obs.cp.") + obs::segment_name(segment) + "_share"] =
          path.share(segment);
    }
    layer["obs.cp.blocks"] = static_cast<double>(path.blocks.size());
  }
}

}  // namespace

RunResult run_workload(const harness::Scenario& base, bool traced,
                       const std::function<void()>& between_slices,
                       const Inspect& inspect) {
  harness::Scenario scenario = base;
  scenario.obs.enabled = traced;
  scenario.obs.trace = traced;
  const std::vector<engine::FaultSpec> faults = scenario.effective_faults();
  const auto honest = [&](ReplicaId id) {
    return id >= faults.size() ||
           faults[id].kind != engine::FaultSpec::Kind::Byzantine;
  };
  const SimTime window_lo = scenario.warmup;
  const SimTime window_hi = scenario.duration - scenario.tail;

  RunResult result;
  CommitLog log(scenario.n, 2 * scenario.f(), window_lo, window_hi);
  std::unique_ptr<harness::SafetyAuditor> auditor;
  if (scenario.audit) {
    auditor = std::make_unique<harness::SafetyAuditor>(harness::SafetyAuditor::Config{
        .protocol = scenario.protocol, .n = scenario.n});
  }
  engine::Deployment* live = nullptr;
  std::size_t pending_peak = 0;
  const auto on_commit = [&](ReplicaId replica, const types::Block& block,
                             std::uint32_t strength, SimTime now) {
    if (honest(replica)) log.on_commit(replica, block, strength, now);
    if (auditor) auditor->on_commit(replica, block, strength, now);
    pending_peak = std::max(pending_peak, live->scheduler().pending());
  };

  engine::Deployment deployment(deployment_config(scenario), on_commit,
                                auditor ? auditor->taps() : engine::AuditTaps{});
  live = &deployment;

  // The run phase is start() plus every slice; time spent in the
  // between-slices hook is left out of both clocks.
  const auto timed = [&](const auto& step) {
    const double cpu_start = process_cpu_s();
    const auto wall_start = Clock::now();
    step();
    const double wall = since(wall_start);
    result.wall_s += wall;
    result.cpu_s += process_cpu_s() - cpu_start;
    return wall;
  };
  try {
    timed([&] { deployment.start(); });
    for (SimTime t = 0; t < scenario.duration; t += seconds(1)) {
      const double wall =
          timed([&] { deployment.run_for(std::min(seconds(1), scenario.duration - t)); });
      result.slice_wall_ms.push_back(wall * 1e3);
      pending_peak = std::max(pending_peak, deployment.scheduler().pending());
      if (between_slices) between_slices();
    }
  } catch (const chain::LedgerConflict& conflict) {
    result.failures.push_back(std::string("LedgerConflict: ") + conflict.what());
  }

  const auto harvest_start = Clock::now();
  const std::vector<chain::Ledger::Entry> entries = deployment.ledger(0).snapshot();
  const net::MessageStats& stats = deployment.net_stats();

  // --- correctness checks -------------------------------------------------
  if (auditor && !auditor->violations().empty()) {
    result.failures.push_back(
        "SafetyAuditor: " + std::to_string(auditor->violations().size()) +
        " violation(s), first: " + auditor->violations().front().describe());
  }
  check_ledgers(deployment, faults, result.failures);
  if (stats.decode_drops() != 0) {
    result.failures.push_back("net.decode_drops = " +
                              std::to_string(stats.decode_drops()));
  }
  const bool corrupt_links =
      std::any_of(faults.begin(), faults.end(), [](const engine::FaultSpec& f) {
        return f.kind == engine::FaultSpec::Kind::Corrupt;
      });
  // The transport counts a corrupt drop only for a frame it corrupted, and
  // corrupts only the injected links' frames.
  if (corrupt_links ? stats.corrupt_drops() > stats.corrupt_injected()
                    : stats.corrupt_injected() + stats.corrupt_drops() > 0) {
    result.failures.push_back(
        "corrupt drops " + std::to_string(stats.corrupt_drops()) +
        " against " + std::to_string(stats.corrupt_injected()) +
        " frames corrupted on injected links");
  }

  // --- sim-clock results -------------------------------------------------
  SimCounts& sim = result.sim;
  sim.commit_s = std::move(log.commit_s);
  sim.strong_s = std::move(log.strong_s);
  std::vector<std::int64_t> commit_times;
  std::vector<std::uint64_t> committed_rounds;
  for (const chain::Ledger::Entry& entry : entries) {
    if (entry.created_at >= window_lo && entry.created_at <= window_hi) {
      sim.window_txns += entry.txn_count;
    }
    commit_times.push_back(entry.first_committed_at);
    committed_rounds.push_back(entry.round);
  }
  if (sim.window_txns == 0) {
    result.failures.push_back("replica 0 committed no transaction in the window");
  }
  sim.window_s = to_s(window_hi - window_lo);
  sim.messages = stats.total_count();
  sim.bytes = stats.total_bytes();
  sim.blocks = deployment.ledger(0).committed_blocks();
  sim.txns = deployment.ledger(0).committed_txns();
  sim.service_gap_s = to_s(longest_gap(commit_times, window_lo, window_hi));
  sim.rounds = round_outcome(deployment.engine(0).current_round(),
                             committed_rounds, !result.failures.empty());
  sim.events = deployment.scheduler().events_processed();

  // --- per-layer counts -----------------------------------------------------
  auto& layer = result.layer;
  layer["sim.events"] = static_cast<double>(sim.events);
  layer["sim.pending_peak"] = static_cast<double>(pending_peak);
  layer["net.frames"] = static_cast<double>(stats.total_count());
  layer["net.bytes"] = static_cast<double>(stats.total_bytes());
  layer["net.bytes_encoded"] =
      static_cast<double>(stats.total_bytes() - stats.broadcast_saved_bytes());
  for (const char* label : kWireLabels) {
    const net::MessageStats::TypeStats type = stats.for_type(label);
    layer[std::string("net.frames.") + label] = static_cast<double>(type.count);
    layer[std::string("net.bytes.") + label] = static_cast<double>(type.bytes);
  }
  layer["net.max_egress_bytes"] = static_cast<double>(stats.max_egress_bytes());
  layer["net.corrupt_drops"] = static_cast<double>(stats.corrupt_drops());
  layer["net.decode_drops"] = static_cast<double>(stats.decode_drops());
  if (const obs::Observer* observer = deployment.observer()) {
    read_obs(*observer, layer);
  }
  result.harvest_s = since(harvest_start);

  if (inspect) inspect(deployment);
  return result;
}

double time_setup(const harness::Scenario& scenario) {
  const auto start = Clock::now();
  const auto deployment =
      std::make_unique<engine::Deployment>(deployment_config(scenario));
  return since(start);
}

}  // namespace sftbench
