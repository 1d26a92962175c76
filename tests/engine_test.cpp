// The unified engine layer: one Scenario + FaultSpec list must run
// unmodified on both chained-BFT backends (the paper's genericity claim,
// Secs. 3.2-3.4 + Appendix D), and the Deployment must enforce its
// config invariants.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sftbft/dissem/batch.hpp"
#include "sftbft/engine/deployment.hpp"
#include "sftbft/harness/scenario.hpp"

namespace sftbft {
namespace {

using engine::Deployment;
using engine::DeploymentConfig;
using engine::FaultSpec;
using engine::Protocol;
using net::Envelope;
using net::WireType;

/// One 4-replica crash-fault scenario, shared verbatim by both engines:
/// replica 3 crashes at t = 2s, the rest keep committing.
harness::Scenario crash_scenario(Protocol protocol) {
  harness::Scenario s;
  s.name = "cross-protocol-smoke";
  s.protocol = protocol;
  s.n = 4;
  s.mode = consensus::CoreMode::SftMarker;
  s.topo = harness::Scenario::Topo::Uniform;
  s.delta = millis(10);
  s.intra = millis(10);
  s.jitter = millis(2);
  s.jitter_frac = 0;
  s.leader_processing = millis(5);
  s.base_timeout = millis(500);
  s.streamlet_delta_bound = millis(30);
  s.max_batch = 10;
  s.verify_signatures = true;
  s.duration = seconds(10);
  s.warmup = seconds(1);
  s.tail = seconds(2);
  s.seed = 17;
  s.faults.resize(4);
  s.faults[3] = FaultSpec::crash_at_time(seconds(2));
  return s;
}

TEST(Engine, SameCrashScenarioRunsOnBothProtocols) {
  for (const Protocol protocol : engine::kAllProtocols) {
    const harness::ScenarioResult result =
        run_scenario(crash_scenario(protocol));
    EXPECT_GT(result.summary.committed_blocks, 10u)
        << engine::protocol_name(protocol);
    EXPECT_GT(result.total_messages, 0u);
    // The regular (x = f) level must be reached by essentially every
    // block-replica pair despite the crash (f = 1 tolerates it).
    ASSERT_FALSE(result.latency.empty());
    EXPECT_GT(result.latency.front().coverage, 0.7)
        << engine::protocol_name(protocol);
  }
}

TEST(Engine, CrossProtocolAgreementUnderSharedFaults) {
  // Drive the Deployment directly: both engines, same config shape, same
  // FaultSpec list; every surviving replica must agree on the committed
  // prefix within each deployment.
  for (const Protocol protocol : engine::kAllProtocols) {
    const harness::Scenario s = crash_scenario(protocol);
    Deployment deployment(s.to_deployment_config());
    deployment.start();
    deployment.run_for(s.duration);

    const auto& ledger0 = deployment.ledger(0);
    ASSERT_GT(ledger0.committed_blocks(), 10u)
        << engine::protocol_name(protocol);
    for (ReplicaId id = 1; id < 3; ++id) {  // replica 3 crashed
      const auto& ledger = deployment.ledger(id);
      const Height common =
          std::min(ledger0.tip().value_or(0), ledger.tip().value_or(0));
      ASSERT_GT(common, 0u);
      for (Height h = 1; h <= common; ++h) {
        ASSERT_EQ(ledger0.at(h).block_id, ledger.at(h).block_id)
            << engine::protocol_name(protocol) << " height " << h
            << " replica " << id;
      }
    }
  }
}

TEST(Engine, SilentFaultSuppressesAllTrafficOnBothProtocols) {
  for (const Protocol protocol : engine::kAllProtocols) {
    harness::Scenario s = crash_scenario(protocol);
    s.n = 7;
    s.faults.assign(7, FaultSpec::honest());
    s.faults[2] = FaultSpec::silent();
    Deployment deployment(s.to_deployment_config());
    deployment.start();
    deployment.run_for(seconds(8));
    EXPECT_GT(deployment.ledger(0).committed_blocks(), 5u)
        << engine::protocol_name(protocol);
    // Silent replicas stay synced (they receive) but never send: their
    // inbound counters grow while honest peers' ledgers keep growing.
    EXPECT_GT(deployment.engine(2).inbound_messages(), 0u);
    EXPECT_EQ(deployment.engine(2).fault().kind, FaultSpec::Kind::Silent);
    EXPECT_EQ(deployment.honest_count(), 6u);
  }
}

TEST(Engine, CorruptLinksDropFramesPreGstThenRecoverOnBothProtocols) {
  // FaultSpec::Corrupt end to end: replica 1's outbound links flip bits
  // until GST. Receivers reject the frames at the Envelope CRC (counted,
  // never crashing), and once GST passes the cluster commits normally —
  // byte-level loss is a pre-GST network fault, not a safety hazard.
  for (const Protocol protocol : engine::kAllProtocols) {
    harness::Scenario s = crash_scenario(protocol);
    s.faults.clear();
    s.gst = seconds(2);
    s.faults.resize(4);
    s.faults[1] = FaultSpec::corrupt_links({.rate = 1.0, .max_flips = 3,
                                            .peers = {}});
    const harness::ScenarioResult result = run_scenario(s);
    EXPECT_GT(result.corrupt_injected, 0u) << engine::protocol_name(protocol);
    EXPECT_GT(result.corrupt_drops, 0u) << engine::protocol_name(protocol);
    EXPECT_GT(result.summary.committed_blocks, 10u)
        << engine::protocol_name(protocol);
  }
}

TEST(Engine, CorruptSpecValidationRejectsNonsense) {
  harness::Scenario s = crash_scenario(Protocol::DiemBft);
  s.gst = seconds(1);
  s.faults.assign(4, FaultSpec::honest());
  s.faults[1] = FaultSpec::corrupt_links({.rate = 1.5, .max_flips = 1,
                                          .peers = {}});
  EXPECT_THROW(Deployment deployment(s.to_deployment_config()),
               std::invalid_argument);
  s.faults[1] = FaultSpec::corrupt_links({.rate = 1.0, .max_flips = 0,
                                          .peers = {}});
  EXPECT_THROW(Deployment deployment(s.to_deployment_config()),
               std::invalid_argument);
  s.faults[1] = FaultSpec::corrupt_links({.rate = 1.0, .max_flips = 2,
                                          .peers = {9}});
  EXPECT_THROW(Deployment deployment(s.to_deployment_config()),
               std::invalid_argument);
  s.faults[1] = FaultSpec::corrupt_links({.rate = 1.0, .max_flips = 2,
                                          .peers = {1}});
  EXPECT_THROW(Deployment deployment(s.to_deployment_config()),
               std::invalid_argument);
  // Corruption only acts pre-GST, so gst == 0 would make the fault a
  // silent no-op — the Deployment rejects the combination.
  s.faults[1] = FaultSpec::corrupt_links({.rate = 0.5, .max_flips = 2,
                                          .peers = {0, 2}});
  s.gst = 0;
  EXPECT_THROW(Deployment deployment(s.to_deployment_config()),
               std::invalid_argument);
  // A well-formed spec passes, and the corrupt replica still counts as
  // honest for liveness (the fault is in its links, not its behaviour).
  s.gst = seconds(1);
  Deployment deployment(s.to_deployment_config());
  EXPECT_EQ(deployment.honest_count(), 4u);
}

TEST(Engine, EnginesReportProtocolAndInboundBandwidth) {
  harness::Scenario s = crash_scenario(Protocol::Streamlet);
  s.faults.clear();
  Deployment deployment(s.to_deployment_config());
  deployment.start();
  deployment.run_for(seconds(3));
  const engine::ConsensusEngine& e = deployment.engine(0);
  EXPECT_EQ(e.protocol(), Protocol::Streamlet);
  EXPECT_EQ(e.id(), 0u);
  EXPECT_GT(e.current_round(), 0u);
  EXPECT_GT(e.inbound_bytes(), 0u);
  EXPECT_GE(e.inbound_bytes(), e.inbound_messages());  // every msg >= 1 byte
}

TEST(Engine, DemuxDropsUnparseableFramesOnEveryEngine) {
  // One inbound demux serves every engine, honest or Byzantine: a frame it
  // cannot parse counts exactly one decode drop and changes nothing else.
  constexpr ReplicaId kTarget = 1;
  for (const Protocol protocol : engine::kAllProtocols) {
    for (const bool byzantine : {false, true}) {
      SCOPED_TRACE(std::string(engine::protocol_name(protocol)) +
                   (byzantine ? " byzantine" : " honest"));
      harness::Scenario s = crash_scenario(protocol);
      s.faults.assign(4, FaultSpec::honest());
      if (byzantine) {
        s.faults[kTarget] =
            FaultSpec::byzantine({adversary::Strategy::AmnesiaVoter});
      }
      ASSERT_FALSE(s.dissemination);
      Deployment deployment(s.to_deployment_config());
      deployment.start();
      deployment.run_for(seconds(2));

      const WireType own_proposal =
          protocol == Protocol::Streamlet  ? WireType::kSProposal
          : protocol == Protocol::HotStuff ? WireType::kHProposal
                                           : WireType::kProposal;
      // A well-formed proposal under another stack's tag.
      const WireType foreign = protocol == Protocol::DiemBft
                                   ? WireType::kHProposal
                                   : WireType::kProposal;
      const Envelope frames[] = {
          Envelope::pack(foreign, 0, types::Proposal{}),
          Envelope::pack(WireType::kBatchPush, 0, dissem::BatchPush{}),
          Envelope{own_proposal, 0, Bytes{0xde, 0xad, 0xbe, 0xef}},
      };
      for (const Envelope& frame : frames) {
        const std::uint64_t drops = deployment.net_stats().decode_drops();
        deployment.transport().send(kTarget, frame);
        deployment.run_for(millis(100));
        EXPECT_EQ(deployment.net_stats().decode_drops(), drops + 1)
            << net::wire_type_name(frame.type);
      }

      const std::uint64_t committed =
          deployment.ledger(kTarget).committed_blocks();
      deployment.run_for(seconds(2));
      EXPECT_GT(deployment.ledger(kTarget).committed_blocks(), committed);
    }
  }
}

TEST(Engine, FbftBaselineRejectedOffDiemBft) {
  // The Appendix-B FBFT baseline is DiemBFT-specific; asking for it on any
  // other engine must fail loudly rather than silently run SFT.
  for (const Protocol protocol : {Protocol::Streamlet, Protocol::HotStuff}) {
    harness::Scenario s = crash_scenario(protocol);
    s.fbft = true;
    EXPECT_THROW(s.to_deployment_config(), std::invalid_argument)
        << engine::protocol_name(protocol);
  }
}

TEST(Engine, ChainedAccessorsServeBothChainedProtocols) {
  for (const Protocol protocol : {Protocol::DiemBft, Protocol::HotStuff}) {
    harness::Scenario s = crash_scenario(protocol);
    s.faults.clear();
    Deployment deployment(s.to_deployment_config());
    EXPECT_NO_THROW(deployment.chained_core(0));
    EXPECT_STREQ(deployment.chained_core(0).config().rules.name,
                 engine::protocol_name(protocol));
    EXPECT_THROW(deployment.streamlet_core(0), std::logic_error);
  }
  harness::Scenario s = crash_scenario(Protocol::Streamlet);
  s.faults.clear();
  Deployment deployment(s.to_deployment_config());
  EXPECT_THROW(deployment.chained_core(0), std::logic_error);
}

TEST(Deployment, RejectsTopologySizeMismatch) {
  DeploymentConfig config;
  config.n = 7;  // default topology is uniform(4): silently wrong before
  EXPECT_THROW(Deployment deployment(std::move(config)),
               std::invalid_argument);
}

TEST(Deployment, TypedAccessorsRejectWrongProtocol) {
  DeploymentConfig config;  // DiemBFT, n = 4 with matching default topology
  Deployment deployment(std::move(config));
  EXPECT_NO_THROW(deployment.diem_core(0));
  EXPECT_THROW(deployment.streamlet_core(0), std::logic_error);
}

}  // namespace
}  // namespace sftbft
