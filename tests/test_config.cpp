#include "core/config.hpp"

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

namespace rails::core {
namespace {

TEST(ClusterConfig, ParsesPresetsAndDirectives) {
  std::istringstream is(R"(
# the paper testbed
nodes 2
topology 2x2
strategy hetero-split
offload_signal_us 3.0
rail preset myri10g
rail preset qsnet2
)");
  const WorldConfig cfg = parse_world_config(is);
  EXPECT_EQ(cfg.fabric.node_count, 2u);
  EXPECT_EQ(cfg.fabric.topology.core_count(), 4u);
  EXPECT_EQ(cfg.strategy, "hetero-split");
  EXPECT_EQ(cfg.engine.offload.signal_cost, usec(3.0));
  ASSERT_EQ(cfg.fabric.rails.size(), 2u);
  EXPECT_EQ(cfg.fabric.rails[0].name, "myri10g");
  EXPECT_EQ(cfg.fabric.rails[1].name, "qsnet2");
}

TEST(ClusterConfig, ParsesCustomRail) {
  std::istringstream is(R"(
nodes 2
rail custom name=lab-net post_us=2.5 wire_latency_us=7 pio_bw=800 dma_bw=300 rdma=0
)");
  const WorldConfig cfg = parse_world_config(is);
  ASSERT_EQ(cfg.fabric.rails.size(), 1u);
  const auto& r = cfg.fabric.rails[0];
  EXPECT_EQ(r.name, "lab-net");
  EXPECT_DOUBLE_EQ(r.post_us, 2.5);
  EXPECT_DOUBLE_EQ(r.wire_latency_us, 7.0);
  EXPECT_DOUBLE_EQ(r.pio_bw_mbps, 800.0);
  EXPECT_DOUBLE_EQ(r.dma_bw_mbps, 300.0);
  EXPECT_FALSE(r.rdma);
  // Unspecified parameters keep their defaults.
  EXPECT_TRUE(r.gather_scatter);
}

TEST(ClusterConfig, CommentsAndBlanksIgnored) {
  std::istringstream is("rail preset ib-ddr # inline comment\n\n   \n# full line\n");
  const WorldConfig cfg = parse_world_config(is);
  ASSERT_EQ(cfg.fabric.rails.size(), 1u);
  EXPECT_EQ(cfg.fabric.rails[0].name, "ib-ddr");
}

TEST(ClusterConfig, RoundTripThroughSave) {
  std::istringstream is(R"(
nodes 4
topology 4x4
strategy iso-split
rdv_threshold 16384
rail preset myri10g
rail preset gige-tcp
)");
  const WorldConfig cfg = parse_world_config(is);
  std::stringstream ss;
  save_world_config(cfg, ss);
  const WorldConfig again = parse_world_config(ss);
  EXPECT_EQ(again.fabric.node_count, 4u);
  EXPECT_EQ(again.fabric.topology.sockets, 4u);
  EXPECT_EQ(again.strategy, "iso-split");
  EXPECT_EQ(again.engine.rdv_threshold_override, 16384u);
  ASSERT_EQ(again.fabric.rails.size(), 2u);
  EXPECT_EQ(again.fabric.rails[0].name, "myri10g");
  EXPECT_DOUBLE_EQ(again.fabric.rails[0].dma_bw_mbps, cfg.fabric.rails[0].dma_bw_mbps);
  EXPECT_DOUBLE_EQ(again.fabric.rails[1].rdv_handshake_us,
                   cfg.fabric.rails[1].rdv_handshake_us);
}

TEST(ClusterConfig, RecalibrationDirectivesRoundTrip) {
  std::istringstream is(R"(
nodes 2
recalibration 1
rail preset myri10g
rail preset qsnet2
)");
  const WorldConfig cfg = parse_world_config(is);
  EXPECT_TRUE(cfg.engine.recalibration.enabled);

  std::stringstream ss;
  save_world_config(cfg, ss);
  const WorldConfig again = parse_world_config(ss);
  EXPECT_TRUE(again.engine.recalibration.enabled);
  // The detector's tuning is not part of the file format: a loaded config
  // runs the built-in defaults.
  const sampling::RecalibrationConfig defaults;
  EXPECT_DOUBLE_EQ(again.engine.recalibration.ewma_alpha, defaults.ewma_alpha);
  EXPECT_EQ(again.engine.recalibration.window, defaults.window);
  EXPECT_EQ(again.engine.recalibration.resample_interval, defaults.resample_interval);
}

TEST(ClusterConfig, QosDirectivesRoundTrip) {
  std::istringstream is(R"(
nodes 2
qos 1
qos_quantum 32768
qos_aging_us 750
qos_class name=latency weight=8 strict=1 capacity=512 deadline_us=500
qos_class name=gold weight=3 capacity=2048
qos_class name=background weight=0.5 capacity=64
rail preset myri10g
rail preset qsnet2
)");
  const WorldConfig cfg = parse_world_config(is);
  EXPECT_TRUE(cfg.engine.qos.enabled);
  EXPECT_EQ(cfg.engine.qos.quantum, 32768u);
  EXPECT_EQ(cfg.engine.qos.aging, usec(750.0));
  ASSERT_EQ(cfg.engine.qos.classes.size(), 3u);  // declared set replaces built-ins
  EXPECT_EQ(cfg.engine.qos.classes[0].name, "latency");
  EXPECT_DOUBLE_EQ(cfg.engine.qos.classes[0].weight, 8.0);
  EXPECT_TRUE(cfg.engine.qos.classes[0].strict_priority);
  EXPECT_EQ(cfg.engine.qos.classes[0].queue_capacity, 512u);
  EXPECT_EQ(cfg.engine.qos.classes[0].default_deadline, usec(500.0));
  EXPECT_EQ(cfg.engine.qos.classes[1].name, "gold");
  EXPECT_DOUBLE_EQ(cfg.engine.qos.classes[1].weight, 3.0);
  EXPECT_FALSE(cfg.engine.qos.classes[1].strict_priority);
  EXPECT_EQ(cfg.engine.qos.classes[1].queue_capacity, 2048u);
  EXPECT_DOUBLE_EQ(cfg.engine.qos.classes[2].weight, 0.5);

  std::stringstream ss;
  save_world_config(cfg, ss);
  const WorldConfig again = parse_world_config(ss);
  EXPECT_TRUE(again.engine.qos.enabled);
  EXPECT_EQ(again.engine.qos.quantum, 32768u);
  EXPECT_EQ(again.engine.qos.aging, usec(750.0));
  ASSERT_EQ(again.engine.qos.classes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(again.engine.qos.classes[i].name, cfg.engine.qos.classes[i].name);
    EXPECT_DOUBLE_EQ(again.engine.qos.classes[i].weight,
                     cfg.engine.qos.classes[i].weight);
    EXPECT_EQ(again.engine.qos.classes[i].strict_priority,
              cfg.engine.qos.classes[i].strict_priority);
    EXPECT_EQ(again.engine.qos.classes[i].queue_capacity,
              cfg.engine.qos.classes[i].queue_capacity);
    EXPECT_EQ(again.engine.qos.classes[i].default_deadline,
              cfg.engine.qos.classes[i].default_deadline);
  }
}

TEST(ClusterConfig, ReliabilityDirectivesRoundTrip) {
  std::istringstream is(R"(
nodes 2
reliability 1
rail preset myri10g
rail preset qsnet2
)");
  const WorldConfig cfg = parse_world_config(is);
  EXPECT_TRUE(cfg.engine.reliability.enabled);

  std::stringstream ss;
  save_world_config(cfg, ss);
  const WorldConfig again = parse_world_config(ss);
  EXPECT_TRUE(again.engine.reliability.enabled);
}

TEST(ClusterConfig, FaultDirectivesRoundTrip) {
  std::istringstream is(R"(
nodes 2
fault_seed 42
fault rail=1 drop=0.02 corrupt=0.001 dup=0.01 reorder=4
fault rail=0 node=1 at_us=50 duration_us=200 drop=0.5
rail preset myri10g
rail preset qsnet2
)");
  const WorldConfig cfg = parse_world_config(is);
  EXPECT_EQ(cfg.fabric.fault_seed, 42u);
  // The first line fans out into one RailFault per kind present.
  ASSERT_EQ(cfg.fabric.faults.size(), 5u);
  EXPECT_EQ(cfg.fabric.faults[0].rail, 1);
  EXPECT_EQ(cfg.fabric.faults[0].node, -1);  // every node
  EXPECT_EQ(cfg.fabric.faults[0].spec.kind, fabric::FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(cfg.fabric.faults[0].spec.rate, 0.02);
  EXPECT_EQ(cfg.fabric.faults[1].spec.kind, fabric::FaultKind::kCorrupt);
  EXPECT_DOUBLE_EQ(cfg.fabric.faults[1].spec.rate, 0.001);
  EXPECT_EQ(cfg.fabric.faults[2].spec.kind, fabric::FaultKind::kDup);
  EXPECT_DOUBLE_EQ(cfg.fabric.faults[2].spec.rate, 0.01);
  EXPECT_EQ(cfg.fabric.faults[3].spec.kind, fabric::FaultKind::kReorder);
  EXPECT_EQ(cfg.fabric.faults[3].spec.reorder_window, 4u);
  EXPECT_EQ(cfg.fabric.faults[4].rail, 0);
  EXPECT_EQ(cfg.fabric.faults[4].node, 1);
  EXPECT_EQ(cfg.fabric.faults[4].spec.at, usec(50.0));
  EXPECT_EQ(cfg.fabric.faults[4].spec.duration, usec(200.0));
  EXPECT_DOUBLE_EQ(cfg.fabric.faults[4].spec.rate, 0.5);

  std::stringstream ss;
  save_world_config(cfg, ss);
  const WorldConfig again = parse_world_config(ss);
  EXPECT_EQ(again.fabric.fault_seed, 42u);
  ASSERT_EQ(again.fabric.faults.size(), cfg.fabric.faults.size());
  for (std::size_t i = 0; i < again.fabric.faults.size(); ++i) {
    EXPECT_EQ(again.fabric.faults[i].rail, cfg.fabric.faults[i].rail) << i;
    EXPECT_EQ(again.fabric.faults[i].node, cfg.fabric.faults[i].node) << i;
    EXPECT_EQ(again.fabric.faults[i].spec.kind, cfg.fabric.faults[i].spec.kind) << i;
    EXPECT_DOUBLE_EQ(again.fabric.faults[i].spec.rate,
                     cfg.fabric.faults[i].spec.rate)
        << i;
    EXPECT_EQ(again.fabric.faults[i].spec.reorder_window,
              cfg.fabric.faults[i].spec.reorder_window)
        << i;
    EXPECT_EQ(again.fabric.faults[i].spec.at, cfg.fabric.faults[i].spec.at) << i;
    EXPECT_EQ(again.fabric.faults[i].spec.duration,
              cfg.fabric.faults[i].spec.duration)
        << i;
  }
}

TEST(ClusterConfig, ReliabilityDefaultsStayInert) {
  std::istringstream is("nodes 2\nrail preset myri10g\n");
  const WorldConfig cfg = parse_world_config(is);
  EXPECT_FALSE(cfg.engine.reliability.enabled);
  EXPECT_TRUE(cfg.fabric.faults.empty());
  EXPECT_EQ(cfg.fabric.fault_seed, 0u);
}

TEST(ClusterConfig, QosDefaultsStayInert) {
  std::istringstream is("nodes 2\nrail preset myri10g\n");
  const WorldConfig cfg = parse_world_config(is);
  EXPECT_FALSE(cfg.engine.qos.enabled);
  EXPECT_TRUE(cfg.engine.qos.classes.empty());  // built-ins apply lazily
}

TEST(ClusterConfig, ConfigBuildsWorkingWorld) {
  std::istringstream is(R"(
nodes 2
strategy hetero-split
sampler_max_size 1048576
rail preset myri10g
rail preset qsnet2
)");
  core::World world(parse_world_config(is));
  EXPECT_EQ(world.fabric().rail_count(), 2u);
  EXPECT_GT(world.measure_bandwidth(512_KiB, 1), 1000.0);
}

TEST(ClusterConfig, NetworkTopologyDirectivesRoundTrip) {
  std::istringstream is(R"(
topology 2x2
topology torus 4x4
event_sharding 1
strategy hetero-split
rail preset seastar-torus
rail preset qsnet2
)");
  const WorldConfig cfg = parse_world_config(is);
  EXPECT_EQ(cfg.fabric.net.kind, topo::TopoKind::kTorus2D);
  EXPECT_EQ(cfg.fabric.net.width, 4u);
  EXPECT_EQ(cfg.fabric.net.height, 4u);
  EXPECT_EQ(cfg.fabric.node_count, 16u);  // the grid implies the node count
  EXPECT_TRUE(cfg.fabric.event_sharding);
  EXPECT_EQ(cfg.fabric.topology.sockets, 2u);  // machine form still parses

  std::stringstream ss;
  save_world_config(cfg, ss);
  const WorldConfig again = parse_world_config(ss);
  EXPECT_EQ(again.fabric.net.kind, topo::TopoKind::kTorus2D);
  EXPECT_EQ(again.fabric.net.width, 4u);
  EXPECT_EQ(again.fabric.node_count, 16u);
  EXPECT_TRUE(again.fabric.event_sharding);
}

TEST(ClusterConfig, FatTreeDirectiveRoundTrip) {
  std::istringstream is(R"(
nodes 64
topology fattree 16x8
strategy hetero-split
rail preset ib-ddr
)");
  const WorldConfig cfg = parse_world_config(is);
  EXPECT_EQ(cfg.fabric.net.kind, topo::TopoKind::kFatTree2L);
  EXPECT_EQ(cfg.fabric.net.down_ports, 16u);
  EXPECT_EQ(cfg.fabric.net.up_ports, 8u);
  EXPECT_EQ(cfg.fabric.node_count, 64u);  // `nodes` stays authoritative

  std::stringstream ss;
  save_world_config(cfg, ss);
  const WorldConfig again = parse_world_config(ss);
  EXPECT_EQ(again.fabric.net.down_ports, 16u);
  EXPECT_EQ(again.fabric.net.up_ports, 8u);
  EXPECT_FALSE(again.fabric.event_sharding);  // off stays implicit
}

TEST(ClusterConfig, MeshExampleConfigBuildsWorkingWorld) {
  const WorldConfig cfg =
      load_world_config(std::string(RAILS_REPO_CONFIG_DIR) + "/mesh.rails");
  EXPECT_EQ(cfg.fabric.net.kind, topo::TopoKind::kMesh2D);
  EXPECT_EQ(cfg.fabric.node_count, 16u);
  EXPECT_TRUE(cfg.fabric.event_sharding);
  core::World world(cfg);
  EXPECT_EQ(world.fabric().node_count(), 16u);
  EXPECT_EQ(world.fabric().events().shard_count(), 16u);
  EXPECT_GT(world.measure_bandwidth(512_KiB, 1), 500.0);
}

TEST(ClusterConfig, EveryShippedConfigBuildsAWorldAndRoundTrips) {
  // Every example under configs/ must load, build a World, and survive
  // save -> parse -> save unchanged, so an edit to the format or to a file
  // cannot leave a shipped config unloadable.
  std::size_t checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(RAILS_REPO_CONFIG_DIR))) {
    if (entry.path().extension() != ".rails") continue;
    SCOPED_TRACE(entry.path().filename().string());
    const WorldConfig cfg = load_world_config(entry.path().string());
    core::World world(cfg);
    EXPECT_EQ(world.fabric().node_count(), cfg.fabric.node_count);
    EXPECT_EQ(world.fabric().rail_count(), cfg.fabric.rails.size());

    std::stringstream first;
    save_world_config(cfg, first);
    const std::string saved = first.str();
    std::stringstream second;
    save_world_config(parse_world_config(first), second);
    EXPECT_EQ(second.str(), saved);
    ++checked;
  }
  EXPECT_GE(checked, 7u);
}

TEST(ClusterConfigDeath, TopologyBadKind) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("topology ring 8\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "topology");
}

TEST(ClusterConfigDeath, MeshMissingDims) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("topology mesh 16\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "WxH");
}

TEST(ClusterConfigDeath, GridExtentOverflow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // 65536 x 65537 nodes is 2^32 + 65536: it must not wrap to a 65,536-node
  // world. Only the parser runs; no Topology is built from these extents.
  std::istringstream is("rail preset myri10g\ntopology torus 65536x65537\n");
  EXPECT_DEATH(parse_world_config(is), "line 2: network topology extent overflows");
}

TEST(ClusterConfigDeath, UnknownDirective) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("bogus 7\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
  std::istringstream late("rail preset myri10g\nbogus 7\n");
  EXPECT_DEATH(parse_world_config(late), "line 2: unknown directive 'bogus'");
  // A retired directive is unknown too, not silently ignored.
  std::istringstream retired("rail preset myri10g\nqos_deadline_downgrade 1\n");
  EXPECT_DEATH(parse_world_config(retired),
               "line 2: unknown directive 'qos_deadline_downgrade'");
  std::istringstream failover("rail preset myri10g\nfailover 1\n");
  EXPECT_DEATH(parse_world_config(failover), "line 2: unknown directive 'failover'");
}

// Each malformed value fails with its line number: none is read as 0 or
// escapes as an exception from the number conversion.
TEST(ClusterConfigDeath, ScalarThatIsNotANumber) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("rail preset myri10g\nrdv_threshold abc\n");
  EXPECT_DEATH(parse_world_config(is), "line 2: rdv_threshold needs a number, got 'abc'");
}

TEST(ClusterConfigDeath, ScalarWithTrailingGarbage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("rail preset myri10g\nnodes 2x\n");
  EXPECT_DEATH(parse_world_config(is), "line 2: nodes needs a number, got '2x'");
  std::istringstream two("rail preset myri10g\nnodes 2 3\n");
  EXPECT_DEATH(parse_world_config(two), "line 2: nodes takes one value, got '3'");
}

TEST(ClusterConfigDeath, NegativeTime) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("rail preset myri10g\noffload_signal_us -5\n");
  EXPECT_DEATH(parse_world_config(is), "line 2: offload_signal_us must not be negative");
}

TEST(ClusterConfigDeath, FaultKeyThatIsNotANumber) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("rail preset myri10g\nfault rail=x drop=0.1\n");
  EXPECT_DEATH(parse_world_config(is), "line 2: rail needs a number, got 'x'");
}

TEST(ClusterConfigDeath, QosClassKeyThatIsNotANumber) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("rail preset myri10g\nqos_class name=a weight=abc\n");
  EXPECT_DEATH(parse_world_config(is), "line 2: weight needs a number, got 'abc'");
}

TEST(ClusterConfigDeath, UnknownPreset) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("rail preset carrier-pigeon\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

TEST(ClusterConfigDeath, NoRails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("nodes 2\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

TEST(ClusterConfigDeath, BadKeyValue) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("rail custom name\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

TEST(ClusterConfigDeath, QosQuantumZero) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("qos_quantum 0\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

TEST(ClusterConfigDeath, QosClassMissingName) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("qos_class weight=2\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

TEST(ClusterConfigDeath, QosClassNonPositiveWeight) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("qos_class name=x weight=0\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

TEST(ClusterConfigDeath, QosClassUnknownParameter) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("qos_class name=x color=red\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
  // high= and low= (watermarks) are not qos_class parameters.
  for (const char* key : {"high=48", "low=16"}) {
    std::istringstream retired(std::string("qos_class name=x ") + key +
                               "\nrail preset myri10g\n");
    EXPECT_DEATH(parse_world_config(retired), "unknown qos_class parameter");
  }
}

TEST(ClusterConfigDeath, FaultRateOutOfRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("fault rail=0 drop=1.5\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

TEST(ClusterConfigDeath, FaultWithoutRail) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("fault drop=0.1\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

TEST(ClusterConfigDeath, FaultWithoutAnyKind) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("fault rail=0 at_us=10\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

TEST(ClusterConfig, HealthPlaneDirectivesRoundTrip) {
  std::istringstream is(R"(
nodes 2
qos 1
timeseries 1
slo latency hit_rate=0.995 window_us=8000 fast_window_us=2000
slo gold p99_us=1500 hit_rate=0.95 window_us=12000 fast_burn=10 slow_burn=4 patience=5 min_events=16
rail preset myri10g
rail preset qsnet2
)");
  const WorldConfig cfg = parse_world_config(is);
  EXPECT_TRUE(cfg.engine.timeseries.enabled);
  ASSERT_EQ(cfg.engine.slos.size(), 2u);
  EXPECT_EQ(cfg.engine.slos[0].cls, "latency");
  EXPECT_DOUBLE_EQ(cfg.engine.slos[0].hit_rate, 0.995);
  EXPECT_DOUBLE_EQ(cfg.engine.slos[0].p99_us, 0.0);
  EXPECT_EQ(cfg.engine.slos[0].window, usec(8000.0));
  EXPECT_EQ(cfg.engine.slos[0].fast_window, usec(2000.0));
  EXPECT_EQ(cfg.engine.slos[1].cls, "gold");
  EXPECT_DOUBLE_EQ(cfg.engine.slos[1].p99_us, 1500.0);
  EXPECT_DOUBLE_EQ(cfg.engine.slos[1].fast_burn, 10.0);
  EXPECT_DOUBLE_EQ(cfg.engine.slos[1].slow_burn, 4.0);
  EXPECT_EQ(cfg.engine.slos[1].clear_patience, 5u);
  EXPECT_EQ(cfg.engine.slos[1].min_events, 16u);

  std::stringstream ss;
  save_world_config(cfg, ss);
  const WorldConfig again = parse_world_config(ss);
  EXPECT_TRUE(again.engine.timeseries.enabled);
  ASSERT_EQ(again.engine.slos.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(again.engine.slos[i].cls, cfg.engine.slos[i].cls);
    EXPECT_DOUBLE_EQ(again.engine.slos[i].p99_us, cfg.engine.slos[i].p99_us);
    EXPECT_DOUBLE_EQ(again.engine.slos[i].hit_rate, cfg.engine.slos[i].hit_rate);
    EXPECT_EQ(again.engine.slos[i].window, cfg.engine.slos[i].window);
    EXPECT_EQ(again.engine.slos[i].fast_window, cfg.engine.slos[i].fast_window);
    EXPECT_DOUBLE_EQ(again.engine.slos[i].fast_burn, cfg.engine.slos[i].fast_burn);
    EXPECT_DOUBLE_EQ(again.engine.slos[i].slow_burn, cfg.engine.slos[i].slow_burn);
    EXPECT_EQ(again.engine.slos[i].clear_patience, cfg.engine.slos[i].clear_patience);
    EXPECT_EQ(again.engine.slos[i].min_events, cfg.engine.slos[i].min_events);
  }
}

TEST(ClusterConfig, HealthPlaneDefaultsStayInert) {
  std::istringstream is("nodes 2\nrail preset myri10g\n");
  const WorldConfig cfg = parse_world_config(is);
  EXPECT_FALSE(cfg.engine.timeseries.enabled);
  EXPECT_TRUE(cfg.engine.slos.empty());
}

TEST(ClusterConfig, SloExampleConfigRoundTrips) {
  // The checked-in example the docs and railsctl smokes use must load,
  // round-trip through save, and build a working world.
  const WorldConfig cfg =
      load_world_config(std::string(RAILS_REPO_CONFIG_DIR) + "/slo.rails");
  EXPECT_TRUE(cfg.engine.qos.enabled);
  EXPECT_TRUE(cfg.engine.timeseries.enabled);
  ASSERT_EQ(cfg.engine.slos.size(), 2u);
  EXPECT_EQ(cfg.engine.slos[0].cls, "latency");
  EXPECT_EQ(cfg.engine.slos[1].cls, "gold");

  std::stringstream ss;
  save_world_config(cfg, ss);
  const WorldConfig again = parse_world_config(ss);
  EXPECT_EQ(again.engine.slos.size(), cfg.engine.slos.size());
  EXPECT_EQ(again.engine.timeseries.enabled, cfg.engine.timeseries.enabled);
  EXPECT_EQ(again.engine.qos.classes.size(), cfg.engine.qos.classes.size());
}

TEST(ClusterConfigDeath, SloWithoutObjective) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("slo gold window_us=5000\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

TEST(ClusterConfigDeath, SloHitRateOutOfRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("slo gold hit_rate=1.0\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

TEST(ClusterConfigDeath, SloUnknownParameter) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::istringstream is("slo gold hit_rate=0.9 color=red\nrail preset myri10g\n");
  EXPECT_DEATH(parse_world_config(is), "malformed");
}

}  // namespace
}  // namespace rails::core
