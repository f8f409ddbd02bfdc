// Topology invariants and the sharded event queue's exactness.
//
// The routing claims (dimension-order determinism, up-down loop-freedom,
// allocation-free arithmetic) are checked structurally by walking next_hop
// over every pair, not spot-checked; the sharded EventQueue is held to the
// strongest possible standard — a bit-identical delivery log against the
// single-queue run of the same world, on every routed shape.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "fabric/event_queue.hpp"
#include "fabric/fabric.hpp"
#include "fabric/presets.hpp"
#include "perf/profiler.hpp"
#include "topo/topology.hpp"

using namespace rails;
using topo::Coord;
using topo::Hop;
using topo::TopoKind;
using topo::Topology;
using topo::TopologySpec;

namespace {

// Read through an out-of-line call: an inlined thread_local read trips a
// GCC 12 UBSan false positive.
[[gnu::noinline]] std::uint64_t allocs_so_far() { return perf::t_alloc_count; }

// The route src -> dst as the hop list next_hop yields, step by step.
std::vector<Hop> walk(const Topology& t, NodeId src, NodeId dst) {
  std::vector<Hop> path;
  for (std::uint32_t at = src; at != dst && path.size() <= t.vertex_count();) {
    path.push_back(t.next_hop(at, dst));
    at = path.back().to;
  }
  return path;
}

TEST(TopologySpec, PresetNodeCounts) {
  EXPECT_EQ(TopologySpec::mesh(4, 4).preset_nodes(), 16u);
  EXPECT_EQ(TopologySpec::torus(16, 16).preset_nodes(), 256u);
  EXPECT_EQ(TopologySpec::flat().preset_nodes(), 0u);
  EXPECT_EQ(TopologySpec::fat_tree(16, 8).preset_nodes(), 0u);
}

TEST(Mesh, CoordinateRoundTrip) {
  const Topology t(TopologySpec::mesh(5, 3), 15);
  for (NodeId n = 0; n < 15; ++n) {
    const Coord c = t.coord_of(n);
    EXPECT_LT(c.x, 5u);
    EXPECT_LT(c.y, 3u);
    EXPECT_EQ(t.node_at(c), n);
  }
  // x is the fast dimension: node 7 of a 5-wide grid sits at (2, 1).
  EXPECT_EQ(t.coord_of(7).x, 2u);
  EXPECT_EQ(t.coord_of(7).y, 1u);
}

TEST(Torus, CoordinateRoundTrip) {
  const Topology t(TopologySpec::torus(4, 4), 16);
  for (NodeId n = 0; n < 16; ++n) EXPECT_EQ(t.node_at(t.coord_of(n)), n);
}

// Manhattan distance on the mesh; wrap-aware distance on the torus.
std::uint32_t grid_distance(const Topology& t, NodeId a, NodeId b) {
  const Coord ca = t.coord_of(a);
  const Coord cb = t.coord_of(b);
  const auto axis = [&](std::uint32_t from, std::uint32_t to, std::uint32_t extent) {
    const std::uint32_t d = from > to ? from - to : to - from;
    return t.kind() == TopoKind::kTorus2D ? std::min(d, extent - d) : d;
  };
  return axis(ca.x, cb.x, t.spec().width) + axis(ca.y, cb.y, t.spec().height);
}

TEST(Mesh, DimensionOrderRoutesAreMinimalAndXFirst) {
  const Topology t(TopologySpec::mesh(4, 4), 16);
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s == d) continue;
      const std::vector<Hop> p = walk(t, s, d);
      EXPECT_EQ(p.size(), grid_distance(t, s, d)) << s << "->" << d;
      EXPECT_EQ(p.size(), t.hops(s, d)) << s << "->" << d;
      EXPECT_EQ(p.back().to, d);
      EXPECT_LE(p.size(), t.diameter_hops());
      // X resolves before Y ever moves: once the y coordinate changes, the
      // x coordinate must already match the destination's.
      const std::uint32_t src_y = t.coord_of(s).y;
      for (const Hop& h : p) {
        const Coord c = t.coord_of(h.to);
        if (c.y != src_y) {
          EXPECT_EQ(c.x, t.coord_of(d).x);
        }
      }
    }
  }
}

TEST(Mesh, RoutesAreDeterministic) {
  // (1,0) -> (2,3) on the 4x4 mesh: +x once, then +y three times. Link id
  // = source vertex * 4 + direction (+x = 0, +y = 2).
  const std::vector<Hop> expected = {{2, 4}, {6, 10}, {10, 26}, {14, 42}};
  const Topology t(TopologySpec::mesh(4, 4), 16);
  EXPECT_EQ(walk(t, 1, 14), expected);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(walk(t, 1, 14), expected);
  EXPECT_EQ(walk(Topology(TopologySpec::mesh(4, 4), 16), 1, 14), expected);
}

TEST(Torus, WrapAroundTakesTheShortWay) {
  const Topology t(TopologySpec::torus(4, 4), 16);
  // (0,0) -> (3,0): one -x wrap hop (link 0 * 4 + 1), not three +x hops.
  EXPECT_EQ(t.hops(0, 3), 1u);
  EXPECT_EQ(t.next_hop(0, 3), (Hop{3, 1}));
  // 0 -> 2 is two hops either way round the 4-wide ring: the tie goes to
  // +x, and the same tie on the Y ring, (0,0) -> (0,2), to +y (link 2).
  EXPECT_EQ(walk(t, 0, 2), (std::vector<Hop>{{1, 0}, {2, 4}}));
  EXPECT_EQ(t.next_hop(0, 8), (Hop{4, 2}));
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s == d) continue;
      EXPECT_EQ(walk(t, s, d).size(), grid_distance(t, s, d));
      EXPECT_EQ(t.hops(s, d), grid_distance(t, s, d));
      EXPECT_LE(t.hops(s, d), t.diameter_hops());
    }
  }
}

// Walks next_hop over every ordered pair of a freshly built topology and
// checks each walk against hops() and for revisits, with the allocation
// hook counting across the whole sweep: routing must be pure arithmetic.
void expect_walks_are_arithmetic(const Topology& t) {
  const std::uint32_t n = t.node_count();
  std::vector<std::uint64_t> stamp(t.vertex_count(), 0);  // pair id per vertex
  std::uint64_t pair = 0;
  std::uint64_t wrong_length = 0;
  std::uint64_t revisits = 0;
  std::uint64_t bad_links = 0;
  const std::uint64_t before = allocs_so_far();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      ++pair;
      stamp[s] = pair;
      std::uint32_t len = 0;
      for (std::uint32_t at = s; at != d && len <= t.vertex_count(); ++len) {
        const Hop h = t.next_hop(at, d);
        if (h.link >= t.link_count()) ++bad_links;
        if (stamp[h.to] == pair) ++revisits;
        stamp[h.to] = pair;
        at = h.to;
      }
      if (len != t.hops(s, d) || len > t.diameter_hops()) ++wrong_length;
    }
  }
  const std::uint64_t allocs = allocs_so_far() - before;
  EXPECT_EQ(pair, static_cast<std::uint64_t>(n) * (n - 1));
  EXPECT_EQ(wrong_length, 0u);
  EXPECT_EQ(revisits, 0u);
  EXPECT_EQ(bad_links, 0u);
  EXPECT_EQ(allocs, 0u) << allocs << " allocations while routing " << pair << " pairs";
}

TEST(Routing, TorusWalksAreArithmeticFromCold) {
  expect_walks_are_arithmetic(Topology(TopologySpec::torus(16, 16), 256));
}

TEST(Routing, FatTreeWalksAreArithmeticFromCold) {
  // 30 nodes on 8-port leaves: the last leaf is partial (6 nodes).
  expect_walks_are_arithmetic(Topology(TopologySpec::fat_tree(8, 4), 30));
}

TEST(FatTree, UpDownRoutesAreLoopFree) {
  const std::uint32_t nodes = 32;
  const Topology t(TopologySpec::fat_tree(8, 4), nodes);
  EXPECT_EQ(t.switch_count(), 4u + 4u);  // 4 leaves + 4 roots
  // Vertex level: node = 0, leaf = 1, root = 2. Up-down means the level
  // profile along a path climbs, then only descends — no valley, no loop.
  const auto level = [&](std::uint32_t v) {
    if (v < nodes) return 0;
    return v < nodes + 4 ? 1 : 2;
  };
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      if (s == d) continue;
      const std::vector<Hop> p = walk(t, s, d);
      EXPECT_EQ(p.back().to, d);
      EXPECT_LE(p.size(), t.diameter_hops());
      std::set<std::uint32_t> seen{s};
      bool descending = false;
      std::uint32_t cur_level = 0;
      for (const Hop& h : p) {
        EXPECT_TRUE(seen.insert(h.to).second) << "vertex revisited " << s << "->" << d;
        const std::uint32_t l = static_cast<std::uint32_t>(level(h.to));
        if (l < cur_level) descending = true;
        EXPECT_FALSE(descending && l > cur_level) << "up after down " << s << "->" << d;
        cur_level = l;
      }
      // Same leaf: 2 hops through it. Different leaf: 4 hops via one root.
      EXPECT_EQ(p.size(), s / 8 == d / 8 ? 2u : 4u);
      EXPECT_EQ(t.hops(s, d), p.size());
    }
  }
}

TEST(FatTree, RootChoiceSpreadsByDestination) {
  const Topology t(TopologySpec::fat_tree(8, 4), 32);
  // Destinations in different residue classes cross different roots.
  std::set<std::uint32_t> roots;
  for (NodeId d = 8; d < 12; ++d) {  // same leaf, four residues
    const std::vector<Hop> p = walk(t, 0, d);
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p[1].to, 32u + 4u + d % 4);  // root vertex N + leaves + dst % roots
    roots.insert(p[1].to);
  }
  EXPECT_EQ(roots.size(), 4u);
}

TEST(EventQueue, ShardedPopsInGlobalTimeSeqOrder) {
  // The same schedule fed to a single-shard and an 8-shard queue must pop
  // identically: global (time, seq) order, ties by insertion.
  const auto run = [](std::uint32_t shards) {
    fabric::EventQueue q;
    if (shards > 1) q.configure_shards(shards, /*horizon=*/100);
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) {
      const SimTime when = (i * 37) % 19;  // clustered, with many ties
      q.at_node(when, static_cast<NodeId>(i % 11), [i, &order] { order.push_back(i); });
    }
    q.run_all();
    return order;
  };
  const std::vector<int> single = run(1);
  const std::vector<int> sharded = run(8);
  EXPECT_EQ(single, sharded);
  ASSERT_EQ(single.size(), 64u);
}

// Self-rescheduling ticker: re-arms through at(), so with a sharded queue
// it stays on the shard it started on without ever naming it.
struct Ticker {
  fabric::EventQueue* q;
  std::vector<std::pair<SimTime, int>>* log;
  int n;
  SimDuration period;
  int remaining;
  void operator()() {
    log->emplace_back(q->now(), n);
    if (--remaining > 0) q->after(period, *this);
  }
};

TEST(EventQueue, ShardedSelfSchedulingStaysOrdered) {
  fabric::EventQueue q;
  q.configure_shards(4, 10);
  std::vector<std::pair<SimTime, int>> log;
  for (int n = 0; n < 4; ++n) {
    q.at_node(0, static_cast<NodeId>(n), Ticker{&q, &log, n, 3 + n, 50});
  }
  q.run_all();
  ASSERT_EQ(log.size(), 200u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].first, log[i].first);
  }
  EXPECT_GT(q.shard_switches(), 0u);
}

// One delivery observation, bit-exact comparable across runs.
using RxRecord = std::tuple<SimTime, std::uint64_t, NodeId, NodeId, RailId, std::size_t>;

std::vector<RxRecord> run_routed_world(const TopologySpec& net, std::uint32_t nodes,
                                       bool sharded) {
  fabric::FabricConfig cfg;
  cfg.node_count = nodes;
  cfg.rails = {fabric::seastar_torus(), fabric::qsnet2()};
  cfg.net = net;
  cfg.event_sharding = sharded;
  cfg.fault_seed = 42;  // fixed seed: the replay must be bit-identical
  // A little data-plane chaos so the log is not trivially ordered.
  fabric::FabricConfig::RailFault f;
  f.rail = 0;
  f.spec.kind = fabric::FaultKind::kReorder;
  f.spec.rate = 0.2;
  f.spec.reorder_window = 3;
  cfg.faults.push_back(f);

  fabric::Fabric fab(std::move(cfg));
  std::vector<RxRecord> log;
  for (NodeId n = 0; n < nodes; ++n) {
    fab.set_rx_handler(n, [&log, &fab, n](fabric::Segment&& seg) {
      log.emplace_back(fab.now(), seg.msg_id, seg.src, n, seg.rail,
                       seg.payload.size());
    });
  }
  std::uint64_t msg_id = 1;
  for (int round = 0; round < 3; ++round) {
    for (NodeId src = 0; src < nodes; ++src) {
      for (std::uint32_t k = 1; k <= 5; k += 2) {
        fabric::Segment seg;
        seg.kind = fabric::SegKind::kEager;
        seg.src = src;
        seg.dst = (src + k + round) % nodes;
        if (seg.dst == src) continue;
        seg.rail = static_cast<RailId>(k % 2);
        seg.msg_id = msg_id++;
        seg.payload.assign(64 + 512 * (round + 1), static_cast<std::uint8_t>(src));
        fab.nic(src, seg.rail).post(std::move(seg), fab.now());
      }
    }
    fab.events().run_all();
  }
  EXPECT_GT(fab.forwarded_segments(), 0u);  // routes really were multi-hop
  EXPECT_EQ(fab.events().handler_spills(), 0u);
  if (sharded) {
    EXPECT_EQ(fab.events().shard_count(), nodes);
    EXPECT_GT(fab.events().horizon(), 0);
  }
  return log;
}

TEST(ShardedQueue, BitIdenticalReplayAgainstSingleQueue) {
  // The 4x4 torus; a 5x4 torus, whose even ring has ties and whose odd ring
  // has none; and a 30-node fat-tree whose last leaf is partial, so segments
  // are forwarded through switch vertices (which ride the destination's
  // shard).
  const std::vector<std::pair<TopologySpec, std::uint32_t>> shapes = {
      {TopologySpec::torus(4, 4), 16},
      {TopologySpec::torus(5, 4), 20},
      {TopologySpec::fat_tree(8, 4), 30},
  };
  for (const auto& [net, nodes] : shapes) {
    SCOPED_TRACE(Topology(net, nodes).describe());
    const std::vector<RxRecord> single = run_routed_world(net, nodes, false);
    const std::vector<RxRecord> sharded = run_routed_world(net, nodes, true);
    ASSERT_FALSE(single.empty());
    EXPECT_EQ(single, sharded);
  }
}

TEST(RoutedFabric, ExtraPathLatencyMatchesHopCount) {
  fabric::FabricConfig cfg;
  cfg.node_count = 16;
  cfg.rails = {fabric::seastar_torus()};
  cfg.net = TopologySpec::mesh(4, 4);
  fabric::Fabric fab(std::move(cfg));
  // 0 -> 15 crosses 6 links on the 4x4 mesh: 5 beyond the NIC's own hop.
  EXPECT_EQ(fab.path_hops(0, 15), 6u);
  EXPECT_EQ(fab.extra_path_latency(0, 15, 0),
            5 * usec(fabric::seastar_torus().wire_latency_us));
  EXPECT_EQ(fab.path_hops(0, 1), 1u);
  EXPECT_EQ(fab.extra_path_latency(0, 1, 0), 0);
}

TEST(RoutedFabric, FarDeliveriesArriveLaterThanNear) {
  const auto one_way = [](NodeId dst) {
    fabric::FabricConfig cfg;
    cfg.node_count = 16;
    cfg.rails = {fabric::seastar_torus()};
    cfg.net = TopologySpec::mesh(4, 4);
    fabric::Fabric fab(std::move(cfg));
    SimTime arrival = 0;
    for (NodeId n = 0; n < 16; ++n) {
      fab.set_rx_handler(n, [&arrival, &fab](fabric::Segment&&) { arrival = fab.now(); });
    }
    fabric::Segment seg;
    seg.kind = fabric::SegKind::kEager;
    seg.src = 0;
    seg.dst = dst;
    seg.payload.assign(256, 0xab);
    fab.nic(0, 0).post(std::move(seg), fab.now());
    fab.events().run_all();
    return arrival;
  };
  const SimTime near = one_way(1);    // 1 hop
  const SimTime far = one_way(15);    // 6 hops
  ASSERT_GT(near, 0);
  // Cut-through: exactly the 5 extra link latencies, serialization unpaid.
  EXPECT_EQ(far - near, 5 * usec(fabric::seastar_torus().wire_latency_us));
}

}  // namespace
