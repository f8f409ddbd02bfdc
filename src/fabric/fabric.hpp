// Virtual multirail cluster assembly.
//
// A Fabric instantiates `node_count` nodes, each with one SimNic per rail
// and a set of simulated cores. The inter-node shape is a topo::Topology:
// flat (rail i of every node wired to rail i of every other node — a full
// crossbar per rail, like one big switch), or a routed network (2D mesh,
// torus, 2-level fat-tree) where each rail is a parallel *plane* of the
// same shape and a segment crosses several links to reach its destination.
// Engines attach per-node receive handlers; segments posted on any NIC are
// routed — hop by hop on routed shapes, with per-(rail, link) occupancy —
// to the destination node's handler at their modeled arrival time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fabric/event_queue.hpp"
#include "fabric/nic.hpp"
#include "fabric/sim_cores.hpp"
#include "topo/machine.hpp"
#include "topo/topology.hpp"

namespace rails::fabric {

struct FabricConfig {
  std::uint32_t node_count = 2;
  std::vector<NetworkModelParams> rails;
  MachineTopology topology = MachineTopology::opteron_2x2();

  /// Inter-node network shape; every rail is one plane of it. The default
  /// (flat) reproduces the PR 1–9 crossbar fabric exactly.
  topo::TopologySpec net{};

  /// Partition the event queue per node (EventQueue::configure_shards) with
  /// the fabric's minimum link latency as the conservative horizon. Replays
  /// bit-identical to the single queue; a scale knob, not a semantic one.
  bool event_sharding = false;

  /// A fault armed on every NIC of `rail` (or only `node`'s, when >= 0) at
  /// fabric construction — the config-file path into SimNic::inject_fault.
  struct RailFault {
    RailId rail = 0;
    int node = -1;  ///< -1 = every node's NIC on the rail
    FaultSpec spec;
  };
  std::vector<RailFault> faults{};

  /// Seed for the per-NIC data-plane fault RNGs (each NIC mixes in its own
  /// node/rail identity, so one knob reseeds the whole fabric).
  std::uint64_t fault_seed = 0;
};

class Fabric {
 public:
  explicit Fabric(FabricConfig config);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  EventQueue& events() { return events_; }
  SimTime now() const { return events_.now(); }

  std::uint32_t node_count() const { return config_.node_count; }
  std::uint32_t rail_count() const { return static_cast<std::uint32_t>(config_.rails.size()); }
  const FabricConfig& config() const { return config_; }

  const topo::Topology& topo() const { return topo_; }

  /// Links on the route src -> dst (1 on flat fabrics): the path length the
  /// engine's timeout arming must budget for.
  std::uint32_t path_hops(NodeId src, NodeId dst) const {
    return topo_.hops(src, dst);
  }

  /// Wire latency the route adds beyond the NIC model's single hop:
  /// (hops - 1) x the rail's link latency. Zero on flat fabrics. Engines
  /// fold this into failover/ACK timeout deadlines so multi-hop flight time
  /// is never mistaken for loss.
  SimDuration extra_path_latency(NodeId src, NodeId dst, RailId rail) const;

  /// Smallest per-hop wire latency across rails — the sharding horizon.
  SimDuration min_link_latency() const;

  /// Segments passed through intermediate hops (0 on flat fabrics).
  std::uint64_t forwarded_segments() const { return forwarded_segments_; }

  SimNic& nic(NodeId node, RailId rail);
  const SimNic& nic(NodeId node, RailId rail) const;
  SimCores& cores(NodeId node);

  using RxHandler = std::function<void(Segment&&)>;

  /// Installs the handler invoked (at virtual arrival time) for every segment
  /// addressed to `node`.
  void set_rx_handler(NodeId node, RxHandler handler);

  /// Total payload bytes delivered so far, per rail (conservation checks).
  std::uint64_t delivered_payload(RailId rail) const;

 private:
  void route(Segment&& seg);
  /// Crosses the next link from vertex `at` (a node or switch) towards seg.dst.
  void forward(Segment&& seg, std::uint32_t at);
  void admit(Segment&& seg);
  void deliver(Segment&& seg);

  FabricConfig config_;
  EventQueue events_;
  topo::Topology topo_;
  // unique_ptr keeps SimNic addresses stable; drivers hold raw pointers.
  std::vector<std::vector<std::unique_ptr<SimNic>>> nics_;  // [node][rail]
  std::vector<SimCores> cores_;
  std::vector<RxHandler> rx_handlers_;
  std::vector<std::uint64_t> delivered_payload_;
  // Per-(rail, link) busy-until horizon for routed shapes: cut-through
  // forwarding pays serialization once per link occupancy window while the
  // leading edge advances one latency per hop.
  std::vector<std::vector<SimTime>> link_busy_;  // [rail][link]
  std::uint64_t forwarded_segments_ = 0;
};

}  // namespace rails::fabric
