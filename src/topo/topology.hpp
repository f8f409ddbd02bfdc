// Inter-node network topology: shapes, coordinates, links and routes.
//
// PR 1–9 worlds were flat: every node pair is one wire apart and "rail r"
// means "NIC r". That cannot express the path-diversity arguments the
// multirail literature actually makes (Nezha spreads traffic across
// *paths*, RailS picks paths per destination), so this subsystem turns the
// fabric into a graph:
//
//   * vertices  = nodes [0, N) plus switches [N, N+S) (meshes and tori are
//     direct networks — every node is its own router — so S = 0 there;
//     the fat-tree adds leaf and root switches),
//   * links     = directed edges with dense ids, so per-(rail, link)
//     occupancy state is a flat array lookup in the fabric,
//   * routes    = deterministic shortest paths: dimension-order (X then Y)
//     for mesh/torus, up-down through a per-destination root for the
//     2-level fat-tree. Deterministic routing keeps the DES bit-identical
//     run to run; path diversity comes from the rail dimension (each rail
//     is a parallel copy of the topology — a "plane"), so a (NIC, path)
//     pair is what the estimator/split-solver stack actually schedules.
//
// Both disciplines are closed-form in the vertex coordinates, so routes are
// computed, not stored: next_hop() gives one step from any vertex and hops()
// the path length, each in O(1) with no allocation and no per-pair state.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace rails::topo {

enum class TopoKind : std::uint8_t {
  kFlat,      ///< every pair one wire apart; rails are independent NICs
  kMesh2D,    ///< W x H grid, no wraparound; dimension-order routing
  kTorus2D,   ///< W x H grid with wraparound; dimension-order, shorter way
  kFatTree2L  ///< 2-level fat-tree (leaf + root switches); up-down routing
};

const char* to_string(TopoKind kind);

/// Declarative shape description; Topology materialises it for a concrete
/// node count. Parsed from the `topology <kind> ...` config directive.
struct TopologySpec {
  TopoKind kind = TopoKind::kFlat;
  std::uint32_t width = 0;       ///< mesh/torus X extent
  std::uint32_t height = 0;      ///< mesh/torus Y extent
  std::uint32_t down_ports = 0;  ///< fat-tree: nodes per leaf switch
  std::uint32_t up_ports = 0;    ///< fat-tree: uplinks per leaf = root count

  static TopologySpec flat() { return {}; }
  static TopologySpec mesh(std::uint32_t w, std::uint32_t h) {
    return {TopoKind::kMesh2D, w, h, 0, 0};
  }
  static TopologySpec torus(std::uint32_t w, std::uint32_t h) {
    return {TopoKind::kTorus2D, w, h, 0, 0};
  }
  static TopologySpec fat_tree(std::uint32_t down, std::uint32_t up) {
    return {TopoKind::kFatTree2L, 0, 0, down, up};
  }

  /// Node count implied by the shape (mesh/torus: W*H); 0 = any count fits.
  std::uint32_t preset_nodes() const {
    return (kind == TopoKind::kMesh2D || kind == TopoKind::kTorus2D)
               ? width * height
               : 0;
  }
};

struct Coord {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  bool operator==(const Coord&) const = default;
};

/// One routing step: traverse `link` and arrive at vertex `to`.
struct Hop {
  std::uint32_t to = 0;
  std::uint32_t link = 0;
  bool operator==(const Hop&) const = default;
};

class Topology {
 public:
  Topology(const TopologySpec& spec, std::uint32_t node_count);

  const TopologySpec& spec() const { return spec_; }
  TopoKind kind() const { return spec_.kind; }
  /// Flat worlds deliver point-to-point with no forwarding events.
  bool direct() const { return spec_.kind == TopoKind::kFlat; }

  std::uint32_t node_count() const { return node_count_; }
  std::uint32_t switch_count() const { return switch_count_; }
  std::uint32_t vertex_count() const { return node_count_ + switch_count_; }
  /// Dense directed-link id space (per rail plane); 0 for flat.
  std::uint32_t link_count() const { return link_count_; }

  /// Mesh/torus coordinate of a node (x fastest): n = y*W + x.
  Coord coord_of(NodeId n) const;
  NodeId node_at(Coord c) const;

  /// The next step of the deterministic route from vertex `at` (a node or,
  /// on the fat-tree, a switch) towards node `dst != at`. Walking it from
  /// the source reaches `dst` in exactly hops(src, dst) steps; the first
  /// step leaves the source NIC (its latency is already part of the NIC
  /// wire model). Routed shapes only.
  Hop next_hop(std::uint32_t at, NodeId dst) const;

  /// Number of links on the route src -> dst; 1 for flat or src == dst.
  std::uint32_t hops(NodeId src, NodeId dst) const;

  /// Longest shortest-path in links (analytic, not enumerated).
  std::uint32_t diameter_hops() const;

  std::string describe() const;

 private:
  TopologySpec spec_;
  std::uint32_t node_count_ = 0;
  std::uint32_t switch_count_ = 0;
  std::uint32_t link_count_ = 0;
  std::uint32_t leaves_ = 0;  ///< fat-tree leaf switch count
};

}  // namespace rails::topo
