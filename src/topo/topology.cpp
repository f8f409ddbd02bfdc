#include "topo/topology.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace rails::topo {

namespace {

// Mesh/torus directed-link directions. Each vertex owns four outgoing link
// slots (edge vertices in a mesh simply never use the ones that would fall
// off the grid), so link id = vertex * 4 + dir stays dense and branch-free.
enum Dir : std::uint32_t { kPlusX = 0, kMinusX = 1, kPlusY = 2, kMinusY = 3 };

}  // namespace

const char* to_string(TopoKind kind) {
  switch (kind) {
    case TopoKind::kFlat: return "flat";
    case TopoKind::kMesh2D: return "mesh";
    case TopoKind::kTorus2D: return "torus";
    case TopoKind::kFatTree2L: return "fattree";
  }
  return "?";
}

Topology::Topology(const TopologySpec& spec, std::uint32_t node_count)
    : spec_(spec), node_count_(node_count) {
  RAILS_CHECK(node_count_ >= 1);
  switch (spec_.kind) {
    case TopoKind::kFlat:
      break;
    case TopoKind::kMesh2D:
    case TopoKind::kTorus2D:
      RAILS_CHECK(spec_.width >= 1 && spec_.height >= 1);
      RAILS_CHECK_MSG(static_cast<std::uint64_t>(spec_.width) * spec_.height == node_count_,
                      "mesh/torus extent does not match the node count");
      link_count_ = node_count_ * 4;
      break;
    case TopoKind::kFatTree2L: {
      RAILS_CHECK(spec_.down_ports >= 1 && spec_.up_ports >= 1);
      leaves_ = (node_count_ + spec_.down_ports - 1) / spec_.down_ports;
      switch_count_ = leaves_ + spec_.up_ports;
      link_count_ = 2 * node_count_ + 2 * leaves_ * spec_.up_ports;
      break;
    }
  }
}

Coord Topology::coord_of(NodeId n) const {
  RAILS_CHECK(spec_.kind == TopoKind::kMesh2D || spec_.kind == TopoKind::kTorus2D);
  RAILS_CHECK(n < node_count_);
  return {n % spec_.width, n / spec_.width};
}

NodeId Topology::node_at(Coord c) const {
  RAILS_CHECK(spec_.kind == TopoKind::kMesh2D || spec_.kind == TopoKind::kTorus2D);
  RAILS_CHECK(c.x < spec_.width && c.y < spec_.height);
  return c.y * spec_.width + c.x;
}

Hop Topology::next_hop(std::uint32_t at, NodeId dst) const {
  RAILS_CHECK(!direct());
  RAILS_CHECK(at < vertex_count() && dst < node_count_ && at != dst);
  const std::uint32_t N = node_count_;
  if (spec_.kind == TopoKind::kFatTree2L) {
    // Up-down through the 2-level tree: loop-free by construction (every
    // path climbs, crosses at most one root, and descends — never up
    // again). The crossing root is picked per destination (dst mod roots),
    // the RailS idiom: different destinations exercise different roots, so
    // all-to-all traffic spreads across the core without adaptive state.
    const std::uint32_t L = leaves_;
    const std::uint32_t R = spec_.up_ports;
    const std::uint32_t dst_leaf = dst / spec_.down_ports;
    if (at < N) return {N + at / spec_.down_ports, /*node-up link*/ at};
    if (at < N + L) {
      const std::uint32_t leaf = at - N;
      if (leaf == dst_leaf) return {dst, N + 2 * L * R + dst};
      const std::uint32_t root = dst % R;
      return {N + L + root, N + leaf * R + root};
    }
    const std::uint32_t root = at - N - L;
    return {N + dst_leaf, N + L * R + root * L + dst_leaf};
  }

  // Dimension-order: resolve X fully, then Y. Deterministic and minimal;
  // on the torus the shorter way around wins, ties broken toward +.
  const std::uint32_t W = spec_.width;
  Coord cur{at % W, at / W};
  const Coord goal{dst % W, dst / W};
  const bool along_x = cur.x != goal.x;
  std::uint32_t& pos = along_x ? cur.x : cur.y;
  const std::uint32_t to = along_x ? goal.x : goal.y;
  const std::uint32_t extent = along_x ? W : spec_.height;
  const std::uint32_t fwd = (to + extent - pos) % extent;
  const bool plus = spec_.kind == TopoKind::kTorus2D ? fwd <= extent - fwd : to > pos;
  const Dir d = along_x ? (plus ? kPlusX : kMinusX) : (plus ? kPlusY : kMinusY);
  pos = plus ? (pos + 1) % extent : (pos + extent - 1) % extent;
  return {cur.y * W + cur.x, at * 4 + d};
}

std::uint32_t Topology::hops(NodeId src, NodeId dst) const {
  RAILS_CHECK(src < node_count_ && dst < node_count_);
  if (direct() || src == dst) return 1;
  if (spec_.kind == TopoKind::kFatTree2L) {
    return src / spec_.down_ports == dst / spec_.down_ports ? 2 : 4;
  }
  const auto axis = [&](std::uint32_t from, std::uint32_t to, std::uint32_t extent) {
    const std::uint32_t d = from > to ? from - to : to - from;
    return spec_.kind == TopoKind::kTorus2D ? std::min(d, extent - d) : d;
  };
  const std::uint32_t W = spec_.width;
  return axis(src % W, dst % W, W) + axis(src / W, dst / W, spec_.height);
}

std::uint32_t Topology::diameter_hops() const {
  switch (spec_.kind) {
    case TopoKind::kFlat:
      return 1;
    case TopoKind::kMesh2D:
      return (spec_.width - 1) + (spec_.height - 1);
    case TopoKind::kTorus2D:
      return spec_.width / 2 + spec_.height / 2;
    case TopoKind::kFatTree2L:
      return leaves_ > 1 ? 4 : 2;
  }
  return 1;
}

std::string Topology::describe() const {
  std::ostringstream os;
  switch (spec_.kind) {
    case TopoKind::kFlat:
      os << "flat: " << node_count_ << " node(s), all pairs 1 wire apart";
      break;
    case TopoKind::kMesh2D:
    case TopoKind::kTorus2D:
      os << to_string(spec_.kind) << " " << spec_.width << "x" << spec_.height
         << ": " << node_count_ << " node(s), " << link_count_
         << " directed link slot(s), diameter " << diameter_hops() << " hop(s)";
      break;
    case TopoKind::kFatTree2L:
      os << "fattree " << spec_.down_ports << "x" << spec_.up_ports << ": "
         << node_count_ << " node(s), " << leaves_ << " leaf + " << spec_.up_ports
         << " root switch(es), " << link_count_ << " directed link(s), diameter "
         << diameter_hops() << " hop(s)";
      break;
  }
  return os.str();
}

}  // namespace rails::topo
