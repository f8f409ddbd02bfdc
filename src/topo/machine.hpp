// Machine topology description (intra-node: sockets × cores).
//
// The paper's testbed is a pair of dual-socket dual-core Opteron boxes; the
// Marcel scheduler exploits this hierarchy. We describe a machine as
// sockets × cores and derive neighbour relations from it so that the runtime
// can prefer offloading PIO copies to a core on the same socket (cheaper
// signal) before falling back to a remote socket.
//
// This is the *intra-node* half of the topology story; the inter-node
// network (meshes, tori, fat-trees and the routes across them) lives in
// topo/topology.hpp. Keeping both under src/topo/ makes it one subsystem
// with one source of truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rails {

struct MachineTopology {
  std::uint32_t sockets = 2;
  std::uint32_t cores_per_socket = 2;

  std::uint32_t core_count() const { return sockets * cores_per_socket; }
  std::uint32_t socket_of(CoreId core) const { return core / cores_per_socket; }

  bool same_socket(CoreId a, CoreId b) const { return socket_of(a) == socket_of(b); }

  /// Writes into `out` the cores ordered by signalling cost from `from`: same
  /// socket first (skipping `from` itself), then remote sockets. `out` is
  /// cleared first, so a caller can reuse its storage.
  void neighbours_by_distance(CoreId from, std::vector<CoreId>& out) const;

  /// The paper's evaluation machine: dual-socket, dual-core Opteron.
  static MachineTopology opteron_2x2() { return MachineTopology{2, 2}; }
  /// A T2K-style 16-core node (4 sockets of quad-core).
  static MachineTopology t2k_4x4() { return MachineTopology{4, 4}; }

  std::string describe() const;
};

}  // namespace rails
