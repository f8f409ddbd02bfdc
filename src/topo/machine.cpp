#include "topo/machine.hpp"

#include <sstream>

namespace rails {

void MachineTopology::neighbours_by_distance(CoreId from, std::vector<CoreId>& out) const {
  out.clear();
  const std::uint32_t home = socket_of(from);
  // Same-socket cores first.
  for (CoreId c = 0; c < core_count(); ++c) {
    if (c != from && socket_of(c) == home) out.push_back(c);
  }
  // Then remote sockets in increasing socket distance (ring order).
  for (std::uint32_t d = 1; d < sockets; ++d) {
    const std::uint32_t s = (home + d) % sockets;
    for (CoreId c = s * cores_per_socket; c < (s + 1) * cores_per_socket; ++c) {
      out.push_back(c);
    }
  }
}

std::string MachineTopology::describe() const {
  std::ostringstream os;
  os << sockets << " socket(s) x " << cores_per_socket << " core(s) = " << core_count()
     << " cores";
  return os.str();
}

}  // namespace rails
