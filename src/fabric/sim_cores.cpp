#include "fabric/sim_cores.hpp"

namespace rails::fabric {

std::uint32_t SimCores::idle_count(SimTime now, std::optional<CoreId> except) const {
  std::uint32_t n = 0;
  for (CoreId c = 0; c < count(); ++c) {
    if (except && *except == c) continue;
    if (idle(c, now)) ++n;
  }
  return n;
}

}  // namespace rails::fabric
