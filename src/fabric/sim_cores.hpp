// Simulated CPU cores.
//
// Cores are resources with busy-until times on the virtual clock, exactly
// like NICs. This is how the DES reproduces the paper's central small-message
// observation: PIO copies submitted from one core serialise (Fig. 4a), while
// copies offloaded to an idle core run in parallel at a synchronisation cost
// TO (Fig. 4c / eq. 1).
#pragma once

#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "topo/machine.hpp"

namespace rails::fabric {

class SimCores {
 public:
  explicit SimCores(const MachineTopology& topo = MachineTopology::opteron_2x2())
      : topo_(topo), busy_until_(topo.core_count(), 0) {}

  const MachineTopology& topology() const { return topo_; }
  std::uint32_t count() const { return static_cast<std::uint32_t>(busy_until_.size()); }

  SimTime busy_until(CoreId core) const {
    RAILS_CHECK(core < count());
    return busy_until_[core];
  }

  bool idle(CoreId core, SimTime now) const { return busy_until(core) <= now; }

  /// Number of cores idle at `now`, excluding `except` if given.
  std::uint32_t idle_count(SimTime now, std::optional<CoreId> except = std::nullopt) const;

  /// Occupies `core` for `duration` starting no earlier than `start`.
  /// Returns the time the core becomes free again.
  SimTime occupy(CoreId core, SimTime start, SimDuration duration) {
    RAILS_CHECK(core < count());
    const SimTime begin = std::max(start, busy_until_[core]);
    busy_until_[core] = begin + duration;
    return busy_until_[core];
  }

  void reset() { std::fill(busy_until_.begin(), busy_until_.end(), 0); }

 private:
  MachineTopology topo_;
  std::vector<SimTime> busy_until_;
};

}  // namespace rails::fabric
