// Registry side of a counter table (docs/OBSERVABILITY.md).
//
// A module that counts events keeps its counters in a plain stats struct
// and describes each one once, as a table row naming the struct field and
// the registry counter that mirrors it. The module's single bump call adds
// to the field and then to the mirror slot resolved from the same row, so
// the struct and the registry cannot drift apart.
//
// attach() resolves every slot once (allocating registry entries); after
// that add() is one bounds check plus a relaxed atomic — no lookups, no
// allocation, no locks. Detached, add() is the bounds check alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace rails::telemetry {

class CounterMirror {
 public:
  /// Resolves `slots` counters, slot i named `name_of(i)`. A null registry
  /// detaches; an empty name leaves that slot unmirrored.
  template <class NameOf>
  void attach(MetricsRegistry* registry, std::size_t slots, NameOf&& name_of) {
    handles_.clear();
    if (registry == nullptr) return;
    handles_.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      const std::string name = name_of(i);
      handles_.push_back(name.empty() ? nullptr : registry->counter(name));
    }
  }

  void add(std::size_t slot, std::uint64_t n = 1) const {
    if (slot < handles_.size() && handles_[slot] != nullptr) handles_[slot]->inc(n);
  }

 private:
  std::vector<Counter*> handles_;  ///< empty = detached
};

}  // namespace rails::telemetry
