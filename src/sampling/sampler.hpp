// Initialisation-time network sampling (§III-C).
//
// "Instead of simply relying on the usual bandwidth and latency parameters
// provided by the vendors, an accurate profile of each NIC is performed at
// the initialization of NewMadeleine." The sampler drives real transfers
// through a private two-node fabric — one per rail — at power-of-two sizes
// and records observed one-way durations for both protocols. It also derives
// the eager/rendezvous switch point per rail from the measured crossover.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fabric/network_model.hpp"
#include "sampling/profile.hpp"

namespace rails::sampling {

/// Everything the engine knows about one rail after sampling.
struct RailProfile {
  std::string name;
  PerfProfile eager;          ///< one-way duration of an eager segment
  PerfProfile eager_host;     ///< core-occupying part of an eager post
  PerfProfile rendezvous;     ///< full rendezvous duration incl. handshake
  PerfProfile rdv_chunk;      ///< duration of one DMA chunk (no handshake)
  std::size_t rdv_threshold = 0;  ///< smallest size where rendezvous wins
  std::size_t max_eager = 0;      ///< hardware cap on an eager segment

  // -- persistence -------------------------------------------------------
  void save_file(const std::string& path) const;
  static RailProfile load_file(const std::string& path);
};

struct SamplerConfig {
  std::size_t min_size = 1;
  std::size_t max_size = 8u * 1024u * 1024u;
  /// Number of sampled sizes per power-of-two decade; 1 keeps exactly the
  /// powers of two the paper uses, larger values refine the grid.
  unsigned steps_per_octave = 1;
};

/// Samples one network technology by running segments through a scratch
/// two-node fabric built from `params`.
RailProfile sample_rail(const fabric::NetworkModelParams& params,
                        const SamplerConfig& config = {});

/// Samples every rail of a cluster description.
std::vector<RailProfile> sample_rails(const std::vector<fabric::NetworkModelParams>& rails,
                                      const SamplerConfig& config = {});

/// The ladder of sizes a config produces (exposed for tests and benches).
std::vector<std::size_t> sample_sizes(const SamplerConfig& config);

}  // namespace rails::sampling
