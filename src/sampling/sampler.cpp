#include "sampling/sampler.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/log.hpp"
#include "fabric/fabric.hpp"

namespace rails::sampling {

namespace {

/// One-way duration of a single eager segment of `size` bytes, measured by
/// posting it through an otherwise idle fabric.
SimDuration measure_eager(fabric::Fabric& fab, std::size_t size) {
  bool arrived = false;
  SimTime arrival = 0;
  fab.set_rx_handler(1, [&](fabric::Segment&&) {
    arrived = true;
    arrival = fab.now();
  });
  const SimTime start = fab.now();
  fabric::Segment seg;
  seg.kind = fabric::SegKind::kEager;
  seg.src = 0;
  seg.dst = 1;
  seg.rail = 0;
  seg.payload.assign(size, 0xAB);
  fab.nic(0, 0).post(std::move(seg), start);
  fab.events().run_until([&] { return arrived; });
  RAILS_CHECK_MSG(arrived, "sampling segment was never delivered");
  return arrival - start;
}

/// Full rendezvous duration: RTS out, CTS back, then one DMA chunk — each
/// leg posted when the previous one lands, exactly like the engine protocol.
SimDuration measure_rendezvous(fabric::Fabric& fab, std::size_t size) {
  bool done = false;
  SimTime arrival = 0;

  fab.set_rx_handler(1, [&](fabric::Segment&& seg) {
    if (seg.kind == fabric::SegKind::kRts) {
      fabric::Segment cts;
      cts.kind = fabric::SegKind::kCts;
      cts.src = 1;
      cts.dst = 0;
      cts.rail = 0;
      fab.nic(1, 0).post(std::move(cts), fab.now());
    } else if (seg.kind == fabric::SegKind::kData) {
      done = true;
      arrival = fab.now();
    }
  });
  fab.set_rx_handler(0, [&](fabric::Segment&& seg) {
    if (seg.kind == fabric::SegKind::kCts) {
      fabric::Segment data;
      data.kind = fabric::SegKind::kData;
      data.src = 0;
      data.dst = 1;
      data.rail = 0;
      data.payload.assign(size, 0xCD);
      fab.nic(0, 0).post(std::move(data), fab.now());
    }
  });

  const SimTime start = fab.now();
  fabric::Segment rts;
  rts.kind = fabric::SegKind::kRts;
  rts.src = 0;
  rts.dst = 1;
  rts.rail = 0;
  rts.total_len = size;
  fab.nic(0, 0).post(std::move(rts), start);
  fab.events().run_until([&] { return done; });
  RAILS_CHECK_MSG(done, "sampling rendezvous never completed");
  return arrival - start;
}

}  // namespace

std::vector<std::size_t> sample_sizes(const SamplerConfig& config) {
  RAILS_CHECK(config.min_size >= 1 && config.max_size >= config.min_size);
  RAILS_CHECK(config.steps_per_octave >= 1);
  std::vector<std::size_t> sizes;
  const double factor = std::pow(2.0, 1.0 / config.steps_per_octave);
  double s = static_cast<double>(config.min_size);
  std::size_t last = 0;
  while (s <= static_cast<double>(config.max_size) * 1.0000001) {
    const auto size = static_cast<std::size_t>(std::llround(s));
    if (size != last) sizes.push_back(size);
    last = size;
    s *= factor;
  }
  if (sizes.empty() || sizes.back() != config.max_size) sizes.push_back(config.max_size);
  return sizes;
}

RailProfile sample_rail(const fabric::NetworkModelParams& params,
                        const SamplerConfig& config) {
  RailProfile rp;
  rp.name = params.name;
  rp.max_eager = params.max_eager;

  const fabric::NetworkModel model(params);
  const auto sizes = sample_sizes(config);

  for (std::size_t size : sizes) {
    // A scratch fabric per (protocol, size) point keeps every measurement
    // cold-start clean: no residual NIC busy time from the previous sample.
    // The DES is deterministic, so one measurement per point is exact.
    if (size <= params.max_eager) {
      fabric::Fabric fab({2, {params}});
      rp.eager.add(size, measure_eager(fab, size));
      // The host share is not observable from arrival times alone; it comes
      // from the same place a real driver gets it (the post's completion),
      // modeled here via the NIC preview.
      rp.eager_host.add(size, model.eager(size).host);
    }
    {
      fabric::Fabric fab({2, {params}});
      rp.rendezvous.add(size, measure_rendezvous(fab, size));
      rp.rdv_chunk.add(size, model.rendezvous(size, /*include_handshake=*/false).total);
    }
  }

  // Derive the protocol switch point from the measured curves (§III-C:
  // "Such sampling measurements can also be used to determine other
  // parameters such as rendezvous threshold").
  rp.rdv_threshold = rp.max_eager;
  for (std::size_t size : sizes) {
    if (size > rp.max_eager) break;
    if (rp.rendezvous.estimate(size) < rp.eager.estimate(size)) {
      rp.rdv_threshold = size;
      break;
    }
  }

  RAILS_INFO("sampler", "%s: %zu sizes, rdv threshold %zu B, asymptotic %.0f MB/s",
             rp.name.c_str(), sizes.size(), rp.rdv_threshold,
             rp.rendezvous.asymptotic_bandwidth());
  return rp;
}

std::vector<RailProfile> sample_rails(const std::vector<fabric::NetworkModelParams>& rails,
                                      const SamplerConfig& config) {
  std::vector<RailProfile> out;
  out.reserve(rails.size());
  for (const auto& params : rails) out.push_back(sample_rail(params, config));
  return out;
}

void RailProfile::save_file(const std::string& path) const {
  std::ofstream os(path);
  RAILS_CHECK_MSG(os.good(), "cannot open rail profile file for writing");
  os << "name " << name << "\n";
  os << "rdv_threshold " << rdv_threshold << "\n";
  os << "max_eager " << max_eager << "\n";
  const std::pair<const char*, const PerfProfile*> sections[] = {
      {"eager", &eager},
      {"eager_host", &eager_host},
      {"rendezvous", &rendezvous},
      {"rdv_chunk", &rdv_chunk},
  };
  for (const auto& [label, profile] : sections) {
    os << "section " << label << " " << profile->point_count() << "\n";
    profile->save(os);
  }
}

RailProfile RailProfile::load_file(const std::string& path) {
  std::ifstream is(path);
  RAILS_CHECK_MSG(is.good(), "cannot open rail profile file for reading");
  RailProfile rp;
  std::string line;
  PerfProfile* current = nullptr;
  std::vector<SamplePoint> pending;
  auto flush = [&] {
    if (current != nullptr) *current = PerfProfile(std::move(pending));
    pending.clear();
  };
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "name") {
      ls >> rp.name;
    } else if (key == "rdv_threshold") {
      ls >> rp.rdv_threshold;
    } else if (key == "max_eager") {
      ls >> rp.max_eager;
    } else if (key == "section") {
      flush();
      std::string label;
      ls >> label;
      if (label == "eager") current = &rp.eager;
      else if (label == "eager_host") current = &rp.eager_host;
      else if (label == "rendezvous") current = &rp.rendezvous;
      else if (label == "rdv_chunk") current = &rp.rdv_chunk;
      else current = nullptr;
    } else {
      SamplePoint p;
      std::istringstream ps(line);
      if (ps >> p.size >> p.duration) pending.push_back(p);
    }
  }
  flush();
  return rp;
}

}  // namespace rails::sampling
