#include "core/config.hpp"

#include <charconv>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>

#include "common/check.hpp"
#include "fabric/presets.hpp"

namespace rails::core {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  std::fprintf(stderr, "cluster config error at line %d: %s\n", line, what.c_str());
  RAILS_CHECK_MSG(false, "malformed cluster config");
  std::abort();
}

/// Parses all of `text` into `out`, or fails the line. Every number in a
/// config goes through here, so a malformed value names its line instead
/// of reading as 0 or escaping as an exception. A flag is an integer,
/// non-zero meaning on.
template <class T>
void parse(const std::string& text, int line, const std::string& key, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    int on = 0;
    parse(text, line, key, on);
    out = on != 0;
  } else {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    if (text.empty() || ec != std::errc{} || ptr != end) {
      fail(line, key + " needs a number, got '" + text + "'");
    }
  }
}

/// Parses the one value of a scalar directive; fails the line when it is
/// missing or followed by another token.
template <class T>
void parse(std::istringstream& ls, int line, const std::string& directive, T& out) {
  std::string value, extra;
  if (!(ls >> value)) fail(line, directive + " needs a value");
  if (ls >> extra) fail(line, directive + " takes one value, got '" + extra + "'");
  parse(value, line, directive, out);
}

/// A time in microseconds, which must not be negative, into a SimDuration
/// or a double (microseconds).
template <class Source, class T>
void parse_us(Source& from, int line, const std::string& key, T& out) {
  double us = 0;
  parse(from, line, key, us);
  if (us < 0) fail(line, key + " must not be negative");
  if constexpr (std::is_floating_point_v<T>) {
    out = us;
  } else {
    out = usec(us);
  }
}

fabric::NetworkModelParams preset_by_name(const std::string& name, int line) {
  if (name == "myri10g") return fabric::myri10g();
  if (name == "qsnet2") return fabric::qsnet2();
  if (name == "ib-ddr") return fabric::ib_ddr();
  if (name == "gige-tcp") return fabric::gige_tcp();
  if (name == "myri2000") return fabric::myri2000();
  if (name == "seastar-torus") return fabric::seastar_torus();
  fail(line, "unknown rail preset '" + name + "'");
}

/// Parses "key=value" tokens into a map.
std::map<std::string, std::string> parse_kv(std::istringstream& ls, int line) {
  std::map<std::string, std::string> kv;
  std::string token;
  while (ls >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) fail(line, "expected key=value, got '" + token + "'");
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

fabric::NetworkModelParams custom_rail(std::istringstream& ls, int line) {
  fabric::NetworkModelParams p;
  for (const auto& [key, value] : parse_kv(ls, line)) {
    if (key == "name") p.name = value;
    else if (key == "post_us") parse_us(value, line, key, p.post_us);
    else if (key == "wire_latency_us") parse_us(value, line, key, p.wire_latency_us);
    else if (key == "pio_bw") parse(value, line, key, p.pio_bw_mbps);
    else if (key == "pio_bw_large") parse(value, line, key, p.pio_bw_large_mbps);
    else if (key == "pio_cache_limit") parse(value, line, key, p.pio_cache_limit);
    else if (key == "mtu") parse(value, line, key, p.mtu);
    else if (key == "per_packet_us") parse_us(value, line, key, p.per_packet_us);
    else if (key == "max_eager") parse(value, line, key, p.max_eager);
    else if (key == "rdv_handshake_us") parse_us(value, line, key, p.rdv_handshake_us);
    else if (key == "dma_setup_us") parse_us(value, line, key, p.dma_setup_us);
    else if (key == "dma_bw") parse(value, line, key, p.dma_bw_mbps);
    else if (key == "gather_scatter") p.gather_scatter = value != "0";
    else if (key == "rdma") p.rdma = value != "0";
    else fail(line, "unknown rail parameter '" + key + "'");
  }
  return p;
}

}  // namespace

WorldConfig parse_world_config(std::istream& is) {
  WorldConfig cfg;
  cfg.fabric.rails.clear();

  std::string line;
  int lineno = 0;
  bool qos_classes_declared = false;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;  // blank/comment line

    if (directive == "nodes") {
      parse(ls, lineno, directive, cfg.fabric.node_count);
      if (cfg.fabric.node_count < 1) fail(lineno, "nodes needs a positive integer");
    } else if (directive == "topology") {
      // Polymorphic: a kind keyword selects the inter-node network shape
      // (docs/TOPOLOGY.md); the legacy SOCKETSxCORES form keeps describing
      // the machine inside each node.
      std::string spec;
      ls >> spec;
      if (spec == "flat") {
        cfg.fabric.net = topo::TopologySpec::flat();
      } else if (spec == "mesh" || spec == "torus") {
        std::string dims;
        ls >> dims;
        const auto x = dims.find('x');
        if (x == std::string::npos) fail(lineno, "topology mesh|torus needs WxH");
        std::uint64_t w = 0, h = 0;
        parse(dims.substr(0, x), lineno, "topology width", w);
        parse(dims.substr(x + 1), lineno, "topology height", h);
        if (w == 0 || h == 0) fail(lineno, "empty network topology");
        // Node ids are 32-bit: a grid with more nodes than that is refused
        // here rather than wrapped into a smaller world.
        constexpr std::uint64_t kMaxNodes = std::numeric_limits<NodeId>::max();
        if (w > kMaxNodes || h > kMaxNodes || w * h > kMaxNodes) {
          fail(lineno, "network topology extent overflows the node count");
        }
        const auto w32 = static_cast<std::uint32_t>(w);
        const auto h32 = static_cast<std::uint32_t>(h);
        cfg.fabric.net = spec == "mesh" ? topo::TopologySpec::mesh(w32, h32)
                                        : topo::TopologySpec::torus(w32, h32);
        // The grid implies the node count; a later `nodes` line that
        // disagrees is caught when the topology is materialised.
        cfg.fabric.node_count = w32 * h32;
      } else if (spec == "fattree") {
        std::string dims;
        ls >> dims;
        const auto x = dims.find('x');
        if (x == std::string::npos) fail(lineno, "topology fattree needs DOWNxUP");
        std::uint32_t down = 0, up = 0;
        parse(dims.substr(0, x), lineno, "fattree down ports", down);
        parse(dims.substr(x + 1), lineno, "fattree up ports", up);
        if (down == 0 || up == 0) fail(lineno, "empty network topology");
        cfg.fabric.net = topo::TopologySpec::fat_tree(down, up);
      } else {
        const auto x = spec.find('x');
        if (x == std::string::npos) {
          fail(lineno, "topology needs mesh|torus|fattree|flat or SOCKETSxCORES");
        }
        parse(spec.substr(0, x), lineno, "topology sockets", cfg.fabric.topology.sockets);
        parse(spec.substr(x + 1), lineno, "topology cores",
              cfg.fabric.topology.cores_per_socket);
        if (cfg.fabric.topology.core_count() == 0) fail(lineno, "empty topology");
      }
    } else if (directive == "event_sharding") {
      parse(ls, lineno, directive, cfg.fabric.event_sharding);
    } else if (directive == "strategy") {
      if (!(ls >> cfg.strategy)) fail(lineno, "strategy needs a name");
    } else if (directive == "rdv_threshold") {
      parse(ls, lineno, directive, cfg.engine.rdv_threshold_override);
    } else if (directive == "offload_signal_us") {
      parse_us(ls, lineno, directive, cfg.engine.offload.signal_cost);
    } else if (directive == "offload_preempt_us") {
      parse_us(ls, lineno, directive, cfg.engine.offload.preempt_cost);
    } else if (directive == "offload_min_split") {
      parse(ls, lineno, directive, cfg.engine.offload.min_split_size);
    } else if (directive == "sampler_max_size") {
      parse(ls, lineno, directive, cfg.sampler.max_size);
    } else if (directive == "reliability") {
      parse(ls, lineno, directive, cfg.engine.reliability.enabled);
    } else if (directive == "fault_seed") {
      parse(ls, lineno, directive, cfg.fabric.fault_seed);
    } else if (directive == "fault") {
      // One line arms up to four data-plane faults (one per kind named) on
      // the rail's NICs: fault rail=1 drop=0.02 corrupt=0.001 dup=0.01
      // reorder=4 [reorder_rate=1] [node=0] [at_us=..] [duration_us=..]
      fabric::FabricConfig::RailFault base;
      bool have_rail = false;
      double drop = 0, corrupt = 0, dup = 0, reorder_rate = 1.0;
      unsigned reorder = 0;
      for (const auto& [key, value] : parse_kv(ls, lineno)) {
        if (key == "rail") { parse(value, lineno, key, base.rail); have_rail = true; }
        else if (key == "node") parse(value, lineno, key, base.node);
        else if (key == "at_us") parse_us(value, lineno, key, base.spec.at);
        else if (key == "duration_us") parse_us(value, lineno, key, base.spec.duration);
        else if (key == "drop") parse(value, lineno, key, drop);
        else if (key == "corrupt") parse(value, lineno, key, corrupt);
        else if (key == "dup") parse(value, lineno, key, dup);
        else if (key == "reorder") parse(value, lineno, key, reorder);
        else if (key == "reorder_rate") parse(value, lineno, key, reorder_rate);
        else fail(lineno, "unknown fault parameter '" + key + "'");
      }
      if (!have_rail) fail(lineno, "fault needs rail=");
      if (drop < 0 || drop > 1 || corrupt < 0 || corrupt > 1 || dup < 0 ||
          dup > 1 || reorder_rate < 0 || reorder_rate > 1) {
        fail(lineno, "fault rates must be in [0, 1]");
      }
      if (drop <= 0 && corrupt <= 0 && dup <= 0 && reorder == 0) {
        fail(lineno, "fault needs at least one of drop=/corrupt=/dup=/reorder=");
      }
      const auto push = [&cfg, &base](fabric::FaultKind kind, double rate,
                                      unsigned window) {
        fabric::FabricConfig::RailFault f = base;
        f.spec.kind = kind;
        f.spec.rate = rate;
        f.spec.reorder_window = window;
        cfg.fabric.faults.push_back(f);
      };
      if (drop > 0) push(fabric::FaultKind::kDrop, drop, 0);
      if (corrupt > 0) push(fabric::FaultKind::kCorrupt, corrupt, 0);
      if (dup > 0) push(fabric::FaultKind::kDup, dup, 0);
      if (reorder > 0) push(fabric::FaultKind::kReorder, reorder_rate, reorder);
    } else if (directive == "recalibration") {
      parse(ls, lineno, directive, cfg.engine.recalibration.enabled);
    } else if (directive == "qos") {
      parse(ls, lineno, directive, cfg.engine.qos.enabled);
    } else if (directive == "qos_quantum") {
      parse(ls, lineno, directive, cfg.engine.qos.quantum);
      if (cfg.engine.qos.quantum == 0) {
        fail(lineno, "qos_quantum needs a positive byte count");
      }
    } else if (directive == "qos_aging_us") {
      double us = 0;
      parse_us(ls, lineno, directive, us);
      if (us <= 0) fail(lineno, "qos_aging_us must be positive");
      cfg.engine.qos.aging = usec(us);
    } else if (directive == "qos_class") {
      // First qos_class line replaces the built-in set; classes are indexed
      // in declaration order.
      if (!qos_classes_declared) {
        qos_classes_declared = true;
        cfg.engine.qos.classes.clear();
      }
      qos::ClassSpec spec;
      for (const auto& [key, value] : parse_kv(ls, lineno)) {
        if (key == "name") spec.name = value;
        else if (key == "weight") parse(value, lineno, key, spec.weight);
        else if (key == "strict") spec.strict_priority = value != "0";
        else if (key == "capacity") parse(value, lineno, key, spec.queue_capacity);
        else if (key == "deadline_us") parse_us(value, lineno, key, spec.default_deadline);
        else fail(lineno, "unknown qos_class parameter '" + key + "'");
      }
      if (spec.name.empty()) fail(lineno, "qos_class needs name=");
      if (spec.weight <= 0.0) fail(lineno, "qos_class weight must be positive");
      if (spec.queue_capacity < 1) fail(lineno, "qos_class capacity must be >= 1");
      cfg.engine.qos.classes.push_back(std::move(spec));
    } else if (directive == "timeseries") {
      parse(ls, lineno, directive, cfg.engine.timeseries.enabled);
    } else if (directive == "slo") {
      // slo <class> p99_us=200 hit_rate=0.99 window_us=10000
      //     [fast_window_us=..] [fast_burn=..] [slow_burn=..]
      //     [patience=..] [min_events=..]
      telemetry::SloSpec spec;
      if (!(ls >> spec.cls)) fail(lineno, "slo needs a traffic-class name");
      for (const auto& [key, value] : parse_kv(ls, lineno)) {
        if (key == "p99_us") parse_us(value, lineno, key, spec.p99_us);
        else if (key == "hit_rate") parse(value, lineno, key, spec.hit_rate);
        else if (key == "window_us") parse_us(value, lineno, key, spec.window);
        else if (key == "fast_window_us") parse_us(value, lineno, key, spec.fast_window);
        else if (key == "fast_burn") parse(value, lineno, key, spec.fast_burn);
        else if (key == "slow_burn") parse(value, lineno, key, spec.slow_burn);
        else if (key == "patience") parse(value, lineno, key, spec.clear_patience);
        else if (key == "min_events") parse(value, lineno, key, spec.min_events);
        else fail(lineno, "unknown slo parameter '" + key + "'");
      }
      if (spec.p99_us <= 0 && spec.hit_rate <= 0) {
        fail(lineno, "slo needs p99_us= and/or hit_rate=");
      }
      if (spec.hit_rate < 0 || spec.hit_rate >= 1.0) {
        fail(lineno, "slo hit_rate must be in [0, 1)");
      }
      if (spec.window <= 0) fail(lineno, "slo window_us must be positive");
      if (spec.fast_burn <= 0 || spec.slow_burn <= 0) {
        fail(lineno, "slo burn thresholds must be positive");
      }
      cfg.engine.slos.push_back(std::move(spec));
    } else if (directive == "rail") {
      std::string kind;
      ls >> kind;
      if (kind == "preset") {
        std::string name;
        if (!(ls >> name)) fail(lineno, "rail preset needs a name");
        cfg.fabric.rails.push_back(preset_by_name(name, lineno));
      } else if (kind == "custom") {
        cfg.fabric.rails.push_back(custom_rail(ls, lineno));
      } else {
        fail(lineno, "rail needs 'preset <name>' or 'custom k=v ...'");
      }
    } else {
      fail(lineno, "unknown directive '" + directive + "'");
    }
  }
  if (cfg.fabric.rails.empty()) fail(lineno, "config declares no rails");
  return cfg;
}

WorldConfig load_world_config(const std::string& path) {
  std::ifstream is(path);
  RAILS_CHECK_MSG(is.good(), "cannot open cluster config file");
  return parse_world_config(is);
}

void save_world_config(const WorldConfig& cfg, std::ostream& os) {
  os << "# rails cluster config\n";
  os << "nodes " << cfg.fabric.node_count << "\n";
  os << "topology " << cfg.fabric.topology.sockets << "x"
     << cfg.fabric.topology.cores_per_socket << "\n";
  switch (cfg.fabric.net.kind) {
    case topo::TopoKind::kFlat:
      break;  // the default shape stays implicit, like fault_seed 0
    case topo::TopoKind::kMesh2D:
    case topo::TopoKind::kTorus2D:
      os << "topology " << topo::to_string(cfg.fabric.net.kind) << " "
         << cfg.fabric.net.width << "x" << cfg.fabric.net.height << "\n";
      break;
    case topo::TopoKind::kFatTree2L:
      os << "topology fattree " << cfg.fabric.net.down_ports << "x"
         << cfg.fabric.net.up_ports << "\n";
      break;
  }
  if (cfg.fabric.event_sharding) os << "event_sharding 1\n";
  os << "strategy " << cfg.strategy << "\n";
  if (cfg.engine.rdv_threshold_override != 0) {
    os << "rdv_threshold " << cfg.engine.rdv_threshold_override << "\n";
  }
  os << "offload_signal_us " << to_usec(cfg.engine.offload.signal_cost) << "\n";
  os << "offload_preempt_us " << to_usec(cfg.engine.offload.preempt_cost) << "\n";
  os << "offload_min_split " << cfg.engine.offload.min_split_size << "\n";
  os << "sampler_max_size " << cfg.sampler.max_size << "\n";
  os << "reliability " << (cfg.engine.reliability.enabled ? 1 : 0) << "\n";
  if (cfg.fabric.fault_seed != 0) os << "fault_seed " << cfg.fabric.fault_seed << "\n";
  for (const auto& f : cfg.fabric.faults) {
    if (!fabric::is_data_plane(f.spec.kind)) continue;  // not expressible here
    os << "fault rail=" << f.rail;
    if (f.node >= 0) os << " node=" << f.node;
    if (f.spec.at != 0) os << " at_us=" << to_usec(f.spec.at);
    if (f.spec.duration != 0) os << " duration_us=" << to_usec(f.spec.duration);
    switch (f.spec.kind) {
      case fabric::FaultKind::kDrop: os << " drop=" << f.spec.rate; break;
      case fabric::FaultKind::kCorrupt: os << " corrupt=" << f.spec.rate; break;
      case fabric::FaultKind::kDup: os << " dup=" << f.spec.rate; break;
      case fabric::FaultKind::kReorder:
        os << " reorder=" << f.spec.reorder_window
           << " reorder_rate=" << f.spec.rate;
        break;
      default: break;
    }
    os << "\n";
  }
  os << "recalibration " << (cfg.engine.recalibration.enabled ? 1 : 0) << "\n";
  os << "qos " << (cfg.engine.qos.enabled ? 1 : 0) << "\n";
  os << "qos_quantum " << cfg.engine.qos.quantum << "\n";
  os << "qos_aging_us " << to_usec(cfg.engine.qos.aging) << "\n";
  for (const auto& c : cfg.engine.qos.classes) {
    os << "qos_class name=" << c.name << " weight=" << c.weight
       << " strict=" << (c.strict_priority ? 1 : 0) << " capacity=" << c.queue_capacity
       << " deadline_us=" << to_usec(c.default_deadline) << "\n";
  }
  os << "timeseries " << (cfg.engine.timeseries.enabled ? 1 : 0) << "\n";
  for (const auto& s : cfg.engine.slos) {
    os << "slo " << s.cls;
    if (s.p99_us > 0) os << " p99_us=" << s.p99_us;
    if (s.hit_rate > 0) os << " hit_rate=" << s.hit_rate;
    os << " window_us=" << to_usec(s.window);
    if (s.fast_window > 0) os << " fast_window_us=" << to_usec(s.fast_window);
    os << " fast_burn=" << s.fast_burn << " slow_burn=" << s.slow_burn
       << " patience=" << s.clear_patience << " min_events=" << s.min_events << "\n";
  }
  for (const auto& r : cfg.fabric.rails) {
    os << "rail custom name=" << r.name << " post_us=" << r.post_us
       << " wire_latency_us=" << r.wire_latency_us << " pio_bw=" << r.pio_bw_mbps
       << " pio_bw_large=" << r.pio_bw_large_mbps
       << " pio_cache_limit=" << r.pio_cache_limit << " mtu=" << r.mtu
       << " per_packet_us=" << r.per_packet_us << " max_eager=" << r.max_eager
       << " rdv_handshake_us=" << r.rdv_handshake_us << " dma_setup_us=" << r.dma_setup_us
       << " dma_bw=" << r.dma_bw_mbps << " gather_scatter=" << (r.gather_scatter ? 1 : 0)
       << " rdma=" << (r.rdma ? 1 : 0) << "\n";
  }
}

}  // namespace rails::core
