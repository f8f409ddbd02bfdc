// railsctl — command-line front end for the rails engine.
//
// The subcommand surface (names, option synopses, help text) lives in ONE
// table: tools/railsctl_cli.hpp. The usage string is generated from it and
// the handler array below is pinned to it with a static_assert, so a
// subcommand cannot exist without appearing in the help (and vice versa) —
// tests/test_railsctl_cli.cpp checks the invariants.
//
// The cluster file format is documented in src/core/config.hpp; presets:
// myri10g, qsnet2, ib-ddr, gige-tcp.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/table.hpp"
#include "bench_support/traffic.hpp"
#include "core/config.hpp"
#include "core/world.hpp"
#include "perf/profiler.hpp"
#include "qos/arbiter.hpp"
#include "railsctl_cli.hpp"
#include "telemetry/metrics.hpp"
#include "topo/topology.hpp"
#include "telemetry/prediction.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/spans.hpp"
#include "trace/tracer.hpp"

using namespace rails;

namespace {

int usage() {
  std::fputs(railsctl::usage_text().c_str(), stderr);
  return 2;
}

/// Returns the value following `flag`, or `fallback`.
const char* opt(int argc, char** argv, const char* flag, const char* fallback) {
  for (int i = 3; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

/// True when the bare `flag` appears among the options.
bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const auto comma = csv.find(',', pos);
    const auto end = comma == std::string::npos ? csv.size() : comma;
    if (end > pos) out.push_back(csv.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Parses `R:drop=0.02,corrupt=0.001,dup=0.01,reorder=4` into per-kind
/// data-plane FaultSpecs for rail R. Rates are probabilities in [0,1];
/// `reorder` takes a window in segments, not a rate.
bool parse_fault_rail(const char* arg, int* rail, std::vector<fabric::FaultSpec>* out) {
  const std::string s(arg);
  const auto colon = s.find(':');
  if (colon == std::string::npos || colon == 0) return false;
  try {
    *rail = std::stoi(s.substr(0, colon));
  } catch (...) {
    return false;
  }
  for (const auto& kv : split_csv(s.substr(colon + 1))) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = kv.substr(0, eq);
    double val = 0;
    try {
      val = std::stod(kv.substr(eq + 1));
    } catch (...) {
      return false;
    }
    fabric::FaultSpec spec;
    if (key == "drop") {
      spec.kind = fabric::FaultKind::kDrop;
      spec.rate = val;
    } else if (key == "corrupt") {
      spec.kind = fabric::FaultKind::kCorrupt;
      spec.rate = val;
    } else if (key == "dup") {
      spec.kind = fabric::FaultKind::kDup;
      spec.rate = val;
    } else if (key == "reorder") {
      spec.kind = fabric::FaultKind::kReorder;
      spec.reorder_window = static_cast<unsigned>(val);
      spec.rate = 1.0;
    } else {
      return false;
    }
    if (spec.kind != fabric::FaultKind::kReorder && (val < 0.0 || val > 1.0)) {
      return false;
    }
    out->push_back(spec);
  }
  return !out->empty();
}

int cmd_describe(const core::WorldConfig& cfg) {
  core::save_world_config(cfg, std::cout);
  return 0;
}

int cmd_sample(const core::WorldConfig& cfg, const char* out_dir) {
  const auto profiles = sampling::sample_rails(cfg.fabric.rails, cfg.sampler);
  std::printf("%-12s %10s %12s %12s %14s\n", "rail", "latency", "eager bw",
              "DMA bw", "rdv threshold");
  for (const auto& rp : profiles) {
    std::printf("%-12s %7.2f us %7.0f MB/s %7.0f MB/s %11zu B\n", rp.name.c_str(),
                to_usec(rp.eager.latency()), rp.eager.asymptotic_bandwidth(),
                rp.rdv_chunk.asymptotic_bandwidth(), rp.rdv_threshold);
    if (out_dir != nullptr) {
      const std::string path = std::string(out_dir) + "/" + rp.name + ".rails-profile";
      rp.save_file(path);
      std::printf("  -> %s\n", path.c_str());
    }
  }
  return 0;
}

int cmd_pingpong(core::WorldConfig cfg, std::size_t min_size, std::size_t max_size,
                 unsigned iters) {
  core::World world(std::move(cfg));
  std::printf("strategy %s, %u iteration(s) per size\n",
              world.engine(0).strategy().name().c_str(), iters);
  std::printf("%10s %14s %14s\n", "size", "half-rtt (us)", "bw (MB/s)");
  for (std::size_t size = min_size; size <= max_size; size <<= 1) {
    const SimDuration t = world.measure_pingpong(size, iters);
    std::printf("%10s %11.1f us %11.0f\n", bench::format_size(size).c_str(), to_usec(t),
                mbps(size, t));
  }
  return 0;
}

int cmd_compare(const core::WorldConfig& base, std::size_t size,
                const std::vector<std::string>& strategies) {
  std::printf("%-24s %14s %12s %8s\n", "strategy", "one-way (us)", "bw (MB/s)",
              "chunks");
  for (const auto& name : strategies) {
    core::WorldConfig cfg = base;
    cfg.strategy = name;
    core::World world(std::move(cfg));
    world.engine(0).reset_stats();
    const SimDuration t = world.measure_one_way(size);
    const auto& stats = world.engine(0).stats();
    const auto chunks = stats.rdv_chunks + stats.eager_segments;
    std::printf("%-24s %11.1f us %9.0f %8llu\n", name.c_str(), to_usec(t),
                mbps(size, t), static_cast<unsigned long long>(chunks));
  }
  return 0;
}

int cmd_gantt(core::WorldConfig cfg, std::size_t size) {
  core::World world(std::move(cfg));
  trace::Tracer tracer;
  world.engine(0).set_tracer(&tracer);
  std::vector<std::uint8_t> tx(size, 0x61);
  std::vector<std::uint8_t> rx(size);
  auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
  auto send = world.engine(0).isend(1, 1, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  std::printf("%zu-byte transfer under %s ('=' eager PIO, '#' DMA chunk):\n", size,
              world.engine(0).strategy().name().c_str());
  tracer.render_gantt(std::cout, 72);
  const auto tl = tracer.message(0, send->id);
  if (tl && tl->queueing_delay() && tl->total_latency()) {
    std::printf("queueing %.1f us, total %.1f us, %u chunk(s), %u offloaded\n",
                to_usec(*tl->queueing_delay()), to_usec(*tl->total_latency()),
                tl->chunks, tl->offloaded);
  }
  world.engine(0).set_tracer(nullptr);
  return 0;
}

/// Mixed workload shared by `metrics` and `trace`: a burst of small eager
/// messages, one medium (offloadable) eager message, and one large
/// rendezvous transfer of `size` bytes, all node 0 -> node 1.
void run_mixed_workload(core::World& world, std::size_t size) {
  std::vector<std::uint8_t> small(512, 0x11);
  std::vector<std::uint8_t> medium(24_KiB, 0x22);
  std::vector<std::uint8_t> large(size, 0x33);
  std::vector<std::uint8_t> rx_small(8 * 512);
  std::vector<std::uint8_t> rx_medium(medium.size());
  std::vector<std::uint8_t> rx_large(large.size());

  std::vector<core::RecvHandle> recvs;
  for (int i = 0; i < 8; ++i) {
    recvs.push_back(world.engine(1).irecv(0, 100 + i, rx_small.data() + i * 512, 512));
  }
  recvs.push_back(world.engine(1).irecv(0, 200, rx_medium.data(), rx_medium.size()));
  recvs.push_back(world.engine(1).irecv(0, 300, rx_large.data(), rx_large.size()));

  std::vector<core::SendHandle> sends;
  for (int i = 0; i < 8; ++i) {
    sends.push_back(world.engine(0).isend(1, 100 + i, small.data(), small.size()));
  }
  sends.push_back(world.engine(0).isend(1, 200, medium.data(), medium.size()));
  sends.push_back(world.engine(0).isend(1, 300, large.data(), large.size()));
  for (auto& r : recvs) world.wait(r);
  for (auto& s : sends) world.wait(s);
}

/// Per-class arbiter state table shared by `qos` and `metrics`.
void print_qos_table(const qos::QosArbiter& arb) {
  std::printf("%-12s %7s %6s %6s %6s %8s %8s %12s %7s %6s %6s %7s\n",
              "class", "weight", "strict", "depth", "hwm", "deficit", "granted",
              "bytes", "aged", "dhit", "dmiss", "admrej");
  for (qos::ClassId c = 0; c < arb.class_count(); ++c) {
    const qos::ClassSpec& spec = arb.spec(c);
    const qos::ClassCounters n = arb.counters(c);
    std::printf("%-12s %7.2f %6s %6zu %6llu %8zu %8llu %12llu %7llu %6llu %6llu "
                "%7llu\n",
                spec.name.c_str(), spec.weight, spec.strict_priority ? "yes" : "no",
                arb.depth(c), static_cast<unsigned long long>(n.depth_hwm),
                arb.deficit(c), static_cast<unsigned long long>(n.granted),
                static_cast<unsigned long long>(n.granted_bytes),
                static_cast<unsigned long long>(n.aged_grants),
                static_cast<unsigned long long>(n.deadline_hits),
                static_cast<unsigned long long>(n.deadline_misses),
                static_cast<unsigned long long>(n.admission_rejects));
  }
}

int cmd_metrics(const core::WorldConfig& base, std::size_t size,
                const std::vector<std::string>& strategies, bool json, int fail_rail,
                double fail_at_us, bool recal, int degrade_rail, double degrade_factor,
                int force_recal, bool with_qos, bool reliability,
                const char* fault_rail_spec) {
  int fault_rail = -1;
  std::vector<fabric::FaultSpec> fault_specs;
  if (fault_rail_spec != nullptr &&
      !parse_fault_rail(fault_rail_spec, &fault_rail, &fault_specs)) {
    std::fprintf(stderr,
                 "railsctl metrics: bad --fault-rail spec '%s' "
                 "(want R:drop=P,corrupt=P,dup=P,reorder=W)\n",
                 fault_rail_spec);
    return 2;
  }
  for (const auto& name : strategies) {
    core::WorldConfig cfg = base;
    cfg.strategy = name;
    if (recal) cfg.engine.recalibration.enabled = true;
    if (with_qos) cfg.engine.qos.enabled = true;
    // Probabilistic faults without retransmit would just lose data, so
    // --fault-rail implies --reliability.
    if (reliability || fault_rail >= 0) cfg.engine.reliability.enabled = true;
    const std::size_t rail_count = cfg.fabric.rails.size();
    if (fault_rail >= 0 && static_cast<std::size_t>(fault_rail) >= rail_count) {
      std::fprintf(stderr,
                   "railsctl metrics: --fault-rail %d out of range (%zu rails)\n",
                   fault_rail, rail_count);
      return 2;
    }
    if (fail_rail >= 0 && static_cast<std::size_t>(fail_rail) >= rail_count) {
      std::fprintf(stderr, "railsctl metrics: --fail-rail %d out of range (%zu rails)\n",
                   fail_rail, rail_count);
      return 2;
    }
    if (degrade_rail >= 0 && static_cast<std::size_t>(degrade_rail) >= rail_count) {
      std::fprintf(stderr,
                   "railsctl metrics: --degrade-rail %d out of range (%zu rails)\n",
                   degrade_rail, rail_count);
      return 2;
    }
    if (force_recal >= 0 &&
        (static_cast<std::size_t>(force_recal) >= rail_count || !recal)) {
      std::fprintf(stderr,
                   "railsctl metrics: --force-recal needs --recal and a valid rail\n");
      return 2;
    }
    core::World world(std::move(cfg));
    telemetry::MetricsRegistry registry;
    telemetry::PredictionTracker predictions(rail_count);
    world.engine(0).set_metrics(&registry);
    world.engine(0).set_prediction_tracker(&predictions);

    if (fail_rail >= 0) {
      // Fail-stop node 0's NIC on that rail mid-workload so the failover /
      // quarantine counters light up.
      fabric::FaultSpec fault;
      fault.kind = fabric::FaultKind::kFailStop;
      fault.at = usec(fail_at_us);
      world.fabric().nic(0, static_cast<RailId>(fail_rail)).inject_fault(fault);
    }
    if (degrade_rail >= 0) {
      // Slow that rail forever, starting immediately — the drift detector's
      // bread and butter: predictions stay pristine, deliveries do not.
      fabric::FaultSpec fault;
      fault.kind = fabric::FaultKind::kDegrade;
      fault.at = 0;
      fault.duration = 0;  // forever
      fault.factor = degrade_factor;
      world.fabric().nic(0, static_cast<RailId>(degrade_rail)).inject_fault(fault);
    }
    if (fault_rail >= 0) {
      // Data-plane faults go on every node's NIC for that rail: drops and
      // corruption hit traffic in both directions, so ACKs suffer too.
      for (NodeId n = 0; n < static_cast<NodeId>(world.fabric().node_count()); ++n) {
        for (const auto& spec : fault_specs) {
          world.fabric().nic(n, static_cast<RailId>(fault_rail)).inject_fault(spec);
        }
      }
    }

    // With recalibration on, one workload rarely produces enough residuals
    // to cross min_samples — repeat it so trust states have time to move.
    const int rounds = recal ? 10 : 1;
    for (int round = 0; round < rounds; ++round) {
      run_mixed_workload(world, size);
      if (round == 0 && force_recal >= 0) {
        // Queued now, drained by the next round's event loop.
        world.engine(0).force_recalibrate(static_cast<RailId>(force_recal));
      }
    }

    world.engine(0).set_metrics(nullptr);
    world.engine(0).set_prediction_tracker(nullptr);

    if (json) {
      // One self-contained object per strategy (line-delimited when several
      // strategies are requested): counters/gauges/histograms plus the
      // per-rail prediction-accuracy summary and, with QoS on, the
      // per-class arbiter block.
      std::cout << "{\"strategy\":\"" << name << "\",\"metrics\":";
      registry.dump_json(std::cout);
      std::cout << ",\"predictions\":";
      predictions.dump_json(std::cout);
      if (world.engine(0).qos() != nullptr) {
        std::cout << ",\"qos\":";
        world.engine(0).qos()->write_json(std::cout);
      }
      std::cout << "}\n";
      continue;
    }
    std::printf("=== strategy %s (%zu rails, %zu-byte rendezvous) ===\n", name.c_str(),
                rail_count, size);
    registry.dump_text(std::cout);
    predictions.dump(std::cout);
    if (world.engine(0).qos() != nullptr) {
      std::printf("per-class QoS arbiter state:\n");
      print_qos_table(*world.engine(0).qos());
    }
    if (recal && world.recalibrator() != nullptr) {
      std::printf("per-rail trust:\n");
      for (std::size_t r = 0; r < rail_count; ++r) {
        std::printf("  %s\n", world.recalibrator()->status(static_cast<RailId>(r)).c_str());
      }
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_trace(core::WorldConfig cfg, std::size_t size, const char* out_path) {
  if (out_path == nullptr) {
    std::fprintf(stderr, "railsctl trace: --chrome <out.json> is required\n");
    return 2;
  }
  core::World world(std::move(cfg));
  trace::Tracer tracer;
  world.engine(0).set_tracer(&tracer);
  run_mixed_workload(world, size);
  world.engine(0).set_tracer(nullptr);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "railsctl trace: cannot open %s for writing\n", out_path);
    return 1;
  }
  tracer.dump_chrome_trace(out);
  std::printf("wrote %zu events to %s (open in ui.perfetto.dev or about:tracing)\n",
              tracer.size(), out_path);
  return 0;
}

/// Workload for `spans`: like the mixed workload, but the medium eager
/// message is submitted after the small burst has drained so it reaches the
/// strategy alone — the single-pending-message shape the multicore offload
/// path (Fig. 7) engages on, giving the TO histogram real samples.
void run_staged_workload(core::World& world, std::size_t size) {
  std::vector<std::uint8_t> small(512, 0x11);
  std::vector<std::uint8_t> medium(24_KiB, 0x22);
  std::vector<std::uint8_t> large(size, 0x33);
  std::vector<std::uint8_t> rx_small(8 * 512);
  std::vector<std::uint8_t> rx_medium(medium.size());
  std::vector<std::uint8_t> rx_large(large.size());

  std::vector<core::RecvHandle> recvs;
  std::vector<core::SendHandle> sends;
  for (int i = 0; i < 8; ++i) {
    recvs.push_back(world.engine(1).irecv(0, 100 + i, rx_small.data() + i * 512, 512));
    sends.push_back(world.engine(0).isend(1, 100 + i, small.data(), small.size()));
  }
  for (auto& r : recvs) world.wait(r);
  for (auto& s : sends) world.wait(s);

  auto recv_m = world.engine(1).irecv(0, 200, rx_medium.data(), rx_medium.size());
  auto send_m = world.engine(0).isend(1, 200, medium.data(), medium.size());
  world.wait(recv_m);
  world.wait(send_m);

  auto recv_l = world.engine(1).irecv(0, 300, rx_large.data(), rx_large.size());
  auto send_l = world.engine(0).isend(1, 300, large.data(), large.size());
  world.wait(recv_l);
  world.wait(send_l);
}

int cmd_spans(core::WorldConfig cfg, std::size_t size, const char* strategy,
              int fail_rail, double fail_at_us, const char* chrome_path,
              const char* bundle_dir) {
  if (strategy != nullptr) cfg.strategy = strategy;
  const std::size_t rail_count = cfg.fabric.rails.size();
  if (fail_rail >= 0 && static_cast<std::size_t>(fail_rail) >= rail_count) {
    std::fprintf(stderr, "railsctl spans: --fail-rail %d out of range (%zu rails)\n",
                 fail_rail, rail_count);
    return 2;
  }
  core::World world(std::move(cfg));
  telemetry::MetricsRegistry registry;
  trace::Tracer tracer;
  trace::FlightRecorder recorder;
  recorder.set_output(bundle_dir != nullptr ? bundle_dir : ".");
  recorder.set_metrics(&registry);
  world.engine(0).set_metrics(&registry);
  world.engine(0).set_tracer(&tracer);
  world.engine(0).set_flight_recorder(&recorder);

  if (fail_rail >= 0) {
    fabric::FaultSpec fault;
    fault.kind = fabric::FaultKind::kFailStop;
    fault.at = usec(fail_at_us);
    world.fabric().nic(0, static_cast<RailId>(fail_rail)).inject_fault(fault);
  }

  run_staged_workload(world, size);

  const trace::SpanAnalysis analysis = trace::analyze_spans(tracer);
  std::printf("strategy %s, %zu rails, %zu-byte rendezvous workload\n",
              world.engine(0).strategy().name().c_str(), rail_count, size);
  analysis.dump(std::cout);

  if (chrome_path != nullptr) {
    std::ofstream out(chrome_path);
    if (!out) {
      std::fprintf(stderr, "railsctl spans: cannot open %s for writing\n", chrome_path);
      return 1;
    }
    trace::ChromeTraceSink sink(out);
    tracer.dump_chrome_trace_events(sink);
    trace::emit_chrome_spans(sink, analysis);
    sink.close();
    std::printf("wrote Chrome trace with span overlays to %s\n", chrome_path);
  }
  if (recorder.bundles_written() > 0) {
    std::printf("flight-recorder bundle: %s (render with `railsctl postmortem`)\n",
                recorder.last_bundle_path().c_str());
  }

  world.engine(0).set_flight_recorder(nullptr);
  world.engine(0).set_tracer(nullptr);
  world.engine(0).set_metrics(nullptr);
  return 0;
}

int cmd_qos(core::WorldConfig cfg, std::size_t size, bool json) {
  // The subcommand exists to inspect the arbiter, so switch it on even when
  // the cluster file leaves QoS disabled.
  cfg.engine.qos.enabled = true;
  core::World world(std::move(cfg));
  core::Engine& tx = world.engine(0);

  // Bulk flood + latency pings + deadline probes: enough traffic to light
  // every per-class counter. Two bulk transfers saturate the rails while a
  // burst of small sends competes through the strict class; one send with an
  // absurd 1 ns deadline exercises admission rejection.
  std::vector<std::uint8_t> bulk(size, 0x33);
  std::vector<std::uint8_t> small(512, 0x11);
  std::vector<std::uint8_t> rx_bulk0(size), rx_bulk1(size), rx_small(16 * 512);

  std::vector<core::RecvHandle> recvs;
  recvs.push_back(world.engine(1).irecv(0, 300, rx_bulk0.data(), size));
  recvs.push_back(world.engine(1).irecv(0, 301, rx_bulk1.data(), size));
  for (int i = 0; i < 16; ++i) {
    recvs.push_back(world.engine(1).irecv(0, 100 + i, rx_small.data() + i * 512, 512));
  }

  std::vector<core::SendHandle> sends;
  sends.push_back(tx.isend(1, 300, bulk.data(), size));
  sends.push_back(tx.isend(1, 301, bulk.data(), size));
  for (int i = 0; i < 16; ++i) {
    core::Engine::SendOptions opts;
    if (i % 4 == 0) opts.deadline = world.now() + usec(10'000);  // generous: hits
    sends.push_back(tx.isend(1, 100 + i, small.data(), small.size(), opts));
  }
  // Infeasible deadline: rejected at admission, never enters the fabric
  // (the matching 16 recvs above are already satisfied by the burst).
  core::Engine::SendOptions hopeless;
  hopeless.deadline = world.now() + 1;
  const auto rejected = tx.isend(1, 999, small.data(), small.size(), hopeless);

  for (auto& r : recvs) world.wait(r);
  for (auto& s : sends) world.wait(s);

  const qos::QosArbiter* arb = tx.qos();
  if (json) {
    arb->write_json(std::cout);
    std::cout << "\n";
    return 0;
  }
  std::printf("strategy %s, %zu-byte bulk x2 + 16 pings + 1 infeasible deadline "
              "(rejected: %s)\n",
              tx.strategy().name().c_str(), size, rejected->rejected() ? "yes" : "no");
  print_qos_table(*arb);
  const auto& stats = tx.stats();
  qos::ClassCounters sum;  // every per-class row, summed over the classes
  for (qos::ClassId c = 0; c < arb->class_count(); ++c) {
    const qos::ClassCounters cc = arb->counters(c);
    for (const qos::QosCounterRow& row : qos::kQosCounters) sum.*row.field += cc.*row.field;
  }
  std::printf("engine: %llu grants, %llu windowed chunks, %llu deadline hits, "
              "%llu misses, %llu admission rejects\n",
              static_cast<unsigned long long>(stats.qos_grants),
              static_cast<unsigned long long>(stats.qos_stream_chunks),
              static_cast<unsigned long long>(sum.deadline_hits),
              static_cast<unsigned long long>(sum.deadline_misses),
              static_cast<unsigned long long>(sum.admission_rejects));
  return 0;
}

int cmd_perf(core::WorldConfig cfg, std::size_t size, unsigned rounds, bool json) {
  // QoS on so the classify and arbiter layers see traffic; otherwise the
  // breakdown would report them as permanently idle on default configs.
  cfg.engine.qos.enabled = true;
  core::World world(std::move(cfg));
  world.engine(0).reset_stats();

  // A deliberate profiling session: record every root scope (no sampling)
  // so the per-message attribution is exact, not an estimate.
  perf::Profiler::set_enabled(true);
  perf::Profiler::set_sample_every(1);
  perf::Profiler::reset();
  for (unsigned r = 0; r < rounds; ++r) run_mixed_workload(world, size);
  const perf::Snapshot snap = perf::Profiler::snapshot();
  perf::Profiler::set_enabled(false);

  const double messages = static_cast<double>(world.engine(0).stats().sends);
  // The breakdown also lands in the metrics registry as perf.* gauges so
  // dumps and postmortem bundles carry it.
  telemetry::MetricsRegistry registry;
  perf::Profiler::publish(registry, snap);

  if (json) {
    perf::Profiler::write_json(std::cout, snap, messages);
    std::cout << "\n";
    return 0;
  }
  std::printf("strategy %s, %u round(s) of the mixed workload, %zu-byte rendezvous, "
              "%.0f messages\n",
              world.engine(0).strategy().name().c_str(), rounds, size, messages);
  if (snap.root_cycles == 0 && snap.total_self_cycles() == 0) {
    std::printf("no cycles recorded — profiler compiled out "
                "(RAILS_PERF_PROFILER=OFF)?\n");
  }
  perf::Profiler::write_table(std::cout, snap, messages);
  return 0;
}

/// One round of the health-plane workload shared by `watch` and `slo`: a
/// burst of deadline-tagged pings through the latency class racing one bulk
/// transfer, node 0 -> node 1. `deadline_margin` is the slack granted to
/// each ping; generous margins produce hits, tight ones (under a degraded
/// fabric) produce the misses the burn-rate alert feeds on.
void run_health_round(core::World& world, std::size_t bulk_size,
                      SimDuration deadline_margin) {
  std::vector<std::uint8_t> small(512, 0x11);
  std::vector<std::uint8_t> bulk(bulk_size, 0x22);
  std::vector<std::uint8_t> rx_small(16 * 512);
  std::vector<std::uint8_t> rx_bulk(bulk_size);

  // Sends go first, matching recvs only for the ones admission let through —
  // under an induced collapse tight deadlines get rejected at submit, and a
  // recv for a rejected send would never complete.
  std::vector<core::SendHandle> sends;
  std::vector<core::RecvHandle> recvs;
  for (int i = 0; i < 16; ++i) {
    core::Engine::SendOptions opts;
    opts.deadline = world.now() + deadline_margin;
    auto send = world.engine(0).isend(1, 100 + i, small.data(), small.size(), opts);
    if (send->rejected()) continue;
    recvs.push_back(world.engine(1).irecv(0, 100 + i, rx_small.data() + i * 512, 512));
    sends.push_back(std::move(send));
  }
  recvs.push_back(world.engine(1).irecv(0, 300, rx_bulk.data(), bulk_size));
  sends.push_back(world.engine(0).isend(1, 300, bulk.data(), bulk.size()));
  for (auto& r : recvs) world.wait(r);
  for (auto& s : sends) world.wait(s);
}

int cmd_watch(core::WorldConfig cfg, unsigned rounds, double interval_us, bool once,
              bool json) {
  // The scorecard reads qos.<class>.* metrics and the time series need the
  // sampler, so both planes go on regardless of the cluster file.
  cfg.engine.qos.enabled = true;
  cfg.engine.timeseries.enabled = true;
  core::World world(std::move(cfg));
  core::Engine& tx = world.engine(0);
  telemetry::MetricsRegistry registry;
  tx.set_metrics(&registry);
  const std::vector<std::string> classes = tx.qos_class_names();

  SimTime next_render = world.now() + usec(interval_us);
  for (unsigned r = 0; r < rounds; ++r) {
    run_health_round(world, 256_KiB, usec(5'000));
    if (!once && !json && world.now() >= next_render) {
      std::printf("--- t=%.0f us ---\n", static_cast<double>(world.now()) / 1e3);
      telemetry::Scorecard::render(std::cout,
                                   telemetry::Scorecard::collect(registry, classes));
      while (next_render <= world.now()) next_render += usec(interval_us);
    }
  }

  const telemetry::HealthSampler* health = tx.health();
  if (json) {
    std::cout << "{\"time_ns\":" << world.now() << ",\"scorecard\":";
    telemetry::Scorecard::write_json(std::cout,
                                     telemetry::Scorecard::collect(registry, classes));
    std::cout << ",\"timeseries\":";
    if (health != nullptr) {
      health->write_json(std::cout);
    } else {
      std::cout << "null";
    }
    if (tx.slo_monitor() != nullptr) {
      std::cout << ",\"slo\":";
      tx.slo_monitor()->write_json(std::cout);
    }
    std::cout << "}\n";
  } else {
    std::printf("=== scorecard at t=%.0f us (%u round(s), strategy %s) ===\n",
                static_cast<double>(world.now()) / 1e3, rounds,
                tx.strategy().name().c_str());
    telemetry::Scorecard::render(std::cout,
                                 telemetry::Scorecard::collect(registry, classes));
    if (health != nullptr) {
      std::printf("health: %llu tick(s), %zu series, interval %.0f us\n",
                  static_cast<unsigned long long>(health->ticks()),
                  health->series_count(), to_usec(health->interval()));
    }
    if (tx.slo_monitor() != nullptr) tx.slo_monitor()->dump(std::cout);
  }
  tx.set_metrics(nullptr);
  return 0;
}

int cmd_slo(core::WorldConfig cfg, bool collapse, bool json) {
  cfg.engine.qos.enabled = true;
  cfg.engine.timeseries.enabled = true;
  if (cfg.engine.slos.empty()) {
    // No `slo` directives in the cluster file: install a demonstration
    // objective on the builtin latency class so the command always has
    // something to evaluate.
    telemetry::SloSpec spec;
    spec.cls = "latency";
    spec.hit_rate = 0.99;
    spec.p99_us = 500;
    spec.window = usec(6'000);
    spec.fast_window = usec(1'500);
    cfg.engine.slos.push_back(spec);
  }
  core::World world(std::move(cfg));
  core::Engine& tx = world.engine(0);
  telemetry::MetricsRegistry registry;
  trace::FlightRecorder recorder;
  recorder.set_output(".");
  recorder.set_metrics(&registry);
  tx.set_metrics(&registry);
  tx.set_flight_recorder(&recorder);

  if (collapse) {
    // Slow every rail on the sending node without telling the predictor:
    // admission still believes the nominal profiles, completions land late,
    // and the hit-rate objective burns its error budget.
    for (std::size_t r = 0; r < world.fabric().rail_count(); ++r) {
      fabric::FaultSpec fault;
      fault.kind = fabric::FaultKind::kDegrade;
      fault.at = 0;
      fault.duration = 0;  // forever
      fault.factor = 6.0;
      world.fabric().nic(0, static_cast<RailId>(r)).inject_fault(fault);
    }
  }
  const SimDuration margin = collapse ? usec(40) : usec(5'000);
  for (unsigned r = 0; r < 24; ++r) run_health_round(world, 64_KiB, margin);

  const telemetry::SloMonitor* monitor = tx.slo_monitor();
  if (json) {
    monitor->write_json(std::cout);
    std::cout << "\n";
  } else {
    std::printf("%zu objective(s) over %u round(s)%s:\n", monitor->alerts().size(), 24u,
                collapse ? " (induced collapse: 6x degrade, 40 us deadlines)" : "");
    monitor->dump(std::cout);
    std::printf("alerts fired: %llu%s\n",
                static_cast<unsigned long long>(monitor->alerts_fired()),
                monitor->any_firing() ? " (FIRING)" : "");
    if (recorder.bundles_written() > 0) {
      // A degraded fabric pages more than once (failover, quarantine); the
      // slo-burn bundle is the one carrying the offending time series.
      std::printf("%u postmortem bundle(s) written, last %s "
                  "(render with `railsctl postmortem`)\n",
                  recorder.bundles_written(), recorder.last_bundle_path().c_str());
    }
  }
  tx.set_flight_recorder(nullptr);
  tx.set_metrics(nullptr);
  return 0;
}

int cmd_postmortem(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "railsctl postmortem: cannot open %s\n", path);
    return 1;
  }
  return trace::FlightRecorder::render_postmortem(in, std::cout) ? 0 : 1;
}

int cmd_loadsweep(const core::WorldConfig& base, unsigned messages) {
  std::printf("%-14s %14s %14s %14s\n", "offered MB/s", "mean (us)", "p99 (us)",
              "achieved MB/s");
  for (double load : {200.0, 500.0, 1000.0, 1500.0, 2000.0}) {
    core::WorldConfig cfg = base;
    core::World world(std::move(cfg));
    bench::TrafficConfig tc;
    tc.offered_mbps = load;
    tc.message_count = messages;
    const auto r = bench::run_open_loop(world, tc);
    std::printf("%-14.0f %11.1f us %11.1f us %11.0f\n", load, r.mean_latency_us,
                r.p99_latency_us, r.achieved_mbps);
  }
  return 0;
}

int cmd_incast(const core::WorldConfig& base, unsigned senders, std::size_t size) {
  core::WorldConfig cfg = base;
  cfg.fabric.node_count = senders + 1;
  core::World world(std::move(cfg));
  std::vector<std::uint8_t> tx(size, 0x5D);
  std::vector<std::vector<std::uint8_t>> rx(senders, std::vector<std::uint8_t>(size));
  std::vector<core::RecvHandle> recvs;
  for (unsigned s = 0; s < senders; ++s) {
    recvs.push_back(world.engine(0).irecv(s + 1, 1, rx[s].data(), size));
  }
  const SimTime start = world.now();
  for (unsigned s = 0; s < senders; ++s) world.engine(s + 1).isend(0, 1, tx.data(), size);
  SimTime done = start;
  for (auto& r : recvs) done = std::max(done, world.wait(r));
  std::printf("%u senders x %zu bytes into node 0 under %s: %.1f us, %.0f MB/s aggregate\n",
              senders, size, world.engine(0).strategy().name().c_str(),
              to_usec(done - start), mbps(size * senders, done - start));
  return 0;
}

int cmd_topo(const core::WorldConfig& cfg, unsigned route_samples) {
  fabric::Fabric fab(cfg.fabric);
  const topo::Topology& t = fab.topo();
  std::printf("%s\n", t.describe().c_str());
  std::printf("event sharding: %s", cfg.fabric.event_sharding ? "on" : "off");
  if (cfg.fabric.event_sharding) {
    std::printf(" — %u shard(s), horizon %.2f us (min link latency)",
                fab.events().shard_count(), to_usec(fab.events().horizon()));
  }
  std::printf("\n");
  if (t.direct()) {
    std::printf("routes: every pair is one direct wire hop\n");
    return 0;
  }

  // Sample routes along the diagonal — 0 -> far corner first (the diameter
  // path), then evenly spread pairs, so the output shows the routing
  // discipline (dimension order / up-down) at a glance.
  const NodeId n = fab.node_count();
  std::printf("sample routes (%u of %u pairs):\n", route_samples,
              static_cast<unsigned>(n) * (n - 1));
  for (unsigned s = 0; s < route_samples; ++s) {
    const NodeId src = static_cast<NodeId>((s * n) / route_samples);
    const NodeId dst = (n - 1 - src == src) ? (src + 1) % n : n - 1 - src;
    const std::uint32_t hops = src == dst ? 0 : t.hops(src, dst);  // 1-node worlds
    std::printf("  %3u -> %-3u (%u hop%s):", src, dst, hops, hops == 1 ? "" : "s");
    for (std::uint32_t at = src; at != dst;) {
      at = t.next_hop(at, dst).to;
      if (at < n) {
        std::printf(" %u", at);
      } else {
        std::printf(" sw%u", at - n);
      }
    }
    std::printf("\n");
  }
  return 0;
}

// -- dispatch -----------------------------------------------------------------
//
// One option-parsing adapter per railsctl_cli.hpp table row, in table order.
// The static_assert below keeps the two in lockstep: add a command to the
// table and this fails to compile until a handler exists here.

using Handler = int (*)(int argc, char** argv, const core::WorldConfig& cfg);

int run_describe(int, char**, const core::WorldConfig& cfg) { return cmd_describe(cfg); }

int run_sample(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_sample(cfg, opt(argc, argv, "--out", nullptr));
}

int run_pingpong(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_pingpong(cfg, std::stoul(opt(argc, argv, "--min", "4")),
                      std::stoul(opt(argc, argv, "--max", "8388608")),
                      static_cast<unsigned>(std::stoul(opt(argc, argv, "--iters", "2"))));
}

int run_compare(int argc, char** argv, const core::WorldConfig& cfg) {
  const std::size_t size = std::stoul(opt(argc, argv, "--size", "4194304"));
  const auto strategies = split_csv(opt(
      argc, argv, "--strategies",
      "single-rail:0,greedy-balance,aggregate-fastest,iso-split,fixed-ratio-split,"
      "hetero-split,multicore-hetero-split,batch-spread"));
  return cmd_compare(cfg, size, strategies);
}

int run_gantt(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_gantt(cfg, std::stoul(opt(argc, argv, "--size", "4194304")));
}

int run_metrics(int argc, char** argv, const core::WorldConfig& cfg) {
  const std::size_t size = std::stoul(opt(argc, argv, "--size", "4194304"));
  const auto strategies =
      split_csv(opt(argc, argv, "--strategies", "multicore-hetero-split"));
  return cmd_metrics(cfg, size, strategies, has_flag(argc, argv, "--json"),
                     std::stoi(opt(argc, argv, "--fail-rail", "-1")),
                     std::stod(opt(argc, argv, "--fail-at-us", "5")),
                     has_flag(argc, argv, "--recal"),
                     std::stoi(opt(argc, argv, "--degrade-rail", "-1")),
                     std::stod(opt(argc, argv, "--degrade-factor", "3")),
                     std::stoi(opt(argc, argv, "--force-recal", "-1")),
                     has_flag(argc, argv, "--qos"), has_flag(argc, argv, "--reliability"),
                     opt(argc, argv, "--fault-rail", nullptr));
}

int run_qos(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_qos(cfg, std::stoul(opt(argc, argv, "--size", "4194304")),
                 has_flag(argc, argv, "--json"));
}

int run_trace(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_trace(cfg, std::stoul(opt(argc, argv, "--size", "4194304")),
                   opt(argc, argv, "--chrome", nullptr));
}

int run_spans(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_spans(cfg, std::stoul(opt(argc, argv, "--size", "4194304")),
                   opt(argc, argv, "--strategy", nullptr),
                   std::stoi(opt(argc, argv, "--fail-rail", "-1")),
                   std::stod(opt(argc, argv, "--fail-at-us", "5")),
                   opt(argc, argv, "--chrome", nullptr),
                   opt(argc, argv, "--postmortem-dir", nullptr));
}

int run_perf(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_perf(cfg, std::stoul(opt(argc, argv, "--size", "4194304")),
                  static_cast<unsigned>(std::stoul(opt(argc, argv, "--rounds", "4"))),
                  has_flag(argc, argv, "--json"));
}

int run_watch(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_watch(cfg,
                   static_cast<unsigned>(std::stoul(opt(argc, argv, "--rounds", "32"))),
                   std::stod(opt(argc, argv, "--interval-us", "500")),
                   has_flag(argc, argv, "--once"), has_flag(argc, argv, "--json"));
}

int run_slo(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_slo(cfg, has_flag(argc, argv, "--collapse"), has_flag(argc, argv, "--json"));
}

int run_postmortem(int, char** argv, const core::WorldConfig&) {
  // Unreachable through main (dispatched before the config loads); kept so
  // the handler array stays exactly parallel to the command table.
  return cmd_postmortem(argv[2]);
}

int run_loadsweep(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_loadsweep(
      cfg, static_cast<unsigned>(std::stoul(opt(argc, argv, "--messages", "120"))));
}

int run_incast(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_incast(cfg,
                    static_cast<unsigned>(std::stoul(opt(argc, argv, "--senders", "4"))),
                    std::stoul(opt(argc, argv, "--size", "2097152")));
}

int run_topo(int argc, char** argv, const core::WorldConfig& cfg) {
  return cmd_topo(cfg,
                  static_cast<unsigned>(std::stoul(opt(argc, argv, "--routes", "6"))));
}

constexpr Handler kHandlers[] = {
    run_describe, run_sample, run_pingpong, run_compare, run_gantt,
    run_metrics,  run_qos,    run_trace,    run_spans,   run_perf,
    run_watch,    run_slo,    run_postmortem, run_loadsweep, run_incast,
    run_topo,
};
static_assert(sizeof(kHandlers) / sizeof(kHandlers[0]) == railsctl::kCommandCount,
              "every command in railsctl_cli.hpp needs a handler (in table order)");

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const railsctl::CommandInfo* info = railsctl::find_command(argv[1]);
  if (info == nullptr) return usage();
  // postmortem takes a bundle file, not a cluster file — dispatch it before
  // the config loader gets a chance to choke on JSON.
  if (!info->takes_cluster_file) return cmd_postmortem(argv[2]);
  const core::WorldConfig cfg = core::load_world_config(argv[2]);
  return kHandlers[info - railsctl::kCommands](argc, argv, cfg);
}
