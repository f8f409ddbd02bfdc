// benchjson — canonical benchmark harness for the perf trajectory.
//
//   benchjson [--quick] [--out <path>] [--no-perf]
//
// Runs the repo's representative workloads in-process and writes one
// schema-versioned rails-bench bundle (bench_support/bench_json.hpp),
// default `BENCH_<unixtime>.json`. The bundle is the unit the CI
// regression gate diffs (tools/benchdiff.cpp): headline metrics are
// virtual-clock results — deterministic for a given commit, identical on
// every host — while host wall-clock numbers (DES throughput, profiler
// overhead) ride along as non-headline context.
//
// Benches emitted:
//   msgrate           burst of 64 small messages per strategy  (headline)
//   msgrate_multiplex steady-state host message rate and
//                     allocations per message (alloc-gated)    (non-headline)
//   ping_tail         loaded ping p50/p99, exact percentiles   (headline)
//   qos_isolation     ping tails + goodput with the arbiter on (headline)
//   des_engine        simulated events (headline) + host events/s
//                     and DES wall-clock seconds               (non-headline)
//   mesh_sweep        256-node torus transpose: completion, event
//                     and forwarded-segment counts             (headline)
//                     + host events/s with an absolute floor
//                     (min_abs) benchdiff gates                (non-headline)
//
// The hot-path profiler (src/perf) is enabled around the msgrate workload
// and its per-layer breakdown is embedded as the bundle's "perf" object;
// profiler on/off overhead is measured on the same workload.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/bench_json.hpp"
#include "bench_support/table.hpp"
#include "core/config.hpp"
#include "core/world.hpp"
#include "fabric/presets.hpp"
#include "perf/profiler.hpp"
#include "telemetry/metrics.hpp"
#include "topo/topology.hpp"

using namespace rails;

namespace {

struct Options {
  bool quick = false;
  bool with_perf = true;
  bool reliability = false;
  std::string out_path;
};

/// The standard four-rail testbed, with the reliability layer (CRC +
/// ACK/retransmit at zero fault rate) switched on when requested — the
/// benchdiff gate runs the same metric names both ways, so the reliable
/// path is held to the same headline numbers as the baseline.
core::WorldConfig testbed(const Options& opt, const char* strategy) {
  core::WorldConfig cfg = core::paper_testbed(strategy);
  cfg.engine.reliability.enabled = opt.reliability;
  return cfg;
}

// ---------------------------------------------------------------- msgrate

/// Virtual-time message rate for a burst of `kFlows` independent small
/// messages (bench/msgrate_multiplex.cpp's workload, embedded).
constexpr unsigned kFlows = 64;

double message_rate(core::World& world, std::size_t size) {
  static std::vector<std::uint8_t> tx(64_KiB, 0x33);
  static std::vector<std::uint8_t> rx(kFlows * 8_KiB);
  world.fabric().events().run_all();
  const SimTime start = world.now();

  std::vector<core::RecvHandle> recvs;
  recvs.reserve(kFlows);
  for (unsigned i = 0; i < kFlows; ++i) {
    recvs.push_back(world.engine(1).irecv(0, 1000 + i, rx.data() + i * size, size));
  }
  for (unsigned i = 0; i < kFlows; ++i) {
    world.engine(0).isend(1, 1000 + i, tx.data(), size);
  }
  SimTime done = start;
  for (auto& r : recvs) done = std::max(done, world.wait(r));
  return static_cast<double>(kFlows) / to_usec(done - start) * 1000.0;  // msgs/ms
}

bench::BenchResult run_msgrate(const Options& opt) {
  bench::BenchResult result;
  result.name = "msgrate";
  result.config = {{"flows", "64"}};
  const std::vector<std::size_t> sizes =
      opt.quick ? std::vector<std::size_t>{64, 2048}
                : std::vector<std::size_t>{64, 512, 2048, 8192};
  for (const char* strategy : {"aggregate-fastest", "batch-spread"}) {
    for (std::size_t size : sizes) {
      core::World world(testbed(opt, strategy));
      const double rate = message_rate(world, size);
      result.metrics.push_back({"msgs_per_ms/" + std::string(strategy) + "/" +
                                    bench::format_size(size),
                                rate, "msgs/ms", /*higher_is_better=*/true,
                                /*headline=*/true});
    }
  }
  return result;
}

// ---------------------------------------------------- msgrate_multiplex

/// Host-clock steady-state message rate plus allocations per message for
/// the 64-flow multiplex burst, repeated on ONE warmed World so pools and
/// scratch buffers reach steady state. Host wall-clock describes the
/// runner, so the rate stays non-headline; allocs/msg is deterministic for
/// a given build (the opt-in operator-new hook counts every allocation on
/// this thread) and is gated by benchdiff's alloc gate.
bench::BenchResult run_msgrate_multiplex(const Options& opt) {
  constexpr std::size_t kSize = 2048;
  constexpr unsigned kWarmup = 8;
  const unsigned rounds = opt.quick ? 64 : 512;
  bench::BenchResult result;
  result.name = "msgrate_multiplex";
  result.config = {{"flows", std::to_string(kFlows)},
                   {"size", std::to_string(kSize)},
                   {"rounds", std::to_string(rounds)}};

  perf::Profiler::set_enabled(false);
  core::World world(testbed(opt, "aggregate-fastest"));
  static std::vector<std::uint8_t> tx(64_KiB, 0x33);
  static std::vector<std::uint8_t> rx(kFlows * 8_KiB);
  std::vector<core::RecvHandle> recvs;
  recvs.reserve(kFlows);
  const auto burst = [&] {
    recvs.clear();
    for (unsigned i = 0; i < kFlows; ++i) {
      recvs.push_back(
          world.engine(1).irecv(0, 1000 + i, rx.data() + i * kSize, kSize));
    }
    for (unsigned i = 0; i < kFlows; ++i) {
      world.engine(0).isend(1, 1000 + i, tx.data(), kSize);
    }
    for (auto& r : recvs) world.wait(r);
  };
  for (unsigned i = 0; i < kWarmup; ++i) burst();

  const std::uint64_t alloc0 = perf::t_alloc_count;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned r = 0; r < rounds; ++r) burst();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs = perf::t_alloc_count - alloc0;

  const double sec = std::chrono::duration<double>(t1 - t0).count();
  const double messages = static_cast<double>(kFlows) * rounds;
  result.metrics.push_back({"host_msgs_per_sec",
                            sec > 0.0 ? messages / sec : 0.0, "msgs/s",
                            /*higher_is_better=*/true, /*headline=*/false});
  result.metrics.push_back({"allocs_per_msg",
                            static_cast<double>(allocs) / messages,
                            "allocs/msg", /*higher_is_better=*/false,
                            /*headline=*/false});

  // -- health-plane overhead -------------------------------------------------
  // Same burst with the sampler off vs on at the default interval, a
  // metrics registry attached on both sides so the only delta is the
  // sampler itself. Min-of-3 interleaved repeats cut runner noise; the
  // overhead carries a 2% absolute ceiling (max_abs) that benchdiff gates,
  // and the virtual-clock delta is headline — the sampler must consume
  // exactly zero virtual time, so the delta is exactly 0 on every host.
  telemetry::MetricsRegistry reg_off, reg_on;
  core::World off_world(testbed(opt, "aggregate-fastest"));
  core::WorldConfig on_cfg = testbed(opt, "aggregate-fastest");
  on_cfg.engine.timeseries.enabled = true;
  core::World on_world(std::move(on_cfg));
  off_world.engine(0).set_metrics(&reg_off);
  on_world.engine(0).set_metrics(&reg_on);
  std::vector<core::RecvHandle> hrecvs;
  hrecvs.reserve(kFlows);
  const auto hburst = [&](core::World& w) {
    hrecvs.clear();
    for (unsigned i = 0; i < kFlows; ++i) {
      hrecvs.push_back(w.engine(1).irecv(0, 1000 + i, rx.data() + i * kSize, kSize));
    }
    for (unsigned i = 0; i < kFlows; ++i) {
      w.engine(0).isend(1, 1000 + i, tx.data(), kSize);
    }
    for (auto& r : hrecvs) w.wait(r);
  };
  for (unsigned i = 0; i < kWarmup; ++i) {
    hburst(off_world);
    hburst(on_world);
  }
  const unsigned hrounds = std::max(rounds / 2, 16u);
  const auto timed = [&](core::World& w) {
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < hrounds; ++r) hburst(w);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const SimTime off_v0 = off_world.now(), on_v0 = on_world.now();
  double off_sec = 1e300, on_sec = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    off_sec = std::min(off_sec, timed(off_world));
    on_sec = std::min(on_sec, timed(on_world));
  }
  const double virtual_delta_us =
      to_usec(on_world.now() - on_v0) - to_usec(off_world.now() - off_v0);
  const double overhead_pct =
      off_sec > 0.0 ? (on_sec - off_sec) / off_sec * 100.0 : 0.0;
  result.metrics.push_back({"health_overhead_pct", overhead_pct, "%",
                            /*higher_is_better=*/false, /*headline=*/false,
                            /*max_abs=*/2.0});
  result.metrics.push_back({"health_virtual_us_delta", virtual_delta_us, "us",
                            /*higher_is_better=*/false, /*headline=*/true});
  return result;
}

// -------------------------------------------------------------- ping_tail

struct TailStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double goodput_mbps = 0.0;
};

/// Pings a 512 B message node 0 -> node 1 while two large rendezvous
/// transfers occupy the rails. One-way latencies are exact virtual times,
/// so the percentiles here are exact (no histogram approximation).
TailStats loaded_ping_tail(const Options& opt, bool with_qos, unsigned pings,
                           std::size_t bulk_size) {
  core::WorldConfig cfg = testbed(opt, "multicore-hetero-split");
  cfg.engine.qos.enabled = with_qos;
  core::World world(std::move(cfg));

  std::vector<std::uint8_t> bulk(bulk_size, 0x33);
  std::vector<std::uint8_t> rx_bulk0(bulk_size), rx_bulk1(bulk_size);
  std::vector<std::uint8_t> ping(512, 0x11), rx_ping(512);

  const SimTime start = world.now();
  auto recv_b0 = world.engine(1).irecv(0, 300, rx_bulk0.data(), bulk_size);
  auto recv_b1 = world.engine(1).irecv(0, 301, rx_bulk1.data(), bulk_size);
  auto send_b0 = world.engine(0).isend(1, 300, bulk.data(), bulk_size);
  auto send_b1 = world.engine(0).isend(1, 301, bulk.data(), bulk_size);

  std::vector<double> lat_us;
  lat_us.reserve(pings);
  for (unsigned i = 0; i < pings; ++i) {
    auto recv = world.engine(1).irecv(0, 1000 + i, rx_ping.data(), rx_ping.size());
    const SimTime submitted = world.now();
    world.engine(0).isend(1, 1000 + i, ping.data(), ping.size());
    const SimTime delivered = world.wait(recv);
    lat_us.push_back(to_usec(delivered - submitted));
  }
  const SimTime bulk_done =
      std::max(world.wait(recv_b0), world.wait(recv_b1));
  world.wait(send_b0);
  world.wait(send_b1);

  std::sort(lat_us.begin(), lat_us.end());
  const auto pct = [&](double p) {
    const std::size_t idx = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(lat_us.size()) - 1.0,
                         p / 100.0 * static_cast<double>(lat_us.size())));
    return lat_us[idx];
  };
  TailStats out;
  out.p50_us = pct(50.0);
  out.p99_us = pct(99.0);
  out.goodput_mbps = mbps(2 * bulk_size, bulk_done - start);
  return out;
}

bench::BenchResult run_ping_tail(const Options& opt) {
  const unsigned pings = opt.quick ? 64 : 256;
  const std::size_t bulk = opt.quick ? 2_MiB : 8_MiB;
  bench::BenchResult result;
  result.name = "ping_tail";
  result.config = {{"pings", std::to_string(pings)},
                   {"bulk_bytes", std::to_string(bulk)}};
  const TailStats t = loaded_ping_tail(opt, /*with_qos=*/false, pings, bulk);
  result.metrics.push_back(
      {"p50_us", t.p50_us, "us", /*higher_is_better=*/false, /*headline=*/true});
  result.metrics.push_back(
      {"p99_us", t.p99_us, "us", /*higher_is_better=*/false, /*headline=*/true});
  result.metrics.push_back({"bulk_goodput_mbps", t.goodput_mbps, "MB/s",
                            /*higher_is_better=*/true, /*headline=*/true});
  return result;
}

bench::BenchResult run_qos_isolation(const Options& opt) {
  const unsigned pings = opt.quick ? 64 : 256;
  const std::size_t bulk = opt.quick ? 2_MiB : 8_MiB;
  bench::BenchResult result;
  result.name = "qos_isolation";
  result.config = {{"pings", std::to_string(pings)},
                   {"bulk_bytes", std::to_string(bulk)}};
  const TailStats t = loaded_ping_tail(opt, /*with_qos=*/true, pings, bulk);
  result.metrics.push_back(
      {"p50_us", t.p50_us, "us", /*higher_is_better=*/false, /*headline=*/true});
  result.metrics.push_back(
      {"p99_us", t.p99_us, "us", /*higher_is_better=*/false, /*headline=*/true});
  result.metrics.push_back({"bulk_goodput_mbps", t.goodput_mbps, "MB/s",
                            /*higher_is_better=*/true, /*headline=*/true});
  return result;
}

// ------------------------------------------------------------- des_engine

/// One round of the DES throughput workload: the msgrate burst at 2 KiB.
/// Run under greedy-balance — one segment per message, no aggregation — so
/// the simulated-event count scales with the message count instead of
/// collapsing into a handful of aggregated-segment deliveries.
void des_round(core::World& world) { message_rate(world, 2048); }

bench::BenchResult run_des_engine(const Options& opt, std::string* perf_json) {
  const unsigned rounds = opt.quick ? 4 : 16;
  bench::BenchResult result;
  result.name = "des_engine";
  result.config = {{"rounds", std::to_string(rounds)}};

  // Simulated-event count is deterministic (same property as the virtual
  // clock) — headline, and lower is better: the same rounds in fewer
  // events, as for mesh_sweep. Host wall-clock figures describe the
  // runner, not the commit, so they stay non-headline.
  const auto timed_run = [&](bool profiled, unsigned sample_every) {
    perf::Profiler::set_enabled(profiled);
    perf::Profiler::set_sample_every(sample_every);
    perf::Profiler::reset();
    core::World world(testbed(opt, "greedy-balance"));
    world.engine(0).reset_stats();
    const std::uint64_t ev0 = world.fabric().events().processed();
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < rounds; ++r) des_round(world);
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t events = world.fabric().events().processed() - ev0;
    const std::uint64_t messages = world.engine(0).stats().sends;
    return std::tuple<double, std::uint64_t, std::uint64_t>(
        std::chrono::duration<double>(t1 - t0).count(), events, messages);
  };

  const unsigned default_sampling = perf::Profiler::sample_every();
  const auto [plain_sec, events, messages] = timed_run(false, default_sampling);
  result.metrics.push_back({"simulated_events", static_cast<double>(events),
                            "events", /*higher_is_better=*/false,
                            /*headline=*/true});
  result.metrics.push_back({"wall_clock_sec", plain_sec, "s",
                            /*higher_is_better=*/false, /*headline=*/false});
  result.metrics.push_back({"events_per_sec_host",
                            static_cast<double>(events) / plain_sec, "events/s",
                            /*higher_is_better=*/true, /*headline=*/false});

  if (opt.with_perf) {
    // Overhead of the always-on profiler (default root-scope sampling) on
    // the same workload. Host timing on a shared runner is noisy; this
    // records the trajectory without gating CI.
    const auto [sampled_sec, ev2, msg2] = timed_run(true, default_sampling);
    (void)ev2;
    (void)msg2;
    const double overhead =
        plain_sec > 0.0 ? (sampled_sec - plain_sec) / plain_sec * 100.0 : 0.0;
    result.metrics.push_back({"profiler_overhead_pct", overhead, "%",
                              /*higher_is_better=*/false,
                              /*headline=*/false});

    // Full-fidelity breakdown (every root scope recorded) for the embedded
    // perf object — a deliberate profiling run, not the always-on mode.
    const auto [full_sec, ev3, msg3] = timed_run(true, 1);
    (void)full_sec;
    (void)ev3;
    const perf::Snapshot snap = perf::Profiler::snapshot();
    std::ostringstream os;
    perf::Profiler::write_json(os, snap, static_cast<double>(msg3));
    *perf_json = os.str();
    perf::Profiler::set_enabled(false);
    perf::Profiler::set_sample_every(default_sampling);
  }
  return result;
}

// ------------------------------------------------------------- mesh_sweep

/// 256-node routed world: a 16x16 torus with the per-node sharded event
/// queue, every off-diagonal node sending 2 KiB to its transpose. Virtual
/// completion, simulated-event and forwarded-segment counts are
/// deterministic — headline. The host event rate describes the runner, so
/// it stays non-headline, but it carries an absolute floor (min_abs): a
/// generous bound no healthy runner misses, which still fails CI if the
/// sharded queue ever degrades by an order of magnitude at scale.
bench::BenchResult run_mesh_sweep(const Options& opt) {
  constexpr unsigned kSide = 16;
  constexpr unsigned kNodes = kSide * kSide;
  constexpr std::size_t kSize = 2048;
  const unsigned rounds = opt.quick ? 2 : 4;
  bench::BenchResult result;
  result.name = "mesh_sweep";
  result.config = {{"grid", "16x16"},
                   {"pattern", "transpose"},
                   {"rounds", std::to_string(rounds)}};

  perf::Profiler::set_enabled(false);
  core::WorldConfig cfg;
  cfg.fabric.node_count = kNodes;
  cfg.fabric.rails = {fabric::seastar_torus(), fabric::seastar_torus()};
  cfg.fabric.net = topo::TopologySpec::torus(kSide, kSide);
  cfg.fabric.event_sharding = true;
  cfg.engine.reliability.enabled = opt.reliability;
  core::World world(std::move(cfg));

  std::vector<std::uint8_t> tx(kSize, 0x5A);
  std::vector<std::uint8_t> rx(static_cast<std::size_t>(kNodes) * kSize);
  auto& events = world.fabric().events();
  events.run_all();

  const SimTime start = world.now();
  const std::uint64_t ev0 = events.processed();
  const std::uint64_t fwd0 = world.fabric().forwarded_segments();
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned round = 0; round < rounds; ++round) {
    std::vector<core::RecvHandle> recvs;
    recvs.reserve(kNodes);
    for (unsigned n = 0; n < kNodes; ++n) {
      const unsigned x = n % kSide, y = n / kSide;
      if (x == y) continue;
      const Tag tag = static_cast<Tag>(round * 100000 + 5000 + x * kSide + y);
      recvs.push_back(world.engine(n).irecv(x * kSide + y, tag,
                                            rx.data() + n * kSize, kSize));
    }
    for (unsigned n = 0; n < kNodes; ++n) {
      const unsigned x = n % kSide, y = n / kSide;
      if (x == y) continue;
      const Tag tag = static_cast<Tag>(round * 100000 + 5000 + n);
      world.engine(n).isend(x * kSide + y, tag, tx.data(), kSize);
    }
    for (auto& r : recvs) world.wait(r);
    events.run_all();
  }
  const double host_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const double sim_events = static_cast<double>(events.processed() - ev0);
  const double forwarded =
      static_cast<double>(world.fabric().forwarded_segments() - fwd0);

  result.metrics.push_back({"transpose_completion_us",
                            to_usec(world.now() - start) / rounds, "us",
                            /*higher_is_better=*/false, /*headline=*/true});
  result.metrics.push_back({"simulated_events", sim_events, "events",
                            /*higher_is_better=*/false, /*headline=*/true});
  result.metrics.push_back({"forwarded_segments", forwarded, "segments",
                            /*higher_is_better=*/false, /*headline=*/true});
  result.metrics.push_back({"events_per_sec_host",
                            host_sec > 0.0 ? sim_events / host_sec : 0.0,
                            "events/s", /*higher_is_better=*/true,
                            /*headline=*/false, /*max_abs=*/0.0,
                            /*min_abs=*/100000.0});
  return result;
}

int usage() {
  std::fprintf(stderr,
               "usage: benchjson [--quick] [--out <path>] [--no-perf] [--reliability]\n"
               "  --quick        smaller workloads (CI mode)\n"
               "  --out          bundle path (default BENCH_<unixtime>.json)\n"
               "  --no-perf      skip the embedded profiler breakdown\n"
               "  --reliability  run with CRC + ACK/retransmit enabled (zero\n"
               "                 fault rate) so benchdiff can gate its overhead\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--no-perf") == 0) {
      opt.with_perf = false;
    } else if (std::strcmp(argv[i], "--reliability") == 0) {
      opt.reliability = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out_path = argv[++i];
    } else {
      return usage();
    }
  }
  const std::uint64_t now = static_cast<std::uint64_t>(std::time(nullptr));
  if (opt.out_path.empty()) {
    opt.out_path = "BENCH_" + std::to_string(now) + ".json";
  }

  bench::BenchBundle bundle;
  bundle.generator = "benchjson";
  bundle.commit = bench::commit_from_env();
  bundle.quick = opt.quick;
  bundle.generated_unix = now;
  {
    // Run metadata: fingerprint the resolved testbed config so benchdiff
    // can flag apples-to-oranges comparisons, and record the harness
    // switches that change what was measured.
    std::ostringstream cfg_text;
    core::save_world_config(testbed(opt, "aggregate-fastest"), cfg_text);
    bundle.config_hash = bench::hash_config(cfg_text.str());
    bundle.flags = {{"reliability", opt.reliability ? "1" : "0"},
                    {"perf", opt.with_perf ? "1" : "0"}};
  }

  std::printf("benchjson: msgrate...\n");
  bundle.benches.push_back(run_msgrate(opt));
  std::printf("benchjson: msgrate_multiplex...\n");
  bundle.benches.push_back(run_msgrate_multiplex(opt));
  std::printf("benchjson: ping_tail...\n");
  bundle.benches.push_back(run_ping_tail(opt));
  std::printf("benchjson: qos_isolation...\n");
  bundle.benches.push_back(run_qos_isolation(opt));
  std::printf("benchjson: des_engine...\n");
  bundle.benches.push_back(run_des_engine(opt, &bundle.perf_json));
  std::printf("benchjson: mesh_sweep...\n");
  bundle.benches.push_back(run_mesh_sweep(opt));

  if (!bench::write_bundle_file(opt.out_path, bundle)) return 1;
  std::size_t metrics = 0, headline = 0;
  for (const auto& b : bundle.benches) {
    metrics += b.metrics.size();
    for (const auto& m : b.metrics) headline += m.headline ? 1 : 0;
  }
  std::printf("wrote %s: %zu benches, %zu metrics (%zu headline)%s\n",
              opt.out_path.c_str(), bundle.benches.size(), metrics, headline,
              bundle.perf_json.empty() ? "" : ", perf breakdown embedded");
  return 0;
}
