// QoS isolation: latency-class protection under bulk saturation.
//
// Scenario 1 (isolation) floods the fabric with 4 MiB rendezvous transfers
// while a pinger submits 512 B latency-class messages every ~100 µs, with
// the QoS subsystem off and then on. Off, every bulk transfer streams all
// of its chunks onto the NICs at once, so a ping submitted mid-flood waits
// out megabytes of queued wire time. On, bulk data is windowed (one
// 256 KiB chunk per idle rail per pump) and the strict-priority LATENCY class
// is drained first at every arbitration point, so pings slip into the gaps
// between chunks. The shape checks pin the headline acceptance numbers:
// p99 ping latency at least 5x lower with QoS on, bulk goodput degraded at
// most 15%.
//
// Scenario 2 (weight shares) appends two user classes — gold (weight 3)
// and silver (weight 1) — saturates both with equal-size backlogs, and
// samples the arbiter's granted-byte counters while both stay backlogged:
// deficit round robin must hold the 3:1 share within ±10%. Aging is set to
// one virtual second so starvation promotion cannot blur the ratio.
//
// `--quick` shrinks both scenarios for the CI shape-check job; the checks
// themselves are identical.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <vector>

#include "bench_support/table.hpp"
#include "core/world.hpp"
#include "qos/arbiter.hpp"

using namespace rails;

namespace {

constexpr std::size_t kBulkSize = 4_MiB;
constexpr std::size_t kPingSize = 512;
constexpr double kPingPeriodUs = 100.0;

unsigned g_bulk_transfers = 10;  // 4 under --quick
unsigned g_pings = 400;          // 120 under --quick
unsigned g_share_msgs = 300;     // 120 under --quick

struct IsolationResult {
  double p50_us = 0;
  double p99_us = 0;
  double goodput_mbps = 0;
  unsigned counted_pings = 0;       ///< pings submitted while the flood ran
  std::uint64_t stream_chunks = 0;  ///< windowed bulk chunks (QoS on only)
  bool all_intact = true;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

IsolationResult run_isolation(bool qos_on) {
  core::WorldConfig cfg = core::paper_testbed("hetero-split");
  cfg.engine.qos.enabled = qos_on;
  core::World world(cfg);
  auto& sender = world.engine(0);
  auto& receiver = world.engine(1);

  // Bulk flood: every transfer submitted up front, receives pre-posted.
  std::vector<std::uint8_t> bulk_tx(kBulkSize, 0xB5);
  std::vector<std::vector<std::uint8_t>> bulk_rx(
      g_bulk_transfers, std::vector<std::uint8_t>(kBulkSize));
  std::vector<core::RecvHandle> bulk_recvs;
  std::vector<core::SendHandle> bulk_sends;
  for (unsigned i = 0; i < g_bulk_transfers; ++i) {
    bulk_recvs.push_back(receiver.irecv(0, static_cast<Tag>(1000 + i),
                                        bulk_rx[i].data(), kBulkSize));
  }
  for (unsigned i = 0; i < g_bulk_transfers; ++i) {
    bulk_sends.push_back(
        sender.isend(1, static_cast<Tag>(1000 + i), bulk_tx.data(), kBulkSize));
  }

  // Pinger: one 512 B message every kPingPeriodUs, submitted from the event
  // queue so each lands mid-flood at its own virtual instant.
  std::vector<std::uint8_t> ping_tx(kPingSize, 0x11);
  std::vector<std::vector<std::uint8_t>> ping_rx(
      g_pings, std::vector<std::uint8_t>(kPingSize));
  std::vector<core::RecvHandle> ping_recvs(g_pings);
  std::vector<core::SendHandle> ping_sends(g_pings);
  std::vector<SimTime> ping_submit(g_pings, 0);
  for (unsigned i = 0; i < g_pings; ++i) {
    ping_recvs[i] = receiver.irecv(0, static_cast<Tag>(5000 + i),
                                   ping_rx[i].data(), kPingSize);
    world.fabric().events().after(
        usec(50.0 + static_cast<double>(i) * kPingPeriodUs), [&, i] {
          ping_submit[i] = world.now();
          ping_sends[i] = sender.isend(1, static_cast<Tag>(5000 + i),
                                       ping_tx.data(), kPingSize);
        });
  }

  IsolationResult res;
  SimTime bulk_end = 0;
  for (unsigned i = 0; i < g_bulk_transfers; ++i) {
    world.wait(bulk_recvs[i]);
    world.wait(bulk_sends[i]);
    bulk_end = std::max(bulk_end, bulk_sends[i]->complete_time);
    if (bulk_rx[i] != bulk_tx) res.all_intact = false;
  }
  std::vector<double> latencies;
  for (unsigned i = 0; i < g_pings; ++i) {
    world.wait(ping_recvs[i]);
    if (ping_rx[i] != ping_tx) res.all_intact = false;
    // Only pings that raced the flood measure isolation; the tail submitted
    // after the last bulk completion sees an idle fabric in both modes.
    if (ping_submit[i] <= bulk_end) {
      latencies.push_back(
          to_usec(ping_recvs[i]->complete_time - ping_submit[i]));
    }
  }

  std::sort(latencies.begin(), latencies.end());
  res.counted_pings = static_cast<unsigned>(latencies.size());
  res.p50_us = percentile(latencies, 0.50);
  res.p99_us = percentile(latencies, 0.99);
  const double bulk_bytes =
      static_cast<double>(kBulkSize) * static_cast<double>(g_bulk_transfers);
  res.goodput_mbps = bulk_bytes / to_usec(bulk_end);  // B/us == MB/s
  res.stream_chunks = sender.stats().qos_stream_chunks;
  return res;
}

struct ShareResult {
  double ratio = 0;    ///< gold granted bytes / silver granted bytes
  bool sampled = false;
  bool all_done = true;
};

ShareResult run_shares() {
  core::WorldConfig cfg = core::paper_testbed("hetero-split");
  cfg.engine.qos.enabled = true;
  cfg.engine.qos.aging = usec(1'000'000);  // no starvation promotion in-run
  auto classes = qos::builtin_classes();
  qos::ClassSpec gold;
  gold.name = "gold";
  gold.weight = 3.0;
  gold.queue_capacity = 4096;
  qos::ClassSpec silver = gold;
  silver.name = "silver";
  silver.weight = 1.0;
  classes.push_back(gold);
  classes.push_back(silver);
  cfg.engine.qos.classes = std::move(classes);
  core::World world(cfg);
  auto& sender = world.engine(0);
  auto& receiver = world.engine(1);
  const qos::ClassId kGold = 3, kSilver = 4;

  constexpr std::size_t kMsgSize = 8_KiB;
  std::vector<std::uint8_t> tx(kMsgSize, 0x5A);
  std::vector<std::vector<std::uint8_t>> rx(
      2 * g_share_msgs, std::vector<std::uint8_t>(kMsgSize));
  std::vector<core::RecvHandle> recvs;
  std::vector<core::SendHandle> sends;
  for (unsigned i = 0; i < 2 * g_share_msgs; ++i) {
    recvs.push_back(receiver.irecv(0, static_cast<Tag>(9000 + i),
                                   rx[i].data(), kMsgSize));
  }
  core::Engine::SendOptions gold_opts;
  gold_opts.traffic_class = kGold;
  core::Engine::SendOptions silver_opts;
  silver_opts.traffic_class = kSilver;
  for (unsigned i = 0; i < 2 * g_share_msgs; ++i) {
    sends.push_back(sender.isend(1, static_cast<Tag>(9000 + i), tx.data(),
                                 kMsgSize,
                                 (i % 2 == 0) ? gold_opts : silver_opts));
  }

  // Sample the granted-byte counters while BOTH classes stay backlogged —
  // once the faster class drains, the ratio converges to 1 by construction.
  ShareResult res;
  const qos::QosArbiter* arb = sender.qos();
  std::function<void()> tick = [&] {
    if (arb->depth(kGold) > 0 && arb->depth(kSilver) > 0) {
      const auto gold_bytes = arb->counters(kGold).granted_bytes;
      const auto silver_bytes = arb->counters(kSilver).granted_bytes;
      if (silver_bytes > 0) {
        res.ratio = static_cast<double>(gold_bytes) /
                    static_cast<double>(silver_bytes);
        res.sampled = true;
      }
    }
    if (arb->backlog() > 0) world.fabric().events().after(usec(5), tick);
  };
  world.fabric().events().after(usec(5), tick);

  for (unsigned i = 0; i < 2 * g_share_msgs; ++i) {
    world.wait(recvs[i]);
    world.wait(sends[i]);
    if (rx[i] != tx) res.all_done = false;
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  if (quick) {
    g_bulk_transfers = 4;
    g_pings = 120;
    g_share_msgs = 120;
  }

  char title[128];
  std::snprintf(title, sizeof(title),
                "qos isolation — %u x 4 MiB bulk flood vs 512 B pings every "
                "%.0f us",
                g_bulk_transfers, kPingPeriodUs);
  bench::SeriesTable table(title, "qos",
                           {"ping p50 (us)", "ping p99 (us)",
                            "bulk goodput (MB/s)", "stream chunks",
                            "pings in flood"});
  const IsolationResult off = run_isolation(false);
  table.add_row("off", {off.p50_us, off.p99_us, off.goodput_mbps,
                        static_cast<double>(off.stream_chunks),
                        static_cast<double>(off.counted_pings)});
  const IsolationResult on = run_isolation(true);
  table.add_row("on", {on.p50_us, on.p99_us, on.goodput_mbps,
                       static_cast<double>(on.stream_chunks),
                       static_cast<double>(on.counted_pings)});
  table.print(std::cout, 2);

  const ShareResult shares = run_shares();
  std::printf("\nweight shares: gold(w=3) : silver(w=1) granted-byte ratio "
              "%.2f while both backlogged (%u msgs each)\n",
              shares.ratio, g_share_msgs);

  std::printf("\nshape checks:\n");
  bench::shape_check(std::cout, "every message delivered intact data",
                     off.all_intact && on.all_intact && shares.all_done);
  bench::shape_check(std::cout,
                     "enough pings raced the flood to measure tails (>= 20)",
                     off.counted_pings >= 20 && on.counted_pings >= 20);
  bench::shape_check(std::cout,
                     "QoS on windows bulk transfers into chunks",
                     on.stream_chunks > 0 && off.stream_chunks == 0);
  bench::shape_check(std::cout,
                     "p99 ping latency at least 5x lower with QoS on",
                     on.p99_us > 0 && off.p99_us / on.p99_us >= 5.0);
  bench::shape_check(std::cout,
                     "bulk goodput degraded at most 15% by QoS",
                     on.goodput_mbps >= 0.85 * off.goodput_mbps);
  bench::shape_check(std::cout,
                     "DRR holds the 3:1 gold:silver share within 10%",
                     shares.sampled && std::fabs(shares.ratio - 3.0) <= 0.3);
  return bench::shape_failures() == 0 ? 0 : 1;
}
