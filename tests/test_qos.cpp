// Traffic-class QoS subsystem (docs/QOS.md): DRR weight shares, the
// auto-classification boundary, strict-priority preemption, deadline
// admission control, backpressure watermarks, starvation aging, and the
// arbiter's thread safety under concurrent producers.
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/world.hpp"
#include "fabric/presets.hpp"
#include "qos/arbiter.hpp"

namespace rails {
namespace {

core::SendHandle make_send(std::size_t len, std::uint64_t id = 0) {
  core::SendHandle send = core::make_send_request();
  send->id = id;
  send->len = len;
  return send;
}

// --- arbiter unit tests ----------------------------------------------------

TEST(QosArbiter, DrrHoldsWeightSharesUnderSaturation) {
  qos::QosConfig cfg;
  cfg.quantum = 8_KiB;
  cfg.aging = usec(1'000'000);  // no starvation promotion in this test
  qos::ClassSpec gold;
  gold.name = "gold";
  gold.weight = 3.0;
  gold.queue_capacity = 4096;
  qos::ClassSpec silver = gold;
  silver.name = "silver";
  silver.weight = 1.0;
  cfg.classes = {gold, silver};
  qos::QosArbiter arb(cfg, 32_KiB);

  constexpr unsigned kMsgs = 120;
  constexpr std::size_t kLen = 8_KiB;
  for (unsigned i = 0; i < kMsgs; ++i) {
    arb.enqueue(0, make_send(kLen), 0);
    arb.enqueue(1, make_send(kLen), 0);
  }

  // Pace the rounds explicitly (the engine paces them on NIC-idle events)
  // and read the shares at the last instant both classes are backlogged.
  double ratio = 0;
  for (unsigned round = 0; round < 10 * kMsgs; ++round) {
    if (arb.depth(0) == 0 || arb.depth(1) == 0) break;
    arb.grant(usec(round + 1), [](core::SendHandle) {});
    const auto gold_bytes = arb.counters(0).granted_bytes;
    const auto silver_bytes = arb.counters(1).granted_bytes;
    if (arb.depth(0) > 0 && arb.depth(1) > 0 && silver_bytes > 0) {
      ratio = static_cast<double>(gold_bytes) / static_cast<double>(silver_bytes);
    }
  }
  EXPECT_NEAR(ratio, 3.0, 0.3);  // the ±10% acceptance bound
  EXPECT_EQ(arb.depth(0), 0u);   // gold drained 3x faster
  EXPECT_GT(arb.depth(1), 0u);
}

TEST(QosArbiter, StrictPriorityGrantsBeforeDrr) {
  qos::QosConfig cfg;
  cfg.quantum = 1_MiB;  // bulk could drain fully in its DRR pass
  cfg.classes = qos::builtin_classes();
  qos::QosArbiter arb(cfg, 32_KiB);

  for (std::uint64_t i = 0; i < 5; ++i) {
    arb.enqueue(qos::kBulk, make_send(64_KiB, 100 + i), 0);
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    arb.enqueue(qos::kLatency, make_send(512, 200 + i), 0);
  }

  std::vector<std::uint64_t> order;
  arb.grant(usec(1), [&](core::SendHandle s) { order.push_back(s->id); });
  ASSERT_GE(order.size(), 3u);
  // The strict pass drains LATENCY fully before any bulk deficit is spent,
  // even though bulk was enqueued first.
  EXPECT_EQ(order[0], 200u);
  EXPECT_EQ(order[1], 201u);
  EXPECT_EQ(order[2], 202u);
}

TEST(QosArbiter, CapacityBoundRefusesThenDrains) {
  qos::QosConfig cfg;
  cfg.quantum = 1_MiB;
  qos::ClassSpec only;
  only.name = "only";
  only.queue_capacity = 8;
  cfg.classes = {only};
  qos::QosArbiter arb(cfg, 32_KiB);

  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(arb.has_capacity(0));
    arb.enqueue(0, make_send(1_KiB, i), 0);
  }
  EXPECT_FALSE(arb.has_capacity(0));  // at the 8-message bound
  arb.note_rejected_full(0);
  EXPECT_EQ(arb.counters(0).rejected_full, 1u);

  unsigned drained = 0;
  while (arb.backlog()) {
    arb.grant(usec(1), [&](core::SendHandle) { ++drained; });
  }
  EXPECT_EQ(drained, 8u);
  EXPECT_TRUE(arb.has_capacity(0));
  EXPECT_EQ(arb.counters(0).depth_hwm, 8u);
}

TEST(QosArbiter, FifoOrderSurvivesRingWrapAndGrowth) {
  // Two 1 KiB grants per DRR round: partial drains walk the ring's head
  // forward, later enqueues wrap past the end of its storage, and one more
  // grows it. Grants must still come out in enqueue order.
  qos::QosConfig cfg;
  cfg.quantum = 2_KiB;
  qos::ClassSpec only;
  only.name = "only";
  cfg.classes = {only};
  qos::QosArbiter arb(cfg, 32_KiB);

  std::vector<std::uint64_t> order;
  const auto round = [&] {
    arb.grant(0, [&](core::SendHandle s) { order.push_back(s->id); });
  };
  std::uint64_t next = 0;
  for (int i = 0; i < 6; ++i) arb.enqueue(0, make_send(1_KiB, next++), 0);
  round();
  EXPECT_EQ(order.size(), 2u);
  for (int i = 0; i < 4; ++i) arb.enqueue(0, make_send(1_KiB, next++), 0);  // wraps
  for (int i = 0; i < 3; ++i) arb.enqueue(0, make_send(1_KiB, next++), 0);  // grows
  EXPECT_EQ(arb.depth(0), 11u);
  while (arb.backlog()) round();
  ASSERT_EQ(order.size(), next);
  for (std::uint64_t i = 0; i < next; ++i) EXPECT_EQ(order[i], i);
}

TEST(QosArbiter, AgingPromotesStarvedHead) {
  qos::QosConfig cfg;
  cfg.quantum = 1024;
  cfg.aging = usec(100);
  qos::ClassSpec latency;
  latency.name = "latency";
  latency.weight = 8.0;
  latency.strict_priority = true;
  qos::ClassSpec starved;
  starved.name = "starved";
  starved.weight = 0.001;  // ~1 byte of credit per round: never fits 8 KiB
  cfg.classes = {latency, starved};
  qos::QosArbiter arb(cfg, 32_KiB);

  arb.enqueue(1, make_send(8_KiB), 0);
  unsigned granted = 0;
  for (unsigned round = 0; round < 16; ++round) {
    arb.grant(usec(50), [&](core::SendHandle) { ++granted; });
  }
  EXPECT_EQ(granted, 0u);  // DRR alone starves the head

  arb.grant(usec(150), [&](core::SendHandle) { ++granted; });
  EXPECT_EQ(granted, 1u);  // past the aging threshold the strict pass takes it
  EXPECT_EQ(arb.counters(1).aged_grants, 1u);
}

// --- classification boundary (regression: `>=` on the eager/rdv threshold) -

TEST(QosEngine, AutoClassBoundaryMatchesRdvThreshold) {
  core::WorldConfig cfg = core::paper_testbed("hetero-split");
  cfg.engine.qos.enabled = true;
  core::World world(cfg);
  const auto* arb = world.engine(0).qos();
  ASSERT_NE(arb, nullptr);

  const std::size_t threshold = world.engine(0).rdv_threshold();
  ASSERT_GT(threshold, 0u);
  EXPECT_EQ(arb->cutoff(), threshold);
  // A message exactly at the threshold is the largest still-eager size
  // (protocol_for goes rendezvous strictly above it) and must classify as
  // BULK; one byte below stays LATENCY. This pins the `>=` boundary.
  EXPECT_EQ(arb->classify(threshold), qos::kBulk);
  EXPECT_EQ(arb->classify(threshold - 1), qos::kLatency);
  EXPECT_EQ(arb->classify(0), qos::kLatency);
}

// --- engine integration ----------------------------------------------------

TEST(QosEngine, TryIsendShedsWhenClassQueueFull) {
  core::WorldConfig cfg = core::paper_testbed("hetero-split");
  cfg.engine.qos.enabled = true;
  auto classes = qos::builtin_classes();
  classes[qos::kLatency].queue_capacity = 4;
  cfg.engine.qos.classes = std::move(classes);
  core::World world(cfg);
  auto& sender = world.engine(0);
  auto& receiver = world.engine(1);

  std::vector<std::uint8_t> tx(512, 0x22);
  std::vector<std::vector<std::uint8_t>> rx(4, std::vector<std::uint8_t>(512));
  std::vector<core::RecvHandle> recvs;
  for (unsigned i = 0; i < 4; ++i) {
    recvs.push_back(receiver.irecv(0, static_cast<Tag>(i), rx[i].data(), 512));
  }
  // Five back-to-back submissions at the same virtual instant: no grant
  // round can run in between, so the 4-deep queue sheds the fifth.
  std::vector<core::SendHandle> sends;
  for (unsigned i = 0; i < 4; ++i) {
    auto s = sender.try_isend(1, static_cast<Tag>(i), tx.data(), tx.size());
    ASSERT_NE(s, nullptr);
    sends.push_back(std::move(s));
  }
  EXPECT_EQ(sender.try_isend(1, 4, tx.data(), tx.size()), nullptr);
  EXPECT_EQ(sender.qos()->counters(qos::kLatency).rejected_full, 1u);

  for (unsigned i = 0; i < 4; ++i) {
    world.wait(recvs[i]);
    world.wait(sends[i]);
    EXPECT_EQ(rx[i], tx);
  }
}

TEST(QosEngine, FeasibleDeadlineAcceptedAndHit) {
  core::WorldConfig cfg = core::paper_testbed("hetero-split");
  cfg.engine.qos.enabled = true;
  core::World world(cfg);

  std::vector<std::uint8_t> tx(512, 0x33);
  std::vector<std::uint8_t> rx(512);
  auto recv = world.engine(1).irecv(0, 7, rx.data(), rx.size());
  core::Engine::SendOptions opts;
  opts.deadline = world.now() + usec(10'000);
  auto send = world.engine(0).isend(1, 7, tx.data(), tx.size(), opts);
  ASSERT_NE(send, nullptr);
  EXPECT_FALSE(send->rejected());
  world.wait(recv);
  world.wait(send);
  EXPECT_EQ(rx, tx);
  EXPECT_EQ(world.engine(0).qos()->counters(qos::kLatency).deadline_hits, 1u);
  EXPECT_EQ(world.engine(0).qos()->counters(qos::kLatency).deadline_misses, 0u);
}

TEST(QosEngine, InfeasibleDeadlineRejectedAtSubmit) {
  core::WorldConfig cfg = core::paper_testbed("hetero-split");
  cfg.engine.qos.enabled = true;
  core::World world(cfg);

  std::vector<std::uint8_t> tx(1_MiB, 0x44);
  core::Engine::SendOptions opts;
  opts.deadline = world.now() + 1;  // no rail can land 1 MiB in one ns
  auto send = world.engine(0).isend(1, 8, tx.data(), tx.size(), opts);
  ASSERT_NE(send, nullptr);
  EXPECT_TRUE(send->rejected());
  EXPECT_TRUE(send->failed());
  EXPECT_EQ(world.engine(0).qos()->counters(qos::kBulk).admission_rejects, 1u);
}

TEST(QosEngine, AllRailsQuarantinedAdmitsADeadlineOnlyRail1CanMeet) {
  // With every rail quarantined the strategy is shown every rail, so
  // admission must predict over every rail too, not rail 0 alone.
  core::WorldConfig cfg = core::paper_testbed("hetero-split");
  cfg.fabric.rails = {fabric::gige_tcp(), fabric::myri10g()};
  cfg.engine.qos.enabled = true;
  core::World world(cfg);
  core::Engine& sender = world.engine(0);
  fabric::FaultSpec dead;
  dead.kind = fabric::FaultKind::kFailStop;
  for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
    world.fabric().nic(0, r).inject_fault(dead);
  }
  std::vector<std::uint8_t> tx(256, 0x55);
  auto probe = sender.isend(1, 9, tx.data(), tx.size());
  ASSERT_TRUE(world.fabric().events().run_until(
      [&] { return sender.rail_quarantined(0) && sender.rail_quarantined(1); }));

  // Rail 1 (Myri-10G) lands a small eager message long before rail 0 (GigE).
  const auto predict = [&](RailId r) {
    const sampling::RailState state{r, world.fabric().nic(0, r).busy_until()};
    return world.estimator().completion(state, world.now(), tx.size(),
                                        fabric::Protocol::kEager);
  };
  const SimTime rail0 = predict(0);
  const SimTime rail1 = predict(1);
  ASSERT_LT(rail1, rail0);
  core::Engine::SendOptions opts;
  opts.deadline = rail1 + (rail0 - rail1) / 2;
  auto send = sender.isend(1, 10, tx.data(), tx.size(), opts);
  ASSERT_NE(send, nullptr);
  EXPECT_FALSE(send->rejected());
  EXPECT_EQ(sender.qos()->counters(qos::kLatency).admission_rejects, 0u);
  world.fabric().events().run_all();  // the dead rails give up; the queue drains
}

TEST(QosEngine, StrictPreemptionProtectsPingUnderBulkFlood) {
  // A 512 B ping submitted mid-4 MiB-flood: with QoS off it waits out the
  // queued wire time; with QoS on the bulk transfer is windowed and the
  // strict LATENCY class slips into the chunk boundaries.
  const auto run = [](bool qos_on) {
    core::WorldConfig cfg = core::paper_testbed("hetero-split");
    cfg.engine.qos.enabled = qos_on;
    core::World world(cfg);
    std::vector<std::uint8_t> bulk_tx(4_MiB, 0x66);
    std::vector<std::uint8_t> bulk_rx(4_MiB);
    std::vector<std::uint8_t> ping_tx(512, 0x77);
    std::vector<std::uint8_t> ping_rx(512);
    auto bulk_recv = world.engine(1).irecv(0, 1, bulk_rx.data(), 4_MiB);
    auto ping_recv = world.engine(1).irecv(0, 2, ping_rx.data(), 512);
    auto bulk_send = world.engine(0).isend(1, 1, bulk_tx.data(), 4_MiB);
    SimTime ping_submit = 0;
    core::SendHandle ping_send;
    world.fabric().events().after(usec(50), [&] {
      ping_submit = world.now();
      ping_send = world.engine(0).isend(1, 2, ping_tx.data(), 512);
    });
    world.wait(bulk_recv);
    world.wait(bulk_send);
    world.wait(ping_recv);
    EXPECT_EQ(bulk_rx, bulk_tx);
    EXPECT_EQ(ping_rx, ping_tx);
    if (qos_on) {
      EXPECT_GT(world.engine(0).stats().qos_stream_chunks, 0u);
    }
    return to_usec(ping_recv->complete_time - ping_submit);
  };
  const double off_us = run(false);
  const double on_us = run(true);
  EXPECT_GE(off_us / on_us, 5.0);  // the isolation acceptance bound
}

TEST(QosEngine, DisabledEngineHasNoArbiter) {
  core::World world(core::paper_testbed("hetero-split"));
  EXPECT_EQ(world.engine(0).qos(), nullptr);
  // Default-off: plain sends behave exactly as before the subsystem.
  std::vector<std::uint8_t> tx(2_KiB, 0x11);
  std::vector<std::uint8_t> rx(2_KiB);
  auto recv = world.engine(1).irecv(0, 3, rx.data(), rx.size());
  auto send = world.engine(0).isend(1, 3, tx.data(), tx.size());
  world.wait(recv);
  world.wait(send);
  EXPECT_EQ(rx, tx);
  EXPECT_EQ(world.engine(0).stats().qos_grants, 0u);
}

// --- thread safety (runs under TSan in CI) ---------------------------------

TEST(QosConcurrency, ConcurrentEnqueueAndDrain) {
  qos::QosConfig cfg;
  qos::ClassSpec a;
  a.name = "a";
  a.weight = 2.0;
  a.queue_capacity = 100'000;
  qos::ClassSpec b = a;
  b.name = "b";
  b.weight = 1.0;
  cfg.classes = {a, b};
  qos::QosArbiter arb(cfg, 32_KiB);

  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 500;
  std::atomic<bool> start{false};
  std::vector<std::thread> producers;
  for (unsigned t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (unsigned i = 0; i < kPerThread; ++i) {
        arb.enqueue(t % 2, make_send(1_KiB, t * kPerThread + i), 0);
        if (i % 64 == 0) {
          (void)arb.has_capacity(t % 2);
          (void)arb.depth(t % 2);
        }
      }
    });
  }

  start.store(true, std::memory_order_release);
  std::atomic<unsigned> drained{0};
  while (drained.load(std::memory_order_relaxed) < kThreads * kPerThread) {
    arb.grant(usec(1), [&](core::SendHandle s) {
      ASSERT_NE(s, nullptr);
      drained.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& p : producers) p.join();

  EXPECT_EQ(arb.counters(0).granted + arb.counters(1).granted,
            kThreads * kPerThread);
  EXPECT_FALSE(arb.backlog());
}

}  // namespace
}  // namespace rails
