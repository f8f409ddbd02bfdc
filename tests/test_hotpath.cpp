// Hot-path memory discipline (docs/PERF.md): the steady-state eager
// submit -> schedule -> emit -> deliver path must not touch the allocator,
// requests must recycle through the slab pool with advancing generations,
// events must stay in the queue's inline storage, and the destination
// grouping must preserve pack-list order, with emissions pinned to the
// nanosecond.
//
// This binary links src/perf/alloc_hook.cpp (see tests/CMakeLists.txt), so
// rails::perf::t_alloc_count counts every operator-new on this thread —
// the same counter the rails-bench allocs_per_msg metric and the benchdiff
// allocation gate are built on.
#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/request_pool.hpp"
#include "core/world.hpp"
#include "fabric/buffer_pool.hpp"
#include "fabric/event_queue.hpp"
#include "fabric/fault.hpp"
#include "common/rng.hpp"
#include "fabric/presets.hpp"
#include "topo/topology.hpp"
#include "perf/profiler.hpp"
#include "qos/arbiter.hpp"
#include "trace/tracer.hpp"
#include "test_util.hpp"

namespace rails::core {
namespace {

// --- allocation budgets ------------------------------------------------------

// Out of line: see the UBSan note on inlined thread_local reads in
// tests/test_iovec.cpp.
[[gnu::noinline]] std::uint64_t allocs_so_far() { return perf::t_alloc_count; }

TEST(HotPathAlloc, SteadyEagerPathIsAllocationFree) {
  perf::Profiler::set_enabled(false);
  // With QoS on, every send also passes through its class's arbiter FIFO.
  for (const bool with_qos : {false, true}) {
    WorldConfig cfg = paper_testbed("aggregate-fastest");
    cfg.engine.qos.enabled = with_qos;
    World world(std::move(cfg));

    constexpr unsigned kFlows = 8;
    constexpr std::size_t kSize = 2048;
    std::vector<std::uint8_t> tx(kSize, 0x5a);
    std::vector<std::vector<std::uint8_t>> rx(kFlows,
                                              std::vector<std::uint8_t>(kSize));
    std::vector<RecvHandle> recvs;
    recvs.reserve(kFlows);

    const auto burst = [&] {
      recvs.clear();
      for (unsigned f = 0; f < kFlows; ++f) {
        recvs.push_back(world.engine(1).irecv(0, static_cast<Tag>(f),
                                              rx[f].data(), kSize));
      }
      for (unsigned f = 0; f < kFlows; ++f) {
        (void)world.engine(0).isend(1, static_cast<Tag>(f), tx.data(), kSize);
      }
      for (const auto& r : recvs) world.wait(r);
    };

    // Warm every recycling structure: request pool slabs, event-queue slot
    // arena, payload buffer pool, engine and plan scratch vectors, and the
    // arbiter's class FIFOs.
    for (int i = 0; i < 4; ++i) burst();

    const std::uint64_t before = perf::t_alloc_count;
    constexpr int kMeasured = 16;
    for (int i = 0; i < kMeasured; ++i) burst();
    const std::uint64_t delta = perf::t_alloc_count - before;

    EXPECT_EQ(delta, 0u) << delta << " allocations across " << kMeasured
                         << " bursts of " << kFlows
                         << " messages on the steady eager path, QoS "
                         << (with_qos ? "on" : "off");
  }
}

TEST(HotPathAlloc, ReliableEagerPathIsAllocationFreeAtZeroFaultRate) {
  // Reliability on, fault rate zero: the CRC + seq + parked-bytes machinery
  // must ride the same recycled structures as the bare path. The parked
  // bytes are the segment's own pooled storage, shared through a slab pin,
  // so the ring slots hold nothing to warm: the warm-up only has to reach
  // the peak working set of pooled buffers and pins, as the eager test
  // above does.
  perf::Profiler::set_enabled(false);
  WorldConfig cfg = paper_testbed("aggregate-fastest");
  cfg.engine.reliability.enabled = true;
  World world(std::move(cfg));

  constexpr unsigned kFlows = 8;
  constexpr std::size_t kSize = 2048;
  std::vector<std::uint8_t> tx(kSize, 0x5a);
  std::vector<std::vector<std::uint8_t>> rx(kFlows,
                                            std::vector<std::uint8_t>(kSize));
  std::vector<RecvHandle> recvs;
  recvs.reserve(kFlows);

  const auto burst = [&] {
    recvs.clear();
    for (unsigned f = 0; f < kFlows; ++f) {
      recvs.push_back(world.engine(1).irecv(0, static_cast<Tag>(f),
                                            rx[f].data(), kSize));
    }
    for (unsigned f = 0; f < kFlows; ++f) {
      (void)world.engine(0).isend(1, static_cast<Tag>(f), tx.data(), kSize);
    }
    for (const auto& r : recvs) world.wait(r);
    world.fabric().events().run_all();  // drain delayed ACKs + stale timeouts
  };
  for (int i = 0; i < 4; ++i) burst();

  const std::uint64_t before = allocs_so_far();
  constexpr int kMeasured = 16;
  for (int i = 0; i < kMeasured; ++i) burst();
  const std::uint64_t delta = allocs_so_far() - before;

  EXPECT_EQ(delta, 0u) << delta << " allocations across " << kMeasured
                       << " bursts with reliability enabled";
  EXPECT_GT(world.engine(0).stats().rel_segments, 0u);
  EXPECT_EQ(world.engine(0).stats().rel_retransmits, 0u);
  EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);
}

TEST(HotPathAlloc, RetransmitAfterADroppedAckReusesTheParkedBytes) {
  // The receiver's first ACK is lost, so the sender's ACK timeout fires and
  // it retransmits from the retransmit ring. The retransmit takes one more
  // reference to the parked bytes: no copy and no allocation. The receiver
  // verifies its checksum against the original's and drops it as a
  // duplicate, so it was byte-identical.
  perf::Profiler::set_enabled(false);
  WorldConfig cfg = paper_testbed("aggregate-fastest");
  cfg.engine.reliability.enabled = true;
  World world(std::move(cfg));
  constexpr std::size_t kSize = 2048;
  const auto tx = test::make_pattern(kSize, 7);
  std::vector<std::uint8_t> rx(kSize);
  const auto send_one = [&](Tag tag) {
    auto recv = world.engine(1).irecv(0, tag, rx.data(), kSize);
    (void)world.engine(0).isend(1, tag, tx.data(), kSize);
    world.wait(recv);
  };
  for (Tag t = 0; t < 4; ++t) send_one(t);  // warm pools, pins, ring, queue
  world.fabric().events().run_all();
  const std::size_t pooled_before = fabric::BufferPool::instance().pooled();
  const std::size_t pins_before = fabric::PinPool::instance().live();

  // Node 1 sends only ACKs: drop everything it posts until well before the
  // sender's 100 us minimum ACK timeout, i.e. the first ACK alone.
  fabric::FaultSpec drop;
  drop.kind = fabric::FaultKind::kDrop;
  drop.rate = 1.0;
  drop.at = world.now();
  drop.duration = usec(50);
  for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
    world.fabric().nic(1, r).inject_fault(drop);
  }
  std::fill(rx.begin(), rx.end(), 0);
  send_one(4);
  EXPECT_EQ(rx, tx);

  const EngineStats& sender = world.engine(0).stats();
  const EngineStats& receiver = world.engine(1).stats();
  const std::uint64_t retransmits = sender.rel_retransmits;
  const std::size_t pooled_in_flight = fabric::BufferPool::instance().pooled();
  const std::uint64_t before = allocs_so_far();
  ASSERT_TRUE(world.fabric().events().run_until(
      [&] { return sender.rel_retransmits > retransmits; }));
  EXPECT_EQ(allocs_so_far() - before, 0u) << "the retransmit allocated";
  EXPECT_EQ(fabric::BufferPool::instance().pooled(), pooled_in_flight)
      << "the retransmit drew a buffer to copy into";
  world.fabric().events().run_all();

  std::uint64_t acks_dropped = 0;
  for (RailId r = 0; r < world.fabric().rail_count(); ++r) {
    acks_dropped += world.fabric().nic(1, r).segments_silently_dropped();
  }
  EXPECT_EQ(acks_dropped, 1u);
  EXPECT_EQ(sender.rel_retransmits, retransmits + 1);
  EXPECT_EQ(receiver.rel_dup_suppressed, 1u);
  EXPECT_EQ(receiver.rel_corruptions, 0u) << "the retransmit's bytes differ";
  EXPECT_EQ(world.engine(0).reliable_in_flight(), 0u);
  EXPECT_EQ(fabric::PinPool::instance().live(), pins_before);
  EXPECT_EQ(fabric::BufferPool::instance().pooled(), pooled_before);
}

TEST(HotPathAlloc, RendezvousSteadyStateStaysWithinBudget) {
  perf::Profiler::set_enabled(false);
  World world(paper_testbed("hetero-split"));

  constexpr std::size_t kSize = 1_MiB;
  std::vector<std::uint8_t> tx(kSize, 0x66);
  std::vector<std::uint8_t> rx(kSize, 0);

  const auto transfer = [&](Tag tag) {
    auto recv = world.engine(1).irecv(0, tag, rx.data(), kSize);
    auto send = world.engine(0).isend(1, tag, tx.data(), kSize);
    world.wait(recv);
    world.wait(send);
  };
  for (Tag t = 0; t < 3; ++t) transfer(t);  // warm-up

  const std::uint64_t before = perf::t_alloc_count;
  constexpr std::uint64_t kMsgs = 8;
  for (Tag t = 3; t < 3 + kMsgs; ++t) transfer(t);
  const std::uint64_t per_msg = (perf::t_alloc_count - before) / kMsgs;

  // Rendezvous still pays for its bookkeeping maps (rdv_sends_,
  // inbound_rdv_ with its coverage intervals, live_chunks_) and the split
  // the solver returns — but the payload buffers, requests, event closures
  // and the solver's inputs all recycle. The budget is the measured count
  // (10 per message with g++ 12, Release), with no headroom: a new
  // per-chunk or per-message allocation fails here instead of landing
  // unnoticed.
  EXPECT_LE(per_msg, 10u) << per_msg << " allocations per rendezvous message";
}

// --- request pool ------------------------------------------------------------

TEST(RequestPool, RecyclesSlotsAndBumpsGeneration) {
  auto& pool = RequestPool<SendRequest>::instance();

  SendHandle a = make_send_request();
  a->id = 77;
  a->len = 123;
  a->staging.reserve(64);
  SendRequest* slot = a.get();
  const std::uint32_t gen = a.generation();
  const std::uint64_t recycled_before = pool.recycled();

  a.reset();
  EXPECT_EQ(pool.recycled(), recycled_before + 1);

  // LIFO freelist: the very next acquire reuses the slot, with the
  // generation advanced and the fields reset — but owned capacity kept.
  SendHandle b = make_send_request();
  ASSERT_EQ(b.get(), slot);
  EXPECT_EQ(b.generation(), gen + 1);
  EXPECT_EQ(b->id, 0u);
  EXPECT_EQ(b->len, 0u);
  EXPECT_EQ(b->state, SendState::kQueued);
  EXPECT_TRUE(b->staging.empty());
  EXPECT_GE(b->staging.capacity(), 64u);
}

TEST(RequestPool, CopiedHandlesShareOneSlotUntilTheLastRelease) {
  auto& pool = RequestPool<RecvRequest>::instance();
  const std::uint64_t recycled_before = pool.recycled();

  RecvHandle a = make_recv_request();
  a->id = 5;
  RecvHandle b = a;  // refcount 2
  a.reset();
  EXPECT_EQ(pool.recycled(), recycled_before);  // b still owns the slot
  EXPECT_EQ(b->id, 5u);
  b.reset();
  EXPECT_EQ(pool.recycled(), recycled_before + 1);
}

TEST(RequestPool, FailoverReSplitReleasesEveryRequest) {
  // A rendezvous send whose chunks fail over mid-flight exercises the
  // retry/re-split ownership paths; afterwards every handle must have come
  // back to the pools (no leak through rdv_sends_/live_chunks_).
  auto& sends = RequestPool<SendRequest>::instance();
  auto& recvs = RequestPool<RecvRequest>::instance();
  const std::size_t send_live = sends.live();
  const std::size_t recv_live = recvs.live();
  const std::uint64_t send_recycled = sends.recycled();
  {
    World world(paper_testbed("hetero-split"));
    const std::size_t size = 4_MiB;
    std::vector<std::uint8_t> tx(size, 0x42);
    std::vector<std::uint8_t> rx(size, 0);
    fabric::FaultSpec fault;
    fault.kind = fabric::FaultKind::kFailStop;
    fault.at = usec(20);  // rail 0 dies while chunks are in flight
    world.fabric().nic(0, 0).inject_fault(fault);

    auto recv = world.engine(1).irecv(0, 1, rx.data(), size);
    auto send = world.engine(0).isend(1, 1, tx.data(), size);
    world.wait(recv);
    world.wait(send);
    EXPECT_EQ(rx, tx);
    EXPECT_GE(world.engine(0).stats().failovers, 1u);
  }
  EXPECT_EQ(sends.live(), send_live);
  EXPECT_EQ(recvs.live(), recv_live);
  EXPECT_GT(sends.recycled(), send_recycled);
}

// --- event queue inline storage ----------------------------------------------

TEST(EventQueueInline, SmallHandlersStayInline) {
  fabric::EventQueue q;
  int hits = 0;
  q.after(1, [&hits] { ++hits; });
  q.run_all();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(q.handler_spills(), 0u);
}

TEST(EventQueueInline, OversizeHandlerSpillsToHeapAndStillRuns) {
  fabric::EventQueue q;
  std::array<std::uint8_t, 160> big{};  // past the inline-storage bound
  big[0] = 7;
  int result = 0;
  q.after(1, [big, &result] { result = big[0]; });
  q.run_all();
  EXPECT_EQ(result, 7);
  EXPECT_EQ(q.handler_spills(), 1u);
}

// --- destination grouping ----------------------------------------------------

TEST(EagerGrouping, BurstPreservesPackListOrderAcrossDestinations) {
  // Interleaved submissions to 8 destinations, all at one virtual instant:
  // the (single-pass) grouping must emit destination groups in first-
  // appearance order and keep the submission order within each group —
  // identical to the pack-list semantics the O(n^2) scan produced.
  WorldConfig cfg = paper_testbed("single-rail:0");
  cfg.fabric.node_count = 9;
  World world(cfg);
  trace::Tracer tracer;
  world.engine(0).set_tracer(&tracer);

  constexpr unsigned kDsts = 8;
  constexpr unsigned kRounds = 32;
  std::vector<std::uint8_t> tx(64, 0x11);
  std::vector<std::vector<std::uint64_t>> per_dst(kDsts);
  for (unsigned r = 0; r < kRounds; ++r) {
    for (unsigned d = 0; d < kDsts; ++d) {
      auto s = world.engine(0).isend(d + 1, static_cast<Tag>(r), tx.data(),
                                     tx.size());
      per_dst[d].push_back(s->id);
    }
  }
  world.fabric().events().run_all();

  std::vector<std::uint64_t> expected;
  for (const auto& ids : per_dst) {
    expected.insert(expected.end(), ids.begin(), ids.end());
  }
  std::vector<std::uint64_t> emitted;
  for (const auto& e : tracer.of_kind(trace::EventKind::kEagerEmit)) {
    emitted.push_back(e.msg_id);
  }
  EXPECT_EQ(emitted, expected);
}

TEST(EagerGrouping, LargeManyDestinationBurstCompletes) {
  // Stress the epoch-stamped grouping across many re-activations: 8192
  // pending sends to 64 destinations in one instant. The single-pass
  // grouping keeps each activation linear in the pack-list length (and the
  // steady-state allocation test above pins that it allocates nothing).
  WorldConfig cfg = paper_testbed("aggregate-fastest");
  cfg.fabric.node_count = 65;
  World world(cfg);

  constexpr unsigned kDsts = 64;
  constexpr unsigned kRounds = 128;
  std::vector<std::uint8_t> tx(64, 0x22);
  std::vector<SendHandle> sends;
  sends.reserve(kDsts * kRounds);
  for (unsigned r = 0; r < kRounds; ++r) {
    for (unsigned d = 0; d < kDsts; ++d) {
      sends.push_back(world.engine(0).isend(d + 1, static_cast<Tag>(r),
                                            tx.data(), tx.size()));
    }
  }
  world.fabric().events().run_all();

  for (const auto& s : sends) EXPECT_TRUE(s->done());
  EXPECT_EQ(world.engine(0).stats().sends, kDsts * kRounds);
}

TEST(HotPathAlloc, RoutedBurstAt256NodesStaysAllocationFree) {
  // The PR 1–9 invariants (0 allocs/msg, 0 handler spills) must survive the
  // jump from a 2-node flat world to a 256-node routed torus with the
  // sharded event queue: hop-forwarding closures must stay inside
  // InlineHandler's inline bytes, and routing is next_hop arithmetic with no
  // per-pair state, so forwarding never allocates.
  perf::Profiler::set_enabled(false);
  WorldConfig cfg = paper_testbed("aggregate-fastest");
  cfg.fabric.node_count = 256;
  cfg.fabric.net = topo::TopologySpec::torus(16, 16);
  cfg.fabric.event_sharding = true;
  cfg.fabric.rails = {fabric::seastar_torus(), fabric::seastar_torus()};
  World world(cfg);
  ASSERT_EQ(world.fabric().events().shard_count(), 256u);

  constexpr std::size_t kSize = 2048;
  // Transpose pairs: (x, y) -> (y, x) is multi-hop for every off-diagonal
  // node, the classic dimension-order stress pattern.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::uint32_t n = 0; n < 32; ++n) {
    const std::uint32_t x = n % 16;
    const std::uint32_t y = n / 16;
    if (x == y) continue;
    pairs.emplace_back(y * 16 + x, x * 16 + y);
  }
  std::vector<std::uint8_t> tx(kSize, 0x77);
  std::vector<std::vector<std::uint8_t>> rx(pairs.size(),
                                            std::vector<std::uint8_t>(kSize));
  std::vector<RecvHandle> recvs;
  recvs.reserve(pairs.size());
  Tag tag = 0;
  const auto burst = [&] {
    recvs.clear();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      recvs.push_back(world.engine(pairs[i].second)
                          .irecv(pairs[i].first, tag, rx[i].data(), kSize));
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      (void)world.engine(pairs[i].first)
          .isend(pairs[i].second, tag, tx.data(), kSize);
    }
    for (const auto& r : recvs) world.wait(r);
    ++tag;
  };

  for (int i = 0; i < 4; ++i) burst();  // warm pools and slots

  const std::uint64_t spills_before = world.fabric().events().handler_spills();
  const std::uint64_t before = perf::t_alloc_count;
  constexpr int kMeasured = 16;
  for (int i = 0; i < kMeasured; ++i) burst();
  const std::uint64_t delta = perf::t_alloc_count - before;

  EXPECT_EQ(delta, 0u) << delta << " allocations across " << kMeasured
                       << " routed bursts of " << pairs.size()
                       << " messages on the 256-node torus";
  EXPECT_EQ(world.fabric().events().handler_spills(), spills_before);
  EXPECT_EQ(world.fabric().events().handler_spills(), 0u);
  EXPECT_GT(world.fabric().forwarded_segments(), 0u);
}

TEST(EagerGrouping, PartlyPostedGroupFallsBehindOlderDestinations) {
  // greedy-balance deals one whole message to each idle rail and skips a
  // send that does not fit the rail it is dealt: the 40 KiB send dealt to
  // the IB DDR rail (32 KiB segment cap) stays queued while the rest of its
  // group posts. Its group's place in the pack list then moves to that
  // send, behind destination 3, whose older send waited for a rail. When
  // Myri-10G frees up first, that older send takes it.
  WorldConfig cfg = paper_testbed("greedy-balance");
  cfg.fabric.node_count = 4;
  cfg.fabric.rails = {fabric::myri10g(), fabric::ib_ddr()};
  cfg.engine.rdv_threshold_override = 48 * 1024;
  World world(cfg);
  trace::Tracer tracer;
  world.engine(0).set_tracer(&tracer);

  std::vector<std::uint8_t> tx(40 * 1024, 0x5c);
  Engine& e = world.engine(0);
  const auto a1 = e.isend(1, 0, tx.data(), 64);
  const auto b1 = e.isend(2, 1, tx.data(), 16 * 1024);  // holds IB DDR
  const auto c1 = e.isend(3, 2, tx.data(), 64);
  const auto a2 = e.isend(1, 3, tx.data(), 40 * 1024);
  world.fabric().events().run_all();

  std::vector<std::uint64_t> emitted;
  for (const auto& ev : tracer.of_kind(trace::EventKind::kEagerEmit)) {
    emitted.push_back(ev.msg_id);
  }
  EXPECT_EQ(emitted, (std::vector<std::uint64_t>{a1->id, b1->id, c1->id, a2->id}));
  EXPECT_EQ(e.pending_sends(), 0u);
}

/// Forwards every call to a wrapped strategy, as railbench's span-recording
/// wrapper does: the plan it returns views the inner strategy's scratch.
class ForwardingStrategy final : public Strategy {
 public:
  explicit ForwardingStrategy(std::unique_ptr<Strategy> inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  EagerSchedule plan_eager(const StrategyContext& ctx,
                           std::span<const SendRequest* const> pending) override {
    return inner_->plan_eager(ctx, pending);
  }
  strategy::SplitResult plan_rendezvous(const StrategyContext& ctx,
                                        std::size_t len) override {
    return inner_->plan_rendezvous(ctx, len);
  }
  RailId control_rail(const StrategyContext& ctx) const override {
    return inner_->control_rail(ctx);
  }

 private:
  std::unique_ptr<Strategy> inner_;
};

/// FNV-1a over every kEagerEmit of a seeded 8-destination burst of mixed
/// sizes, submitted in waves so that later waves meet partly drained
/// FIFOs and busy rails. `wrapped` puts every engine's strategy behind a
/// ForwardingStrategy.
std::uint64_t burst_emit_digest(const std::string& strategy, bool wrapped) {
  WorldConfig cfg = paper_testbed(strategy);
  cfg.fabric.node_count = 9;
  cfg.engine.rdv_threshold_override = 48 * 1024;
  World world(cfg);
  if (wrapped) {
    for (NodeId n = 0; n < cfg.fabric.node_count; ++n) {
      world.engine(n).set_strategy(
          std::make_unique<ForwardingStrategy>(make_strategy(strategy)));
    }
  }
  trace::Tracer tracer;
  world.engine(0).set_tracer(&tracer);

  constexpr std::size_t kSizes[] = {8, 64, 512, 2048, 8192, 24 * 1024, 32 * 1024};
  std::vector<std::uint8_t> tx(32 * 1024, 0x6d);
  std::vector<SendHandle> sends;
  Xoshiro256 rng(25);
  for (unsigned i = 0; i < 96; ++i) {
    const SimTime when = (i / 8) * 4000;  // 12 waves, 4 us apart
    const auto dst = static_cast<NodeId>(1 + rng.below(8));
    const std::size_t len = kSizes[rng.below(std::size(kSizes))];
    world.fabric().events().at(when, [&world, &tx, &sends, dst, len, i] {
      sends.push_back(world.engine(0).isend(dst, static_cast<Tag>(i), tx.data(), len));
    });
  }
  world.fabric().events().run_all();
  for (const auto& s : sends) EXPECT_TRUE(s->done()) << strategy;
  EXPECT_EQ(sends.size(), 96u);

  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& ev : tracer.of_kind(trace::EventKind::kEagerEmit)) {
    mix(ev.time);
    mix(ev.msg_id);
    mix(ev.rail);
  }
  return h;
}

TEST(EagerGrouping, SeededBurstEmitsExactlyAsPinnedForEveryStrategy) {
  // Digests of the emission order (time, message, rail) taken from the
  // flat pack list that the per-destination FIFOs replaced: the wake-up
  // early exit and the ready order must not move a single emission.
  const std::pair<const char*, std::uint64_t> pinned[] = {
      {"single-rail:0", 0x5388b0d3c925c1d7ull},
      {"greedy-balance", 0xdfa3d80d3cd2bc04ull},
      {"aggregate-fastest", 0x1d964d4d3cef4274ull},
      {"iso-split", 0x1d964d4d3cef4274ull},
      {"fixed-ratio-split", 0x1d964d4d3cef4274ull},
      {"hetero-split", 0x1d964d4d3cef4274ull},
      {"multicore-hetero-split", 0x8364aee4bcc53705ull},
      {"batch-spread", 0x8364aee4bcc53705ull},
  };
  for (const auto& [strategy, digest] : pinned) {
    EXPECT_EQ(burst_emit_digest(strategy, /*wrapped=*/false), digest) << strategy;
    EXPECT_EQ(burst_emit_digest(strategy, /*wrapped=*/true), digest)
        << strategy << " behind a forwarding wrapper";
  }
}

// --- wake-up cost on a 256-node all-to-all -----------------------------------

WorldConfig torus_alltoall_world(const std::string& strategy) {
  WorldConfig cfg = paper_testbed(strategy);
  cfg.fabric.node_count = 256;
  cfg.fabric.net = topo::TopologySpec::torus(16, 16);
  cfg.fabric.event_sharding = true;
  cfg.fabric.rails = {fabric::seastar_torus(), fabric::seastar_torus()};
  return cfg;
}

/// One 2 KiB all-to-all, every send issued at t = 0 (node s sends to
/// s + 1, s + 2, ... in turn). `recvs` must have room for 256 * 255
/// handles. Returns the virtual time the last receive completed.
SimTime run_alltoall(World& world, std::vector<RecvHandle>& recvs) {
  constexpr NodeId kNodes = 256;
  constexpr std::size_t kSize = 2048;
  static std::vector<std::uint8_t> tx(kSize, 0x3c);
  static std::vector<std::uint8_t> rx(kSize);
  recvs.clear();
  for (NodeId dst = 0; dst < kNodes; ++dst) {
    for (NodeId src = 0; src < kNodes; ++src) {
      if (src != dst) recvs.push_back(world.engine(dst).irecv(src, 0, rx.data(), kSize));
    }
  }
  for (NodeId src = 0; src < kNodes; ++src) {
    for (NodeId k = 1; k < kNodes; ++k) {
      (void)world.engine(src).isend((src + k) % kNodes, 0, tx.data(), kSize);
    }
  }
  world.fabric().events().run_all();
  SimTime last = 0;
  for (const auto& r : recvs) {
    EXPECT_TRUE(r->done());
    last = std::max(last, r->complete_time);
  }
  return last;
}

TEST(WakeUpBound, AllToAllPlansAtMostIdleRailsPlusOneGroupsPerWakeUp) {
  // The optimizer wakes when a NIC goes idle and fills the idle rails: a
  // wake-up plans the groups it can emit (at most one per idle rail for
  // these strategies) plus the one whose plan reports `blocked`, however
  // many of a node's 255 destinations are still queued. The completion
  // times are the flat pack list's, to the nanosecond.
  perf::Profiler::set_enabled(false);
  const std::pair<const char*, SimTime> pinned[] = {
      {"hetero-split", 1346635},
      {"aggregate-fastest", 1346635},
  };
  for (const auto& [strategy, completion] : pinned) {
    World world(torus_alltoall_world(strategy));
    std::vector<RecvHandle> recvs;
    recvs.reserve(256 * 255);
    const SimTime last = run_alltoall(world, recvs);
    EXPECT_EQ(last, completion) << strategy;
    for (NodeId n = 0; n < 256; ++n) {
      const EngineStats& st = world.engine(n).stats();
      ASSERT_GT(st.progress_calls, 0u);
      EXPECT_LE(st.plan_eager, 3 * st.progress_calls)
          << strategy << " node " << n << ": " << st.plan_eager << " plans in "
          << st.progress_calls << " wake-ups";
    }
  }
}

TEST(HotPathAlloc, ColdTorusWorldAllToAllStaysWithinBudget) {
  // A fresh 256-node World whose process-wide pools (request slabs,
  // payload buffers) are already warm from an earlier World: what one
  // all-to-all still allocates is the per-engine state each node grows on
  // first use (docs/PERF.md, "Cold-world allocations").
  perf::Profiler::set_enabled(false);
  std::vector<RecvHandle> recvs;
  recvs.reserve(256 * 255);
  {
    World warm(torus_alltoall_world("hetero-split"));
    run_alltoall(warm, recvs);
    recvs.clear();
  }
  World world(torus_alltoall_world("hetero-split"));
  const std::uint64_t before = allocs_so_far();
  run_alltoall(world, recvs);
  const double per_msg =
      static_cast<double>(allocs_so_far() - before) / static_cast<double>(256 * 255);
  // Measured 0.181 (g++ 12, libstdc++): every engine's pack-list slab,
  // ready order, posted-receive list and scratch vectors growing to their
  // working size once (docs/PERF.md).
  EXPECT_LE(per_msg, 0.19) << per_msg << " allocations per message in a cold World";
}

// --- plans under faults ------------------------------------------------------

/// FNV-1a over every kEagerEmit (time, msg id, rail) of the sender and
/// every send and receive completion time of a seeded run shaped like
/// railbench's mixed_reliable: multicore-hetero-split with QoS and
/// reliability on, 1% silent drops on rail 1, and a seeded open-loop mix of
/// small sends with one in ten of 16-64 KiB. The middle of the run offers
/// more than the rails carry; the drops then drive retransmits, two
/// quarantines and their re-probes, which change the usable rail set under
/// the planner's feet.
std::uint64_t mixed_reliable_digest(EngineStats* sender_stats) {
  WorldConfig cfg = paper_testbed("multicore-hetero-split");
  cfg.engine.qos.enabled = true;
  cfg.engine.reliability.enabled = true;
  fabric::FabricConfig::RailFault drop;
  drop.rail = 1;
  drop.spec.kind = fabric::FaultKind::kDrop;
  drop.spec.rate = 0.01;
  cfg.fabric.faults.push_back(drop);
  cfg.fabric.fault_seed = 1;
  World world(cfg);
  trace::Tracer tracer;
  world.engine(0).set_tracer(&tracer);

  constexpr unsigned kMsgs = 1500;
  std::vector<std::uint8_t> tx(64 * 1024, 0x2b);
  std::vector<std::uint8_t> rx(64 * 1024);
  std::vector<SendHandle> sends;
  std::vector<RecvHandle> recvs;
  sends.reserve(kMsgs);
  recvs.reserve(kMsgs);
  Xoshiro256 rng(26);
  SimTime when = 0;
  for (unsigned i = 0; i < kMsgs; ++i) {
    const std::size_t len = rng.below(10) == 0 ? (16 + rng.below(49)) * 1024
                                               : std::size_t{8} << rng.below(11);
    when += rng.below(i >= 300 && i < 1200 ? 3000 : 20000);
    recvs.push_back(world.engine(1).irecv(0, static_cast<Tag>(i), rx.data(), len));
    world.fabric().events().at(when, [&world, &tx, &sends, len, i] {
      sends.push_back(world.engine(0).isend(1, static_cast<Tag>(i), tx.data(), len));
    });
  }
  world.fabric().events().run_all();

  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& ev : tracer.of_kind(trace::EventKind::kEagerEmit)) {
    mix(ev.time);
    mix(ev.msg_id);
    mix(ev.rail);
  }
  EXPECT_EQ(sends.size(), kMsgs);
  for (const auto& s : sends) {
    EXPECT_TRUE(s->done());
    mix(s->complete_time);
  }
  for (const auto& r : recvs) {
    EXPECT_TRUE(r->done());
    mix(r->complete_time);
  }
  *sender_stats = world.engine(0).stats();
  return h;
}

TEST(EagerGrouping, MixedReliableRunEmitsExactlyAsPinned) {
  // Pinned with the strategy decision cache that plans now replace: every
  // emission and completion, through the quarantines and re-probes, is the
  // one that cache replayed or planned.
  EngineStats st;
  EXPECT_EQ(mixed_reliable_digest(&st), 0x0400accc396e7795ull);
  EXPECT_EQ(st.quarantines, 2u);
  EXPECT_EQ(st.reprobes, 2u);
  EXPECT_GT(st.rel_retransmits, 0u);
  EXPECT_GT(st.offloaded_chunks, 0u);
}

}  // namespace
}  // namespace rails::core
