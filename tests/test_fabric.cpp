#include "fabric/fabric.hpp"

#include <gtest/gtest.h>

#include "fabric/buffer_pool.hpp"
#include "fabric/payload.hpp"
#include "fabric/presets.hpp"

namespace rails::fabric {
namespace {

FabricConfig two_node_two_rail() {
  FabricConfig cfg;
  cfg.node_count = 2;
  cfg.rails = {myri10g(), qsnet2()};
  return cfg;
}

Segment eager_seg(NodeId src, NodeId dst, RailId rail, std::size_t len) {
  Segment s;
  s.kind = SegKind::kEager;
  s.src = src;
  s.dst = dst;
  s.rail = rail;
  s.payload.assign(len, 0x42);
  return s;
}

TEST(Fabric, Construction) {
  Fabric fab(two_node_two_rail());
  EXPECT_EQ(fab.node_count(), 2u);
  EXPECT_EQ(fab.rail_count(), 2u);
  EXPECT_EQ(fab.nic(0, 0).model().name(), "myri10g");
  EXPECT_EQ(fab.nic(1, 1).model().name(), "qsnet2");
  EXPECT_EQ(fab.cores(0).count(), 4u);
}

TEST(Fabric, DeliversToDestinationHandler) {
  Fabric fab(two_node_two_rail());
  int delivered = 0;
  Segment got;
  fab.set_rx_handler(1, [&](Segment&& s) {
    ++delivered;
    got = std::move(s);
  });
  fab.nic(0, 0).post(eager_seg(0, 1, 0, 256), 0);
  fab.events().run_all();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(got.payload.size(), 256u);
  EXPECT_EQ(got.src, 0u);
  EXPECT_EQ(got.rail, 0u);
}

TEST(Fabric, DeliveryTimeMatchesModel) {
  Fabric fab(two_node_two_rail());
  SimTime arrival = -1;
  fab.set_rx_handler(1, [&](Segment&&) { arrival = fab.now(); });
  const NetworkModel& m = fab.nic(0, 0).model();
  fab.nic(0, 0).post(eager_seg(0, 1, 0, 4096), 0);
  fab.events().run_all();
  EXPECT_EQ(arrival, m.eager(4096).total);
}

TEST(Fabric, NicBusySerializesPosts) {
  Fabric fab(two_node_two_rail());
  std::vector<SimTime> arrivals;
  fab.set_rx_handler(1, [&](Segment&&) { arrivals.push_back(fab.now()); });
  auto& nic = fab.nic(0, 0);
  const auto t1 = nic.post(eager_seg(0, 1, 0, 4096), 0);
  const auto t2 = nic.post(eager_seg(0, 1, 0, 4096), 0);
  // Second post queues behind the first at the injection port.
  EXPECT_EQ(t2.host_start, t1.nic_end);
  fab.events().run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GT(arrivals[1], arrivals[0]);
}

TEST(Fabric, RailsAreIndependent) {
  Fabric fab(two_node_two_rail());
  fab.set_rx_handler(1, [](Segment&&) {});
  const auto t0 = fab.nic(0, 0).post(eager_seg(0, 1, 0, 4096), 0);
  const auto t1 = fab.nic(0, 1).post(eager_seg(0, 1, 1, 4096), 0);
  // Both injections start immediately: different ports.
  EXPECT_EQ(t0.host_start, 0);
  EXPECT_EQ(t1.host_start, 0);
}

TEST(Fabric, PreviewDoesNotCommit) {
  Fabric fab(two_node_two_rail());
  auto& nic = fab.nic(0, 0);
  const Segment seg = eager_seg(0, 1, 0, 1024);
  const auto preview = nic.preview(seg, 0);
  EXPECT_EQ(nic.busy_until(), 0);
  EXPECT_TRUE(fab.events().empty());
  fab.set_rx_handler(1, [](Segment&&) {});
  const auto posted = nic.post(eager_seg(0, 1, 0, 1024), 0);
  EXPECT_EQ(preview.deliver_at, posted.deliver_at);
}

TEST(Fabric, StatsCountPayloadAndHeaders) {
  Fabric fab(two_node_two_rail());
  fab.set_rx_handler(1, [](Segment&&) {});
  fab.nic(0, 0).post(eager_seg(0, 1, 0, 100), 0);
  fab.nic(0, 0).post(eager_seg(0, 1, 0, 200), 0);
  fab.events().run_all();
  EXPECT_EQ(fab.nic(0, 0).segments_sent(), 2u);
  EXPECT_EQ(fab.nic(0, 0).payload_bytes_sent(), 300u);
  EXPECT_EQ(fab.nic(0, 0).bytes_sent(), 300u + 2 * Segment::kHeaderBytes);
  EXPECT_EQ(fab.delivered_payload(0), 300u);
  EXPECT_EQ(fab.delivered_payload(1), 0u);
}

TEST(Fabric, MultiNodeRouting) {
  FabricConfig cfg;
  cfg.node_count = 4;
  cfg.rails = {myri10g()};
  Fabric fab(cfg);
  std::vector<int> received(4, 0);
  for (NodeId n = 0; n < 4; ++n) {
    fab.set_rx_handler(n, [&received, n](Segment&&) { ++received[n]; });
  }
  // Node 0 sends one segment to each peer.
  for (NodeId dst = 1; dst < 4; ++dst) {
    fab.nic(0, 0).post(eager_seg(0, dst, 0, 64), fab.now());
  }
  fab.events().run_all();
  EXPECT_EQ(received[0], 0);
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[2], 1);
  EXPECT_EQ(received[3], 1);
}

TEST(FabricDeath, WrongRailAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fabric fab(two_node_two_rail());
  fab.set_rx_handler(1, [](Segment&&) {});
  EXPECT_DEATH(fab.nic(0, 0).post(eager_seg(0, 1, 1, 64), 0), "wrong rail");
}

TEST(FabricDeath, MissingHandlerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fabric fab(two_node_two_rail());
  fab.nic(0, 0).post(eager_seg(0, 1, 0, 64), 0);
  EXPECT_DEATH(fab.events().run_all(), "rx handler");
}

TEST(RxContention, SingleStreamNeverDelayed) {
  // Back-to-back segments from one sender are already spaced by their wire
  // occupancy: the receive port must not add anything.
  Fabric fab(two_node_two_rail());
  std::vector<SimTime> arrivals;
  fab.set_rx_handler(1, [&](Segment&&) { arrivals.push_back(fab.now()); });
  const auto t1 = fab.nic(0, 0).post(eager_seg(0, 1, 0, 8192), 0);
  const auto t2 = fab.nic(0, 0).post(eager_seg(0, 1, 0, 8192), 0);
  fab.events().run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], t1.deliver_at);
  EXPECT_EQ(arrivals[1], t2.deliver_at);
}

TEST(RxContention, ConvergingFlowsSerialise) {
  // Two senders hitting the same receive port at the same instant: the
  // second delivery waits out the first segment's drain.
  FabricConfig cfg;
  cfg.node_count = 3;
  cfg.rails = {myri10g()};
  Fabric fab(cfg);
  std::vector<SimTime> arrivals;
  fab.set_rx_handler(0, [&](Segment&&) { arrivals.push_back(fab.now()); });
  const std::size_t size = 256u * 1024u;
  fab.nic(1, 0).post(eager_seg(1, 0, 0, size), 0);
  fab.nic(2, 0).post(eager_seg(2, 0, 0, size), 0);
  fab.events().run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  const SimDuration drain = wire_time(size, myri10g().dma_bw_mbps);
  EXPECT_EQ(arrivals[1] - arrivals[0], drain);
}

TEST(RxContention, DifferentRailsDoNotContend) {
  FabricConfig cfg;
  cfg.node_count = 3;
  cfg.rails = {myri10g(), myri10g()};
  Fabric fab(cfg);
  std::vector<SimTime> arrivals;
  fab.set_rx_handler(0, [&](Segment&&) { arrivals.push_back(fab.now()); });
  fab.nic(1, 0).post(eager_seg(1, 0, 0, 256u * 1024u), 0);
  fab.nic(2, 1).post(eager_seg(2, 0, 1, 256u * 1024u), 0);
  fab.events().run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], arrivals[1]);  // separate ports, identical timing
}

TEST(RxContention, TinyControlAfterBigSegmentNotDelayed) {
  // Regression: a big segment's drain ends at its arrival; a later tiny
  // segment must not inherit a phantom busy window.
  Fabric fab(two_node_two_rail());
  std::vector<SimTime> arrivals;
  fab.set_rx_handler(1, [&](Segment&&) { arrivals.push_back(fab.now()); });
  fab.nic(0, 0).post(eager_seg(0, 1, 0, 64u * 1024u), 0);
  fab.events().run_all();
  const auto tiny = fab.nic(0, 0).post(eager_seg(0, 1, 0, 8), fab.now());
  fab.events().run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1], tiny.deliver_at);
}

TEST(SimCores, OccupyAndIdle) {
  SimCores cores(MachineTopology::opteron_2x2());
  EXPECT_EQ(cores.idle_count(0), 4u);
  const SimTime free_at = cores.occupy(1, 100, 50);
  EXPECT_EQ(free_at, 150);
  EXPECT_FALSE(cores.idle(1, 120));
  EXPECT_TRUE(cores.idle(1, 150));
  EXPECT_EQ(cores.idle_count(120), 3u);
  EXPECT_EQ(cores.idle_count(120, CoreId{0}), 2u);
}

TEST(SimCores, OccupyQueuesBehindBusy) {
  SimCores cores;
  cores.occupy(0, 0, 100);
  const SimTime free_at = cores.occupy(0, 50, 10);  // starts at 100, not 50
  EXPECT_EQ(free_at, 110);
}

TEST(SimCores, Reset) {
  SimCores cores;
  cores.occupy(0, 0, 100);
  cores.reset();
  EXPECT_TRUE(cores.idle(0, 0));
}

// -- payloads: owned storage, borrowed views, pins ---------------------------

TEST(Payload, OwnedStorageBehavesLikeAByteVector) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.data(), nullptr);
  p.assign(4, 0x11);
  p.push_back(0x22);
  const std::uint8_t tail[] = {0x33, 0x44};
  p.append(tail, 2);
  const std::vector<std::uint8_t> expect = {0x11, 0x11, 0x11, 0x11, 0x22, 0x33, 0x44};
  EXPECT_EQ(std::vector<std::uint8_t>(p.begin(), p.end()), expect);
  EXPECT_FALSE(p.borrowed());

  Payload copy = p;  // deep copy
  copy.mutable_data()[0] = 0x99;
  EXPECT_EQ(p[0], 0x11);
  EXPECT_EQ(copy[0], 0x99);

  const std::size_t cap = p.capacity();
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.capacity(), cap) << "clear keeps owned capacity";
}

TEST(Payload, BorrowedViewReadsInPlaceAndCopiesOnWrite) {
  std::vector<std::uint8_t> lent = {1, 2, 3, 4, 5, 6, 7, 8};
  Pin* pin = PinPool::instance().lend(lent.data());
  {
    Payload view = Payload::borrow(pin, 2, 4);
    EXPECT_TRUE(view.borrowed());
    EXPECT_EQ(view.size(), 4u);
    EXPECT_EQ(view.data(), lent.data() + 2) << "a view reads the lender's bytes in place";
    EXPECT_EQ(pin->refs.load(), 2u);

    Payload shared = view;  // a copy shares the pin
    EXPECT_EQ(pin->refs.load(), 3u);
    EXPECT_EQ(shared.data(), view.data());

    shared.mutable_data()[0] = 0xFF;  // copy-on-write
    EXPECT_FALSE(shared.borrowed());
    EXPECT_EQ(pin->refs.load(), 2u);
    EXPECT_EQ(shared[0], 0xFF);
    EXPECT_EQ(lent[2], 3) << "a write to a view must never reach the lender";

    Payload appended = view;
    appended.push_back(9);
    EXPECT_EQ(std::vector<std::uint8_t>(appended.begin(), appended.end()),
              (std::vector<std::uint8_t>{3, 4, 5, 6, 9}));
    appended.assign(2, 0);
    EXPECT_EQ(appended.size(), 2u);
    EXPECT_EQ(lent, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  }
  EXPECT_EQ(pin->refs.load(), 1u);
  revoke_pin(pin);
  EXPECT_EQ(pin, nullptr);
}

TEST(Payload, RescuedPinOutlivesTheLendersBuffer) {
  const std::size_t live_before = PinPool::instance().live();
  std::vector<std::uint8_t> lent = {10, 20, 30, 40};
  Pin* pin = PinPool::instance().lend(lent.data());
  Payload view = Payload::borrow(pin, 1, 2);
  rescue_pin(pin, lent.size());
  std::fill(lent.begin(), lent.end(), 0xEE);
  EXPECT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()),
            (std::vector<std::uint8_t>{20, 30}));
  EXPECT_EQ(PinPool::instance().live(), live_before + 1);
  view = Payload();
  EXPECT_EQ(PinPool::instance().live(), live_before);
}

TEST(Payload, SharedBytesAreReferencedNotCopiedAndReturnToThePool) {
  // The reliable send path: a segment shares its storage, the retransmit
  // ring and each retransmit take references, and a corrupt fault writes a
  // private copy. The last reference hands the storage back to the pool.
  BufferPool& pool = BufferPool::instance();
  const std::size_t live_before = PinPool::instance().live();
  Payload seg;
  seg.assign(64, 0x5a);
  const std::uint8_t* bytes = seg.data();
  seg.share();
  EXPECT_TRUE(seg.borrowed());
  EXPECT_EQ(seg.capacity(), 0u);
  EXPECT_EQ(seg.data(), bytes) << "sharing moves no bytes";
  EXPECT_EQ(PinPool::instance().live(), live_before + 1);
  {
    Payload parked = seg;
    Payload retransmit = parked;
    EXPECT_EQ(parked.data(), bytes);
    EXPECT_EQ(retransmit.data(), bytes);

    retransmit.mutable_data()[0] ^= 0x01;  // a corrupt fault
    EXPECT_FALSE(retransmit.borrowed());
    EXPECT_NE(retransmit.data(), bytes);
    EXPECT_EQ(parked[0], 0x5a) << "a write to a copy must never reach the shared bytes";
    EXPECT_EQ(retransmit[0], 0x5b);

    pool.release(std::move(retransmit));  // the receiver recycles its segment
    seg.share();                          // already a view: no-op
    EXPECT_EQ(seg.data(), bytes);
    pool.release(std::move(seg));
    EXPECT_EQ(PinPool::instance().live(), live_before + 1) << "parked still holds it";
  }
  EXPECT_EQ(PinPool::instance().live(), live_before);
  Payload reused = pool.acquire(64);
  EXPECT_EQ(reused.data(), bytes) << "the last reference returned the storage to the pool";
  EXPECT_GE(reused.capacity(), 64u);

  Payload empty;
  empty.share();
  EXPECT_FALSE(empty.borrowed()) << "an empty payload has nothing to share";
}

TEST(PayloadDeathTest, ReadThroughARevokedPinTraps) {
  std::vector<std::uint8_t> lent(64, 7);
  Pin* pin = PinPool::instance().lend(lent.data());
  const Payload view = Payload::borrow(pin, 0, lent.size());
  revoke_pin(pin);
  EXPECT_DEATH((void)view.data(), "revoked pin");
}

TEST(BufferPool, AcquireTakesTheBestFitAmongTheLastPooled) {
  // A large copy-on-write must not take the small buffer pooled last, grow
  // it (an allocation) and leave the large one unused; a small segment
  // must not take the large one either.
  BufferPool& pool = BufferPool::instance();
  constexpr std::size_t kLarge = std::size_t{256} << 10;
  Payload large;
  large.assign(kLarge, 1);
  const std::uint8_t* large_bytes = large.data();
  Payload small;
  small.assign(64, 2);
  const std::uint8_t* small_bytes = small.data();
  pool.release(std::move(small));
  pool.release(std::move(large));

  Payload got_small = pool.acquire(64);
  EXPECT_EQ(got_small.data(), small_bytes) << "a small request took the large buffer";
  pool.release(std::move(got_small));  // back on top, above the large one

  Payload got = pool.acquire(kLarge);
  EXPECT_EQ(got.size(), 0u);
  ASSERT_GE(got.capacity(), kLarge);
  EXPECT_EQ(got.data(), large_bytes);
  const std::vector<std::uint8_t> bytes(kLarge, 3);
  got.append(bytes.data(), bytes.size());
  EXPECT_EQ(got.data(), large_bytes) << "filling it to the wanted size reallocated";
  EXPECT_EQ(pool.acquire(64).data(), small_bytes) << "the small buffer stays pooled";
}

TEST(BufferPool, RetainedBytesStayUnderTheCap) {
  BufferPool& pool = BufferPool::instance();
  constexpr std::size_t kBuffers = 1024;
  for (std::size_t i = 0; i < kBuffers; ++i) {
    Payload buf;
    buf.assign(std::size_t{1} << 20, 0);
    pool.release(std::move(buf));
    ASSERT_LE(pool.pooled_bytes(), BufferPool::kMaxPooledBytes);
  }
  EXPECT_GT(pool.pooled(), 0u);
  EXPECT_LE(pool.pooled(), BufferPool::kMaxPooled);
  // Drain, so the retained memory does not outlive the test.
  while (pool.pooled() > 0) (void)pool.acquire(0);
  EXPECT_EQ(pool.pooled_bytes(), 0u);
}

}  // namespace
}  // namespace rails::fabric
