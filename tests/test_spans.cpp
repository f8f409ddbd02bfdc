// Causal span reconstruction and critical-path attribution (trace/spans).
//
// The attribution invariant under test is structural: the six layers are
// deltas of a monotone cursor, so for every complete message they must each
// be non-negative and sum EXACTLY to the end-to-end latency — no epsilon.
// The eviction tests pin the other contract: a bounded tracer that lost a
// message's head yields an *incomplete* span, never a fabricated one.
#include <algorithm>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/world.hpp"
#include "trace/spans.hpp"
#include "trace/tracer.hpp"

namespace rails {
namespace {

/// One rendezvous transfer on the hetero testbed with a tracer attached to
/// the sender; waits on BOTH sides so the FIN lands and the span completes.
trace::SpanAnalysis traced_transfer(const char* strategy, std::size_t size) {
  core::World world(core::paper_testbed(strategy));
  trace::Tracer tracer;
  world.engine(0).set_tracer(&tracer);
  std::vector<std::uint8_t> tx(size, 0x42);
  std::vector<std::uint8_t> rx(size);
  auto recv = world.engine(1).irecv(0, 7, rx.data(), size);
  auto send = world.engine(0).isend(1, 7, tx.data(), size);
  world.wait(recv);
  world.wait(send);
  world.engine(0).set_tracer(nullptr);
  return trace::analyze_spans(tracer);
}

TEST(Spans, AttributionTilesTheMessageLifetime) {
  const auto analysis = traced_transfer("hetero-split", 4 << 20);
  ASSERT_EQ(analysis.complete_count, 1u);
  const trace::MessageSpans& m = analysis.messages.front();
  ASSERT_TRUE(m.complete);
  EXPECT_TRUE(m.rendezvous);
  EXPECT_GE(m.chunks.size(), 2u);  // hetero-split across both rails

  // Exact tiling: layers sum to the total, which is finish - submit.
  EXPECT_EQ(m.path.sum(), m.path.total);
  EXPECT_EQ(m.path.total, m.finish - m.submit);
  EXPECT_GE(m.path.queueing, 0);
  EXPECT_GE(m.path.handshake, 0);
  EXPECT_GE(m.path.stagger, 0);
  EXPECT_GE(m.path.offload_sync, 0);
  EXPECT_GE(m.path.wire, 0);
  EXPECT_GE(m.path.completion_sync, 0);
  // A rendezvous transfer spends real time in handshake and on the wire.
  EXPECT_GT(m.path.handshake, 0);
  EXPECT_GT(m.path.wire, 0);
}

TEST(Spans, EqualFinishSkewIsMeasuredAndSmall) {
  const auto analysis = traced_transfer("hetero-split", 4 << 20);
  const trace::MessageSpans& m = analysis.messages.front();
  ASSERT_TRUE(m.finish_skew.has_value());
  // The split solver targets equal finishes; on pristine profiles the skew
  // must be a small fraction of the transfer (< 10% is generous).
  EXPECT_LT(*m.finish_skew, m.path.total / 10);
  EXPECT_EQ(analysis.skew_samples.size(), 1u);
}

TEST(Spans, OffloadedEagerMessageMeasuresTo) {
  // A lone medium eager message under the multicore strategy takes the
  // Fig. 7 path: one offload signal per chunk, TO = signal_cost when the
  // remote core was idle (usec(3) in the testbed config).
  core::World world(core::paper_testbed("multicore-hetero-split"));
  trace::Tracer tracer;
  world.engine(0).set_tracer(&tracer);
  std::vector<std::uint8_t> tx(24 << 10, 0x24);
  std::vector<std::uint8_t> rx(tx.size());
  auto recv = world.engine(1).irecv(0, 9, rx.data(), rx.size());
  auto send = world.engine(0).isend(1, 9, tx.data(), tx.size());
  world.wait(recv);
  world.wait(send);
  world.engine(0).set_tracer(nullptr);

  const auto analysis = trace::analyze_spans(tracer);
  ASSERT_EQ(analysis.complete_count, 1u);
  const trace::MessageSpans& m = analysis.messages.front();
  EXPECT_GT(m.offload_signals, 0u);
  ASSERT_FALSE(analysis.to_samples.empty());
  for (const SimDuration to : analysis.to_samples) {
    EXPECT_GE(to, usec(3.0));  // at least the idle-core signalling cost
    EXPECT_LE(to, usec(6.0));  // at most the preemption cost
  }
  // The critical chunk's TO shows up as the offload_sync layer.
  EXPECT_GT(m.path.offload_sync, 0);
  EXPECT_EQ(m.path.sum(), m.path.total);
}

// -- eviction / incompleteness ----------------------------------------------

trace::Event ev(trace::EventKind kind, SimTime t, std::uint64_t msg,
                std::size_t bytes = 0, SimTime nic_end = 0) {
  trace::Event e;
  e.kind = kind;
  e.time = t;
  e.node = 0;
  e.msg_id = msg;
  e.a = static_cast<std::int64_t>(bytes);
  e.b = nic_end;
  return e;
}

TEST(Spans, EvictedHeadIsIncompleteNeverFabricated) {
  // The window starts mid-message: chunk + completion but no submit, as a
  // bounded tracer would retain after wrapping.
  std::vector<trace::Event> window = {
      ev(trace::EventKind::kChunkPosted, usec(10), 42, 1 << 20, usec(500)),
      ev(trace::EventKind::kSendComplete, usec(510), 42),
  };
  const auto analysis = trace::analyze_spans(window);
  ASSERT_EQ(analysis.messages.size(), 1u);
  const trace::MessageSpans& m = analysis.messages.front();
  EXPECT_FALSE(m.complete);
  EXPECT_TRUE(m.head_evicted);
  EXPECT_EQ(analysis.complete_count, 0u);
  EXPECT_EQ(analysis.incomplete_count, 1u);
  // No attribution and no skew may be synthesised from a partial window.
  EXPECT_EQ(analysis.totals.total, 0);
  EXPECT_FALSE(m.finish_skew.has_value());
  EXPECT_TRUE(analysis.skew_samples.empty());
}

TEST(Spans, BoundedTracerEvictionReportsIncomplete) {
  // End-to-end variant: a tracer too small for the whole run loses the first
  // messages' submits; the analyzer must degrade to "incomplete", and the
  // retained-window messages must still tile exactly.
  core::World world(core::paper_testbed("hetero-split"));
  trace::Tracer tracer(16);  // far smaller than the event stream
  world.engine(0).set_tracer(&tracer);
  std::vector<std::uint8_t> tx(1 << 20, 0x66);
  std::vector<std::uint8_t> rx(tx.size());
  for (Tag tag = 0; tag < 6; ++tag) {
    auto recv = world.engine(1).irecv(0, tag, rx.data(), rx.size());
    auto send = world.engine(0).isend(1, tag, tx.data(), tx.size());
    world.wait(recv);
    world.wait(send);
  }
  world.engine(0).set_tracer(nullptr);
  ASSERT_GT(tracer.dropped(), 0u);

  const auto analysis = trace::analyze_spans(tracer);
  EXPECT_GT(analysis.incomplete_count, 0u);
  for (const trace::MessageSpans& m : analysis.messages) {
    if (!m.complete) continue;
    EXPECT_EQ(m.path.sum(), m.path.total);
    EXPECT_EQ(m.path.total, m.finish - m.submit);
  }
}

TEST(Spans, InFlightMessageIsIncompleteWithoutHeadEviction) {
  std::vector<trace::Event> window = {
      ev(trace::EventKind::kSubmit, usec(1), 7, 4096),
      ev(trace::EventKind::kEagerEmit, usec(2), 7, 4096, usec(40)),
  };
  const auto analysis = trace::analyze_spans(window);
  ASSERT_EQ(analysis.messages.size(), 1u);
  EXPECT_FALSE(analysis.messages.front().complete);
  EXPECT_FALSE(analysis.messages.front().head_evicted);  // still in flight
}

TEST(Spans, ReportAndChromeExportAreWellFormed) {
  const auto analysis = traced_transfer("hetero-split", 4 << 20);

  std::ostringstream report;
  analysis.dump(report);
  EXPECT_NE(report.str().find("critical-path"), std::string::npos);
  EXPECT_NE(report.str().find("finish-skew"), std::string::npos);
  EXPECT_NE(report.str().find("measured TO"), std::string::npos);

  std::ostringstream chrome;
  {
    trace::ChromeTraceSink sink(chrome);
    trace::emit_chrome_spans(sink, analysis);
    sink.close();
  }
  const std::string json = chrome.str();
  // Balanced braces/brackets make a cheap structural JSON check that does
  // not depend on a parser being available in the test image.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"cp\""), std::string::npos);      // span category
  EXPECT_NE(json.find("\"cpflow\""), std::string::npos);  // flow arrows
}

}  // namespace
}  // namespace rails
