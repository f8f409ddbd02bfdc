#include "trace/spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>

namespace rails::trace {

namespace {

// Only sender-side kinds participate in span reconstruction. Receiver-side
// records (kRecvPosted, kRecvComplete, and kCtsSent — which is logged on the
// RECEIVER node but carries the sender's msg_id) must not leak into a send
// span keyed (node, msg_id).
bool send_side(EventKind kind) {
  switch (kind) {
    case EventKind::kSubmit:
    case EventKind::kRtsSent:
    case EventKind::kOffloadSignal:
    case EventKind::kEagerEmit:
    case EventKind::kChunkPosted:
    case EventKind::kSendComplete:
    case EventKind::kFailover:
      return true;
    default:
      return false;
  }
}

struct Builder {
  MessageSpans m;
  // Offload signal awaiting its emission, per rail. The engine logs the
  // signal at decision time and the emission at PIO start; matching them
  // recovers the measured TO.
  std::map<RailId, SimTime> pending_signal;
};

// Walks the six layers as successive deltas of a monotone cursor clamped to
// [submit, finish]: each delta is non-negative and the deltas tile the
// interval exactly, so sum() == total even for odd timelines (e.g. eager
// sends whose host-side completion precedes the predicted wire departure).
void attribute(MessageSpans& m) {
  const auto& chunks = m.chunks;
  SimTime first_activity = m.finish;
  SimTime first_launch = m.finish;
  if (m.rts >= 0) first_activity = std::min(first_activity, m.rts);
  for (const auto& c : chunks) {
    const SimTime launch = c.offloaded ? c.signal_time : c.start;
    first_activity = std::min(first_activity, launch);
    first_launch = std::min(first_launch, launch);
  }

  // Critical chunk: latest predicted wire departure (ties -> latest start,
  // i.e. the chunk launched last).
  std::size_t crit = 0;
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    if (chunks[i].nic_end > chunks[crit].nic_end ||
        (chunks[i].nic_end == chunks[crit].nic_end &&
         chunks[i].start > chunks[crit].start)) {
      crit = i;
    }
  }
  const ChunkSpan& cc = chunks[crit];

  SimTime cursor = m.submit;
  auto advance = [&](SimTime point) -> SimDuration {
    const SimTime p = std::clamp(point, cursor, m.finish);
    const SimDuration d = p - cursor;
    cursor = p;
    return d;
  };

  CriticalPath& p = m.path;
  p.total = m.finish - m.submit;
  p.critical_rail = cc.rail;
  p.queueing = advance(first_activity);
  if (m.rendezvous) p.handshake = advance(first_launch);
  const SimTime crit_launch = cc.offloaded ? cc.signal_time : cc.start;
  p.stagger = advance(crit_launch);
  if (cc.offloaded) p.offload_sync = advance(cc.start);
  p.wire = advance(cc.nic_end);
  p.completion_sync = m.finish - cursor;

  if (chunks.size() >= 2) {
    SimTime lo = chunks[0].nic_end, hi = chunks[0].nic_end;
    for (const auto& c : chunks) {
      lo = std::min(lo, c.nic_end);
      hi = std::max(hi, c.nic_end);
    }
    m.finish_skew = hi - lo;
  }
}

}  // namespace

SpanAnalysis analyze_spans(std::span<const Event> events) {
  SpanAnalysis out;
  std::map<std::pair<NodeId, std::uint64_t>, std::size_t> index;
  std::vector<Builder> builders;

  for (const Event& e : events) {
    if (!send_side(e.kind)) continue;
    const std::pair<NodeId, std::uint64_t> key{e.node, e.msg_id};
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, builders.size()).first;
      builders.emplace_back();
      Builder& nb = builders.back();
      nb.m.node = e.node;
      nb.m.msg_id = e.msg_id;
      nb.m.tag = e.tag;
    }
    Builder& b = builders[it->second];
    MessageSpans& m = b.m;
    switch (e.kind) {
      case EventKind::kSubmit:
        m.submit = e.time;
        m.bytes = e.bytes();
        m.tag = e.tag;
        m.cls = e.cls;
        break;
      case EventKind::kRtsSent:
        m.rts = e.time;
        m.rendezvous = true;
        break;
      case EventKind::kOffloadSignal:
        ++m.offload_signals;
        b.pending_signal[e.rail] = e.time;
        break;
      case EventKind::kEagerEmit:
      case EventKind::kChunkPosted: {
        // The engine logs one event per pack-list piece; pieces of a single
        // emission share (rail, start, nic_end) and collapse into one span.
        if (!m.chunks.empty()) {
          ChunkSpan& last = m.chunks.back();
          if (last.rail == e.rail && last.start == e.time &&
              last.nic_end == e.nic_end()) {
            last.bytes += e.bytes();
            break;
          }
        }
        if (m.cls == 0) m.cls = e.cls;  // head-evicted: recover from chunks
        ChunkSpan c;
        c.rail = e.rail;
        c.core = e.core;
        c.start = e.time;
        c.nic_end = e.nic_end();
        c.bytes = e.bytes();
        c.eager = e.kind == EventKind::kEagerEmit;
        const auto sig = b.pending_signal.find(e.rail);
        if (sig != b.pending_signal.end() && sig->second <= e.time) {
          c.offloaded = true;
          c.signal_time = sig->second;
          b.pending_signal.erase(sig);
        }
        m.chunks.push_back(c);
        break;
      }
      case EventKind::kSendComplete:
        m.finish = e.time;
        break;
      case EventKind::kFailover:
        ++m.failovers;
        break;
      default:
        break;
    }
  }

  for (Builder& b : builders) {
    MessageSpans& m = b.m;
    m.complete = m.submit >= 0 && m.finish >= 0;
    m.head_evicted = m.submit < 0;
    for (const auto& c : m.chunks) {
      if (c.offloaded) {
        m.measured_to.push_back(c.start - c.signal_time);
        out.to_samples.push_back(c.start - c.signal_time);
      }
    }
    if (m.complete && !m.chunks.empty()) {
      attribute(m);
      const auto accumulate = [](CriticalPath& t, const CriticalPath& p) {
        t.total += p.total;
        t.queueing += p.queueing;
        t.handshake += p.handshake;
        t.stagger += p.stagger;
        t.offload_sync += p.offload_sync;
        t.wire += p.wire;
        t.completion_sync += p.completion_sync;
      };
      accumulate(out.totals, m.path);
      auto ct = std::find_if(out.class_totals.begin(), out.class_totals.end(),
                             [&](const auto& c) { return c.cls == m.cls; });
      if (ct == out.class_totals.end()) {
        out.class_totals.push_back({m.cls, 0, {}});
        ct = std::prev(out.class_totals.end());
      }
      ++ct->count;
      accumulate(ct->totals, m.path);
      if (m.finish_skew) out.skew_samples.push_back(*m.finish_skew);
    }
    if (m.complete) {
      ++out.complete_count;
    } else {
      ++out.incomplete_count;
    }
    out.messages.push_back(std::move(m));
  }
  // Every message in class 0 means QoS was off: no per-class breakdown.
  if (out.class_totals.size() == 1 && out.class_totals.front().cls == 0) {
    out.class_totals.clear();
  }
  std::sort(out.class_totals.begin(), out.class_totals.end(),
            [](const auto& a, const auto& b) { return a.cls < b.cls; });
  return out;
}

SpanAnalysis analyze_spans(const Tracer& tracer) {
  const std::vector<Event> events = tracer.snapshot();
  return analyze_spans(std::span<const Event>(events.data(), events.size()));
}

void print_duration_histogram(std::ostream& os, const char* title,
                              std::span<const SimDuration> samples_ns) {
  os << title << ":\n";
  if (samples_ns.empty()) {
    os << "  (no samples)\n";
    return;
  }
  std::vector<SimDuration> sorted(samples_ns.begin(), samples_ns.end());
  std::sort(sorted.begin(), sorted.end());
  double sum = 0;
  for (const SimDuration s : sorted) sum += static_cast<double>(s);
  const double mean = sum / static_cast<double>(sorted.size());
  const SimDuration p95 = sorted[(sorted.size() * 95) / 100 == sorted.size()
                                     ? sorted.size() - 1
                                     : (sorted.size() * 95) / 100];
  char line[160];
  std::snprintf(line, sizeof(line),
                "  %zu sample(s): min %.3f  mean %.3f  p95 %.3f  max %.3f us\n",
                sorted.size(), to_usec(sorted.front()), mean / 1e3,
                to_usec(p95), to_usec(sorted.back()));
  os << line;

  // log2 buckets over nanosecond magnitudes, labelled in microseconds.
  constexpr int kBuckets = 64;
  std::vector<std::size_t> counts(kBuckets, 0);
  for (const SimDuration s : sorted) {
    const auto v = static_cast<std::uint64_t>(std::max<SimDuration>(0, s));
    int b = 0;
    while ((1ull << b) <= v && b < kBuckets - 1) ++b;  // v < 2^b
    ++counts[b];
  }
  std::size_t peak = 0;
  for (const std::size_t c : counts) peak = std::max(peak, c);
  for (int b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1)) / 1e3;
    const double hi = static_cast<double>(1ull << b) / 1e3;
    const auto bar = static_cast<std::size_t>(
        std::ceil(40.0 * static_cast<double>(counts[b]) / static_cast<double>(peak)));
    std::snprintf(line, sizeof(line), "  [%9.3f, %9.3f) us  %6zu  ", lo, hi,
                  counts[b]);
    os << line << std::string(bar, '#') << '\n';
  }
}

void SpanAnalysis::dump(std::ostream& os) const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "causal spans — %zu message(s): %u complete, %u incomplete\n",
                messages.size(), complete_count, incomplete_count);
  os << line;
  if (messages.empty()) return;

  os << "\nper-message critical-path attribution (us):\n";
  std::snprintf(line, sizeof(line),
                "  %-5s %4s %9s %5s %3s %9s %8s %8s %8s %8s %9s %8s %8s\n", "msg",
                "node", "bytes", "proto", "ch", "total", "queue", "hshake",
                "stagger", "offload", "wire", "sync", "skew");
  os << line;
  for (const MessageSpans& m : messages) {
    if (!m.complete) {
      std::snprintf(line, sizeof(line), "  %-5llu %4u %9zu %5s  [incomplete: %s]\n",
                    static_cast<unsigned long long>(m.msg_id), m.node, m.bytes,
                    m.rendezvous ? "rdv" : "eager",
                    m.head_evicted ? "head events evicted from bounded tracer"
                                   : "still in flight");
      os << line;
      continue;
    }
    if (m.chunks.empty()) {
      std::snprintf(line, sizeof(line),
                    "  %-5llu %4u %9zu %5s  [no NIC activity recorded]\n",
                    static_cast<unsigned long long>(m.msg_id), m.node, m.bytes,
                    m.rendezvous ? "rdv" : "eager");
      os << line;
      continue;
    }
    const CriticalPath& p = m.path;
    std::snprintf(line, sizeof(line),
                  "  %-5llu %4u %9zu %5s %3zu %9.2f %8.2f %8.2f %8.2f %8.2f "
                  "%9.2f %8.2f %8.2f\n",
                  static_cast<unsigned long long>(m.msg_id), m.node, m.bytes,
                  m.rendezvous ? "rdv" : "eager", m.chunks.size(),
                  to_usec(p.total), to_usec(p.queueing), to_usec(p.handshake),
                  to_usec(p.stagger), to_usec(p.offload_sync), to_usec(p.wire),
                  to_usec(p.completion_sync),
                  m.finish_skew ? to_usec(*m.finish_skew) : 0.0);
    os << line;
  }

  if (complete_count > 0 && totals.total > 0) {
    os << "\ncritical-path layer totals over " << complete_count
       << " complete message(s):\n";
    const auto share = [&](SimDuration d) {
      return 100.0 * static_cast<double>(d) / static_cast<double>(totals.total);
    };
    const struct {
      const char* name;
      SimDuration value;
    } layers[] = {
        {"queueing (submit -> first activity)", totals.queueing},
        {"handshake (RTS -> first chunk)", totals.handshake},
        {"stagger (serial emission launches)", totals.stagger},
        {"offload sync (signal -> PIO start)", totals.offload_sync},
        {"wire (critical chunk on the NIC)", totals.wire},
        {"completion sync (FIN / stragglers)", totals.completion_sync},
    };
    for (const auto& l : layers) {
      std::snprintf(line, sizeof(line), "  %-38s %10.2f us  (%5.1f%%)\n", l.name,
                    to_usec(l.value), share(l.value));
      os << line;
    }
    std::snprintf(line, sizeof(line), "  %-38s %10.2f us  (100.0%%)\n",
                  "total end-to-end latency", to_usec(totals.total));
    os << line;
  }

  if (!class_totals.empty()) {
    os << "\nper-traffic-class attribution (complete messages):\n";
    std::snprintf(line, sizeof(line), "  %-5s %6s %10s %10s %10s %10s\n", "class",
                  "msgs", "total_us", "queue_us", "wire_us", "mean_us");
    os << line;
    for (const ClassTotals& ct : class_totals) {
      const double mean =
          ct.count > 0 ? to_usec(ct.totals.total) / static_cast<double>(ct.count) : 0.0;
      std::snprintf(line, sizeof(line), "  %-5u %6u %10.2f %10.2f %10.2f %10.2f\n",
                    ct.cls, ct.count, to_usec(ct.totals.total),
                    to_usec(ct.totals.queueing), to_usec(ct.totals.wire), mean);
      os << line;
    }
  }

  os << '\n';
  print_duration_histogram(os, "chunk finish-skew (equal-finish property)",
                           std::span<const SimDuration>(skew_samples));
  os << '\n';
  print_duration_histogram(os, "measured TO, offload signal -> PIO start "
                               "(paper: ~3 us)",
                           std::span<const SimDuration>(to_samples));
}

void emit_chrome_spans(ChromeTraceSink& sink, const SpanAnalysis& analysis) {
  char buf[320];
  for (const MessageSpans& m : analysis.messages) {
    if (!m.complete || m.chunks.empty()) continue;
    const double submit_us = static_cast<double>(m.submit) / 1e3;
    const double finish_us = static_cast<double>(m.finish) / 1e3;
    const auto id = static_cast<unsigned long long>(m.msg_id);

    // Nested async span tree: one root per message, one child per nonzero
    // layer. Perfetto stacks "b"/"e" pairs sharing (cat, id).
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"msg %llu\",\"cat\":\"cp\",\"ph\":\"b\","
                  "\"id\":%llu,\"ts\":%.3f,\"pid\":%u,\"tid\":0,"
                  "\"args\":{\"bytes\":%zu,\"chunks\":%zu,\"proto\":\"%s\"}}",
                  id, id, submit_us, m.node, m.bytes, m.chunks.size(),
                  m.rendezvous ? "rdv" : "eager");
    sink.emit(buf);
    const CriticalPath& p = m.path;
    SimTime cursor = m.submit;
    const struct {
      const char* name;
      SimDuration value;
    } layers[] = {
        {"queueing", p.queueing},         {"handshake", p.handshake},
        {"stagger", p.stagger},           {"offload-sync", p.offload_sync},
        {"wire", p.wire},                 {"completion-sync", p.completion_sync},
    };
    for (const auto& l : layers) {
      if (l.value <= 0) continue;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"cp\",\"ph\":\"b\",\"id\":%llu,"
                    "\"ts\":%.3f,\"pid\":%u,\"tid\":0}",
                    l.name, id, static_cast<double>(cursor) / 1e3, m.node);
      sink.emit(buf);
      cursor += l.value;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"cp\",\"ph\":\"e\",\"id\":%llu,"
                    "\"ts\":%.3f,\"pid\":%u,\"tid\":0}",
                    l.name, id, static_cast<double>(cursor) / 1e3, m.node);
      sink.emit(buf);
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"msg %llu\",\"cat\":\"cp\",\"ph\":\"e\","
                  "\"id\":%llu,\"ts\":%.3f,\"pid\":%u,\"tid\":0}",
                  id, id, finish_us, m.node);
    sink.emit(buf);

    // Flow arrows from the submit to each chunk span on its rail track, then
    // into the completion — the causal skeleton overlaid on the NIC lanes.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"msg %llu\",\"cat\":\"cpflow\",\"ph\":\"s\","
                  "\"id\":%llu,\"ts\":%.3f,\"pid\":%u,\"tid\":0}",
                  id, id, submit_us, m.node);
    sink.emit(buf);
    for (const ChunkSpan& c : m.chunks) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"msg %llu\",\"cat\":\"cpflow\",\"ph\":\"t\","
                    "\"id\":%llu,\"ts\":%.3f,\"pid\":%u,\"tid\":%u}",
                    id, id, static_cast<double>(c.start) / 1e3, m.node, c.rail);
      sink.emit(buf);
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"msg %llu\",\"cat\":\"cpflow\",\"ph\":\"f\","
                  "\"bp\":\"e\",\"id\":%llu,\"ts\":%.3f,\"pid\":%u,\"tid\":0}",
                  id, id, finish_us, m.node);
    sink.emit(buf);
  }
}

}  // namespace rails::trace
