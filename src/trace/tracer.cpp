#include "trace/tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/check.hpp"

namespace rails::trace {

ChromeTraceSink::ChromeTraceSink(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

void ChromeTraceSink::emit(const char* record) {
  RAILS_CHECK_MSG(!closed_, "emit() on a closed ChromeTraceSink");
  if (!first_) os_ << ',';
  first_ = false;
  os_ << record;
}

void ChromeTraceSink::close() {
  if (closed_) return;
  closed_ = true;
  os_ << "]}";
}

void Tracer::record(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (max_events_ != 0 && events_.size() == max_events_) {
    events_[ring_pos_] = event;
    ring_pos_ = (ring_pos_ + 1) % max_events_;
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  ring_pos_ = 0;
  dropped_ = 0;
}

std::vector<Event> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.reserve(events_.size());
  for_each([&](const Event& e) { out.push_back(e); });
  return out;
}

std::vector<Event> Tracer::of_kind(EventKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  for_each([&](const Event& e) {
    if (e.kind == kind) out.push_back(e);
  });
  return out;
}

std::optional<MessageTimeline> Tracer::message(NodeId node, std::uint64_t msg_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  MessageTimeline tl;
  tl.msg_id = msg_id;
  bool seen = false;
  for_each([&](const Event& e) {
    if (e.node != node || e.msg_id != msg_id) return;
    seen = true;
    switch (e.kind) {
      case EventKind::kSubmit:
        tl.submit = e.time;
        tl.bytes = e.bytes();
        break;
      case EventKind::kEagerEmit:
      case EventKind::kChunkPosted:
        if (tl.first_emission < 0 || e.time < tl.first_emission) {
          tl.first_emission = e.time;
        }
        ++tl.chunks;
        break;
      case EventKind::kOffloadSignal:
        ++tl.offloaded;
        break;
      case EventKind::kSendComplete:
        tl.complete = e.time;
        break;
      default:
        break;
    }
  });
  if (!seen) return std::nullopt;
  return tl;
}

std::vector<std::uint64_t> Tracer::bytes_per_rail() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out;
  for_each([&](const Event& e) {
    if (e.kind != EventKind::kEagerEmit && e.kind != EventKind::kChunkPosted) return;
    if (e.rail >= out.size()) out.resize(e.rail + 1, 0);
    out[e.rail] += e.bytes();
  });
  return out;
}

std::vector<SimDuration> Tracer::rail_busy_time() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SimDuration> out;
  for_each([&](const Event& e) {
    if (e.kind != EventKind::kEagerEmit && e.kind != EventKind::kChunkPosted) return;
    if (e.rail >= out.size()) out.resize(e.rail + 1, 0);
    out[e.rail] += std::max<SimDuration>(0, e.nic_end() - e.time);
  });
  return out;
}

void Tracer::dump_csv(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "time_ns,node,kind,msg_id,tag,rail,core,bytes,nic_end_ns,class\n";
  for_each([&](const Event& e) {
    os << e.time << ',' << e.node << ',' << to_string(e.kind) << ',' << e.msg_id << ','
       << e.tag << ',' << e.rail << ',' << e.core << ',' << e.bytes() << ',' << e.nic_end()
       << ',' << e.cls << '\n';
  });
}

void Tracer::dump_chrome_trace(std::ostream& os) const {
  ChromeTraceSink sink(os);
  dump_chrome_trace_events(sink);
  sink.close();
}

void Tracer::dump_chrome_trace_events(ChromeTraceSink& sink) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Chrome-trace JSON records: timestamps/durations in microseconds.
  // pid = node, tid = rail, so Perfetto renders one lane per (node, rail) —
  // the same layout as render_gantt, but zoomable and with args attached.
  char buf[256];

  // Name the tracks: one process record per node, one thread record per
  // (node, rail) pair seen in the trace.
  std::vector<NodeId> nodes;
  std::vector<std::pair<NodeId, RailId>> tracks;
  for_each([&](const Event& e) {
    if (std::find(nodes.begin(), nodes.end(), e.node) == nodes.end()) {
      nodes.push_back(e.node);
    }
    const std::pair<NodeId, RailId> key{e.node, e.rail};
    if (std::find(tracks.begin(), tracks.end(), key) == tracks.end()) {
      tracks.push_back(key);
    }
  });
  for (const NodeId node : nodes) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":\"node %u\"}}",
                  node, node);
    sink.emit(buf);
  }
  for (const auto& [node, rail] : tracks) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                  "\"args\":{\"name\":\"rail %u\"}}",
                  node, rail, rail);
    sink.emit(buf);
  }

  for_each([&](const Event& e) {
    const double ts = static_cast<double>(e.time) / 1e3;
    if (e.kind == EventKind::kEagerEmit || e.kind == EventKind::kChunkPosted) {
      const double dur =
          static_cast<double>(std::max<SimDuration>(0, e.nic_end() - e.time)) / 1e3;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"pid\":%u,\"tid\":%u,\"args\":{\"msg_id\":%llu,\"bytes\":%zu,"
                    "\"core\":%u,\"class\":%u}}",
                    to_string(e.kind), ts, dur, e.node, e.rail,
                    static_cast<unsigned long long>(e.msg_id), e.bytes(), e.core, e.cls);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                    "\"pid\":%u,\"tid\":%u,\"args\":{\"msg_id\":%llu,\"bytes\":%zu,"
                    "\"class\":%u}}",
                    to_string(e.kind), ts, e.node, e.rail,
                    static_cast<unsigned long long>(e.msg_id), e.bytes(), e.cls);
    }
    sink.emit(buf);
  });
}

void Tracer::render_gantt(std::ostream& os, unsigned width) const {
  RAILS_CHECK(width >= 8);
  std::lock_guard<std::mutex> lock(mu_);
  SimTime begin = kSimTimeNever;
  SimTime end = 0;
  std::size_t rails = 0;
  for_each([&](const Event& e) {
    if (e.kind != EventKind::kEagerEmit && e.kind != EventKind::kChunkPosted) return;
    begin = std::min(begin, e.time);
    end = std::max(end, e.nic_end());
    rails = std::max<std::size_t>(rails, e.rail + 1);
  });
  if (rails == 0 || end <= begin) {
    os << "(no NIC activity recorded)\n";
    return;
  }
  const double scale = static_cast<double>(width) / static_cast<double>(end - begin);
  for (std::size_t r = 0; r < rails; ++r) {
    std::string lane(width, '.');
    for_each([&](const Event& e) {
      if (e.rail != r) return;
      if (e.kind != EventKind::kEagerEmit && e.kind != EventKind::kChunkPosted) return;
      const auto from = static_cast<std::size_t>(
          static_cast<double>(e.time - begin) * scale);
      auto to = static_cast<std::size_t>(static_cast<double>(e.nic_end() - begin) * scale);
      to = std::min<std::size_t>(std::max(to, from + 1), width);
      const char mark = e.kind == EventKind::kChunkPosted ? '#' : '=';
      for (std::size_t c = from; c < to; ++c) lane[c] = mark;
    });
    os << "rail " << r << " |" << lane << "|\n";
  }
  os << "        " << to_usec(begin) << " us";
  os << std::string(width > 24 ? width - 24 : 1, ' ');
  os << to_usec(end) << " us\n";
}

}  // namespace rails::trace
