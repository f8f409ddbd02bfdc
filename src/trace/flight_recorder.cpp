#include "trace/flight_recorder.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <istream>
#include <ostream>
#include <string_view>
#include <utility>

#include "common/check.hpp"
#include "common/minijson.hpp"
#include "telemetry/metrics.hpp"

namespace rails::trace {

// Per-slot seqlock over all-atomic fields. seq holds ticket*2+1 while a
// writer is mid-record and ticket*2+2 once published; a snapshot reader
// validates seq before and after its field loads and discards the slot on
// mismatch. Every access is an atomic, so concurrent overwrite is a
// discarded read, never a data race (TSan-clean by construction).
struct FlightRecorder::Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<SimTime> time{0};
  std::atomic<std::uint8_t> kind{0};
  std::atomic<std::uint32_t> node{0};
  std::atomic<std::uint32_t> rail{0};
  std::atomic<std::uint64_t> msg_id{0};
  std::atomic<std::int64_t> a{0};
  std::atomic<std::int64_t> b{0};
};

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// The recorder armed for CHECK-failure dumps. A single global (not a
// per-recorder hook) because check_failed takes a plain function pointer.
std::atomic<FlightRecorder*> g_check_recorder{nullptr};

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) {
  const std::size_t cap = round_up_pow2(std::max<std::size_t>(capacity, 2));
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
}

FlightRecorder::~FlightRecorder() {
  FlightRecorder* self = this;
  if (g_check_recorder.compare_exchange_strong(self, nullptr,
                                               std::memory_order_acq_rel)) {
    set_check_failure_hook(nullptr);
  }
}

void FlightRecorder::record(const Event& e) {
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_acq_rel);
  Slot& s = slots_[ticket & mask_];
  s.seq.store(ticket * 2 + 1, std::memory_order_release);
  s.time.store(e.time, std::memory_order_relaxed);
  s.kind.store(static_cast<std::uint8_t>(e.kind), std::memory_order_relaxed);
  s.node.store(static_cast<std::uint32_t>(e.node), std::memory_order_relaxed);
  s.rail.store(static_cast<std::uint32_t>(e.rail), std::memory_order_relaxed);
  s.msg_id.store(e.msg_id, std::memory_order_relaxed);
  s.a.store(e.a, std::memory_order_relaxed);
  s.b.store(e.b, std::memory_order_relaxed);
  s.seq.store(ticket * 2 + 2, std::memory_order_release);

  SimTime prev = last_time_.load(std::memory_order_relaxed);
  while (e.time > prev &&
         !last_time_.compare_exchange_weak(prev, e.time,
                                           std::memory_order_relaxed)) {
  }
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = capacity();
  const std::uint64_t begin = head > cap ? head - cap : 0;
  std::vector<FlightRecord> out;
  out.reserve(static_cast<std::size_t>(head - begin));
  for (std::uint64_t ticket = begin; ticket < head; ++ticket) {
    const Slot& s = slots_[ticket & mask_];
    const std::uint64_t want = ticket * 2 + 2;
    if (s.seq.load(std::memory_order_acquire) != want) continue;
    FlightRecord r;
    r.time = s.time.load(std::memory_order_relaxed);
    r.kind = static_cast<EventKind>(s.kind.load(std::memory_order_relaxed));
    r.node = static_cast<NodeId>(s.node.load(std::memory_order_relaxed));
    r.rail = static_cast<RailId>(s.rail.load(std::memory_order_relaxed));
    r.msg_id = s.msg_id.load(std::memory_order_relaxed);
    r.a = s.a.load(std::memory_order_relaxed);
    r.b = s.b.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != want) continue;
    out.push_back(r);
  }
  return out;
}

void FlightRecorder::set_output(std::string dir, std::string prefix) {
  std::lock_guard<std::mutex> lock(bundle_mu_);
  dir_ = std::move(dir);
  prefix_ = std::move(prefix);
}

void FlightRecorder::set_metrics(const telemetry::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(bundle_mu_);
  metrics_ = registry;
}

void FlightRecorder::set_state_writer(StateWriter writer) {
  std::lock_guard<std::mutex> lock(bundle_mu_);
  state_writer_ = std::move(writer);
}

void FlightRecorder::set_series_writer(StateWriter writer) {
  std::lock_guard<std::mutex> lock(bundle_mu_);
  series_writer_ = std::move(writer);
}

void FlightRecorder::set_rate_limit(unsigned max_bundles, SimDuration min_interval) {
  std::lock_guard<std::mutex> lock(bundle_mu_);
  max_bundles_ = max_bundles;
  min_interval_ = min_interval;
}

std::string FlightRecorder::trigger(const char* reason, const std::string& detail,
                                    SimTime now) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(bundle_mu_);
    const bool limited =
        dir_.empty() || bundles_written_ >= max_bundles_ ||
        (bundles_written_ > 0 && min_interval_ > 0 &&
         now - last_bundle_time_ < min_interval_);
    if (!limited) {
      // Sanitise the reason for use in a file name.
      std::string tag(reason);
      for (char& c : tag) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '-';
      }
      char name[512];
      std::snprintf(name, sizeof(name), "%s/%s-%u-%s.json", dir_.c_str(),
                    prefix_.c_str(), bundles_written_, tag.c_str());
      std::ofstream file(name);
      if (file) {
        write_bundle(file, reason, detail, now);
        if (file.good()) {
          ++bundles_written_;
          last_bundle_time_ = now;
          last_bundle_path_ = name;
          path = name;
        }
      }
    }
  }
  record({.time = now, .kind = EventKind::kTrigger,
          .a = path.empty() ? 0 : 1});  // 1 = a bundle file was written
  return path;
}

void FlightRecorder::write_bundle(std::ostream& os, const char* reason,
                                  const std::string& detail, SimTime now) const {
  os << "{\"postmortem\":{\"format\":1,\"reason\":\""
     << minijson::escape(reason) << "\",\"detail\":\""
     << minijson::escape(detail) << "\",\"time_ns\":" << now;

  const std::vector<FlightRecord> events = snapshot();
  os << ",\"ring\":{\"capacity\":" << capacity()
     << ",\"recorded\":" << total_recorded() << ",\"evicted\":" << evictions()
     << ",\"events\":[";
  bool first = true;
  for (const FlightRecord& r : events) {
    if (!first) os << ',';
    first = false;
    os << "{\"time_ns\":" << r.time << ",\"kind\":\"" << to_string(r.kind)
       << "\",\"node\":" << r.node << ",\"rail\":" << r.rail
       << ",\"msg\":" << r.msg_id << ",\"a\":" << r.a << ",\"b\":" << r.b << '}';
  }
  os << "]}";

  os << ",\"metrics\":";
  if (metrics_ != nullptr) {
    metrics_->dump_json(os);
  } else {
    os << "null";
  }

  os << ",\"state\":";
  if (state_writer_) {
    state_writer_(os);
  } else {
    os << "null";
  }

  if (series_writer_) {
    os << ",\"timeseries\":";
    series_writer_(os);
  }
  os << "}}\n";
}

namespace {

void check_hook_trampoline(const char* cond, const char* file, int line,
                           const char* msg) {
  FlightRecorder* rec = g_check_recorder.load(std::memory_order_acquire);
  if (rec == nullptr) return;
  char detail[512];
  std::snprintf(detail, sizeof(detail), "%s at %s:%d%s%s", cond, file, line,
                msg[0] ? " — " : "", msg);
  // Lift the bundle cap for the crash dump: the death bundle is the one the
  // recorder exists for, even after a fault storm exhausted the budget.
  rec->set_rate_limit(~0u, 0);
  rec->trigger("check-failure", detail, rec->last_time());
}

}  // namespace

void FlightRecorder::install_check_hook() {
  g_check_recorder.store(this, std::memory_order_release);
  set_check_failure_hook(&check_hook_trampoline);
}

void FlightRecorder::uninstall_check_hook() {
  g_check_recorder.store(nullptr, std::memory_order_release);
  set_check_failure_hook(nullptr);
}

// ---------------------------------------------------------------------------
// Postmortem rendering: reads the bundle back through the shared minijson
// reader (common/minijson.hpp) and formats it for humans.

namespace {

using minijson::JsonValue;

void pretty_print(const JsonValue& v, std::ostream& os, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  switch (v.type) {
    case JsonValue::Type::kNull: os << "null"; break;
    case JsonValue::Type::kBool: os << (v.boolean ? "true" : "false"); break;
    case JsonValue::Type::kNumber: {
      char buf[48];
      if (v.number == static_cast<double>(static_cast<long long>(v.number))) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v.number));
      } else {
        std::snprintf(buf, sizeof(buf), "%g", v.number);
      }
      os << buf;
      break;
    }
    case JsonValue::Type::kString: os << v.str; break;
    case JsonValue::Type::kArray: {
      os << '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i != 0) os << ", ";
        pretty_print(v.array[i], os, indent);
      }
      os << ']';
      break;
    }
    case JsonValue::Type::kObject:
      for (const auto& [key, child] : v.object) {
        os << '\n' << pad << key << ": ";
        pretty_print(child, os, indent + 2);
      }
      break;
  }
}

}  // namespace

bool FlightRecorder::render_postmortem(std::istream& is, std::ostream& os) {
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  JsonValue root;
  if (!minijson::parse(text, root)) {
    os << "postmortem: input is not valid JSON\n";
    return false;
  }
  const JsonValue* pm = root.find("postmortem");
  if (pm == nullptr || pm->type != JsonValue::Type::kObject) {
    os << "postmortem: missing top-level \"postmortem\" object\n";
    return false;
  }

  const JsonValue* reason = pm->find("reason");
  const JsonValue* detail = pm->find("detail");
  const JsonValue* time_ns = pm->find("time_ns");
  char line[256];
  os << "postmortem bundle\n";
  os << "  reason: " << (reason != nullptr ? reason->str : "?") << '\n';
  if (detail != nullptr && !detail->str.empty()) {
    os << "  detail: " << detail->str << '\n';
  }
  if (time_ns != nullptr) {
    std::snprintf(line, sizeof(line), "  virtual time: %.3f us\n",
                  time_ns->num_or(0) / 1e3);
    os << line;
  }

  if (const JsonValue* ring = pm->find("ring"); ring != nullptr) {
    const double cap = ring->find("capacity") != nullptr
                           ? ring->find("capacity")->num_or(0) : 0;
    const double rec = ring->find("recorded") != nullptr
                           ? ring->find("recorded")->num_or(0) : 0;
    const double evicted = ring->find("evicted") != nullptr
                               ? ring->find("evicted")->num_or(0) : 0;
    std::snprintf(line, sizeof(line),
                  "  ring: %.0f record(s) ever, %.0f evicted (capacity %.0f)\n",
                  rec, evicted, cap);
    os << line;
    const JsonValue* events = ring->find("events");
    if (events != nullptr && events->type == JsonValue::Type::kArray) {
      os << "\nrecent events (oldest first, " << events->array.size()
         << " retained):\n";
      std::snprintf(line, sizeof(line), "  %12s  %-16s %4s %4s %8s %12s %12s\n",
                    "time (us)", "kind", "node", "rail", "msg", "a", "b");
      os << line;
      for (const JsonValue& e : events->array) {
        const auto field = [&](const char* name) {
          const JsonValue* f = e.find(name);
          return f != nullptr ? f->num_or(0) : 0.0;
        };
        const JsonValue* kind = e.find("kind");
        std::snprintf(line, sizeof(line),
                      "  %12.3f  %-16s %4.0f %4.0f %8.0f %12.0f %12.0f\n",
                      field("time_ns") / 1e3,
                      kind != nullptr ? kind->str.c_str() : "?", field("node"),
                      field("rail"), field("msg"), field("a"), field("b"));
        os << line;
      }
    }
  }

  if (const JsonValue* state = pm->find("state");
      state != nullptr && state->type == JsonValue::Type::kObject) {
    os << "\nengine state at dump:";
    pretty_print(*state, os, 2);
    os << '\n';
  }

  if (const JsonValue* ts = pm->find("timeseries");
      ts != nullptr && ts->type == JsonValue::Type::kObject) {
    const JsonValue* series = ts->find("series");
    const std::size_t nseries =
        series != nullptr && series->type == JsonValue::Type::kArray
            ? series->array.size() : 0;
    std::snprintf(line, sizeof(line),
                  "\nhealth time series: %zu series, %.0f tick(s) at %.1f us\n",
                  nseries,
                  ts->find("ticks") != nullptr ? ts->find("ticks")->num_or(0) : 0,
                  ts->find("interval_us") != nullptr
                      ? ts->find("interval_us")->num_or(0) : 0);
    os << line;
    if (nseries != 0) {
      for (const JsonValue& s : series->array) {
        const JsonValue* name = s.find("name");
        const JsonValue* points = s.find("points");
        std::snprintf(line, sizeof(line),
                      "  %-28s %4zu point(s), stride %-4.0f last %.3f\n",
                      name != nullptr ? name->str.c_str() : "?",
                      points != nullptr ? points->array.size() : 0,
                      s.find("stride") != nullptr ? s.find("stride")->num_or(1) : 1,
                      s.find("last") != nullptr ? s.find("last")->num_or(0) : 0);
        os << line;
      }
    }
  }

  if (const JsonValue* metrics = pm->find("metrics");
      metrics != nullptr && metrics->type == JsonValue::Type::kObject) {
    const JsonValue* counters = metrics->find("counters");
    const JsonValue* gauges = metrics->find("gauges");
    const JsonValue* histos = metrics->find("histograms");
    std::snprintf(line, sizeof(line),
                  "\nmetrics snapshot: %zu counter(s), %zu gauge(s), "
                  "%zu histogram(s)\n",
                  counters != nullptr ? counters->object.size() : 0,
                  gauges != nullptr ? gauges->object.size() : 0,
                  histos != nullptr ? histos->object.size() : 0);
    os << line;
    if (counters != nullptr) {
      for (const auto& [name, v] : counters->object) {
        if (v.num_or(0) == 0) continue;  // nonzero counters only
        std::snprintf(line, sizeof(line), "  %-40s %12.0f\n", name.c_str(),
                      v.num_or(0));
        os << line;
      }
    }
    if (gauges != nullptr) {
      for (const auto& [name, v] : gauges->object) {
        std::snprintf(line, sizeof(line), "  %-40s %12.0f\n", name.c_str(),
                      v.num_or(0));
        os << line;
      }
    }
    if (histos != nullptr) {
      for (const auto& [name, v] : histos->object) {
        const JsonValue* count = v.find("count");
        const JsonValue* mean = v.find("mean");
        std::snprintf(line, sizeof(line), "  %-40s count %-8.0f mean %.1f\n",
                      name.c_str(), count != nullptr ? count->num_or(0) : 0,
                      mean != nullptr ? mean->num_or(0) : 0);
        os << line;
      }
    }
  }
  return true;
}

}  // namespace rails::trace
