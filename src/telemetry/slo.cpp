#include "telemetry/slo.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <utility>

namespace rails::telemetry {

namespace {

/// Sums per-tick records no older than `horizon` before `now`.
struct WindowSum {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::array<std::uint64_t, Histogram::kBucketCount> buckets{};
};

WindowSum sum_window(const std::deque<SloMonitor::TickRec>&, SimTime, SimDuration);

}  // namespace

SloMonitor::SloMonitor(std::vector<SloSpec> specs) : specs_(std::move(specs)) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    const auto add = [&](bool latency, const char* kind, double threshold) {
      Objective obj;
      obj.spec = i;
      obj.latency = latency;
      obj.alert = alerts_.size();
      objectives_.push_back(std::move(obj));
      AlertState st;
      st.name = spec.cls + "." + kind;
      st.cls = spec.cls;
      st.threshold = threshold;
      alerts_.push_back(std::move(st));
    };
    if (spec.hit_rate > 0) add(false, "hit_rate", spec.fast_burn);
    if (spec.p99_us > 0) add(true, "p99", spec.p99_us);
  }
}

void SloMonitor::bind(const std::vector<std::string>& class_names) {
  for (Objective& obj : objectives_) {
    obj.cls = -1;
    for (std::size_t c = 0; c < class_names.size(); ++c) {
      if (class_names[c] == specs_[obj.spec].cls) {
        obj.cls = static_cast<int>(c);
        break;
      }
    }
  }
}

std::vector<AlertEvent> SloMonitor::observe(SimTime now,
                                            const std::vector<ClassTick>& ticks) {
  std::vector<AlertEvent> events;
  for (Objective& obj : objectives_) {
    if (obj.cls < 0 || static_cast<std::size_t>(obj.cls) >= ticks.size()) continue;
    const ClassTick& tick = ticks[static_cast<std::size_t>(obj.cls)];
    TickRec rec;
    rec.time = now;
    rec.hits = tick.hits;
    rec.misses = tick.misses;
    rec.buckets = tick.buckets;
    obj.history.push_back(rec);
    const SimDuration horizon = specs_[obj.spec].window;
    while (!obj.history.empty() && now - obj.history.front().time > horizon) {
      obj.history.pop_front();
    }
    evaluate(obj, now, events);
  }
  return events;
}

namespace {

WindowSum sum_window(const std::deque<SloMonitor::TickRec>& history, SimTime now,
                     SimDuration horizon) {
  WindowSum w;
  for (auto it = history.rbegin(); it != history.rend(); ++it) {
    if (now - it->time > horizon) break;
    w.hits += it->hits;
    w.misses += it->misses;
    for (unsigned i = 0; i < Histogram::kBucketCount; ++i) {
      w.buckets[i] += it->buckets[i];
    }
  }
  return w;
}

double burn_rate(const WindowSum& w, double target_hit_rate) {
  const std::uint64_t total = w.hits + w.misses;
  if (total == 0) return 0;
  const double error_rate =
      static_cast<double>(w.misses) / static_cast<double>(total);
  const double budget = 1.0 - target_hit_rate;
  return budget <= 0 ? (error_rate > 0 ? 1e9 : 0) : error_rate / budget;
}

std::uint64_t bucket_total(const WindowSum& w) {
  std::uint64_t n = 0;
  for (const auto b : w.buckets) n += b;
  return n;
}

}  // namespace

void SloMonitor::evaluate(Objective& obj, SimTime now, std::vector<AlertEvent>& out) {
  const SloSpec& spec = specs_[obj.spec];
  AlertState& st = alerts_[obj.alert];
  const WindowSum fast = sum_window(obj.history, now, spec.effective_fast_window());
  const WindowSum slow = sum_window(obj.history, now, spec.window);

  bool breach = false;
  if (obj.latency) {
    // p99 objective: windowed p99 recomputed from summed bucket deltas must
    // exceed the target over BOTH windows (the same two-window principle —
    // a single hot tick inside an otherwise healthy slow window is noise).
    const double fast_p99 = bucket_total(fast) == 0
                                ? 0
                                : to_usec(static_cast<SimDuration>(
                                      percentile_from_buckets(fast.buckets, 99)));
    const double slow_p99 = bucket_total(slow) == 0
                                ? 0
                                : to_usec(static_cast<SimDuration>(
                                      percentile_from_buckets(slow.buckets, 99)));
    st.fast_value = fast_p99;
    st.slow_value = slow_p99;
    breach = fast_p99 > spec.p99_us && slow_p99 > spec.p99_us;
  } else {
    const double fast_burn = burn_rate(fast, spec.hit_rate);
    const double slow_burn = burn_rate(slow, spec.hit_rate);
    st.fast_value = fast_burn;
    st.slow_value = slow_burn;
    breach = fast.hits + fast.misses >= spec.min_events &&
             fast_burn >= spec.fast_burn && slow_burn >= spec.slow_burn;
  }

  if (breach) {
    obj.healthy_streak = 0;
    if (!st.firing) {
      st.firing = true;
      st.since = now;
      st.fired_count++;
      alerts_fired_++;
      AlertEvent ev;
      ev.name = st.name;
      ev.cls = st.cls;
      ev.firing = true;
      ev.fast_value = st.fast_value;
      ev.slow_value = st.slow_value;
      char detail[160];
      if (obj.latency) {
        std::snprintf(detail, sizeof(detail),
                      "%s p99 %.1fus over target %.1fus (slow-window p99 %.1fus)",
                      st.cls.c_str(), st.fast_value, spec.p99_us, st.slow_value);
      } else {
        std::snprintf(detail, sizeof(detail),
                      "%s burning error budget %.1fx fast / %.1fx slow "
                      "(target hit rate %.4f)",
                      st.cls.c_str(), st.fast_value, st.slow_value, spec.hit_rate);
      }
      ev.detail = detail;
      out.push_back(std::move(ev));
    }
  } else if (st.firing) {
    // Hysteresis: require clear_patience consecutive healthy evaluations.
    if (++obj.healthy_streak >= spec.clear_patience) {
      st.firing = false;
      st.since = now;
      obj.healthy_streak = 0;
      AlertEvent ev;
      ev.name = st.name;
      ev.cls = st.cls;
      ev.firing = false;
      ev.fast_value = st.fast_value;
      ev.slow_value = st.slow_value;
      ev.detail = st.name + " recovered";
      out.push_back(std::move(ev));
    }
  }
}

bool SloMonitor::any_firing() const {
  for (const AlertState& st : alerts_) {
    if (st.firing) return true;
  }
  return false;
}

void SloMonitor::write_json(std::ostream& os) const {
  os << "{\"alerts\":[";
  for (std::size_t i = 0; i < alerts_.size(); ++i) {
    const AlertState& st = alerts_[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << st.name << "\",\"class\":\"" << st.cls
       << "\",\"firing\":" << (st.firing ? "true" : "false")
       << ",\"fired_count\":" << st.fired_count << ",\"since\":" << st.since
       << ",\"fast\":" << st.fast_value << ",\"slow\":" << st.slow_value
       << ",\"threshold\":" << st.threshold << "}";
  }
  os << "]}";
}

void SloMonitor::dump(std::ostream& os) const {
  if (alerts_.empty()) {
    os << "no SLO objectives configured\n";
    return;
  }
  char line[160];
  std::snprintf(line, sizeof(line), "%-24s %-8s %8s %10s %10s %10s\n", "alert",
                "state", "fired", "fast", "slow", "threshold");
  os << line;
  for (const AlertState& st : alerts_) {
    std::snprintf(line, sizeof(line), "%-24s %-8s %8llu %10.2f %10.2f %10.2f\n",
                  st.name.c_str(), st.firing ? "FIRING" : "ok",
                  static_cast<unsigned long long>(st.fired_count), st.fast_value,
                  st.slow_value, st.threshold);
    os << line;
  }
}

// -- Scorecard ---------------------------------------------------------------

std::vector<ScorecardRow> Scorecard::collect(
    const MetricsRegistry& registry, const std::vector<std::string>& class_names) {
  std::vector<ScorecardRow> rows;
  rows.reserve(class_names.size());
  std::uint64_t total_bytes = 0;
  for (const std::string& cls : class_names) {
    const std::string base = "qos." + cls;
    ScorecardRow row;
    row.cls = cls;
    const auto counter = [&](const char* leaf) -> std::uint64_t {
      const Counter* c = registry.find_counter(base + "." + leaf);
      return c != nullptr ? c->value() : 0;
    };
    row.granted = counter("granted");
    row.granted_bytes = counter("granted_bytes");
    row.deadline_hits = counter("deadline_hits");
    row.deadline_misses = counter("deadline_misses");
    row.shed = counter("rejected_full");
    row.rejects = counter("admission_rejects");
    const std::uint64_t total = row.deadline_hits + row.deadline_misses;
    row.hit_rate = total == 0 ? 1.0
                              : static_cast<double>(row.deadline_hits) /
                                    static_cast<double>(total);
    if (const Histogram* h = registry.find_histogram(base + ".latency_ns")) {
      if (h->count() > 0) {
        row.p50_us = to_usec(static_cast<SimDuration>(h->percentile(50)));
        row.p99_us = to_usec(static_cast<SimDuration>(h->percentile(99)));
      }
    }
    if (const Gauge* g = registry.find_gauge(base + ".queue_depth")) {
      row.queue_depth = g->value();
    }
    total_bytes += row.granted_bytes;
    rows.push_back(std::move(row));
  }
  for (ScorecardRow& row : rows) {
    row.goodput_share = total_bytes == 0
                            ? 0
                            : static_cast<double>(row.granted_bytes) /
                                  static_cast<double>(total_bytes);
  }
  return rows;
}

void Scorecard::render(std::ostream& os, const std::vector<ScorecardRow>& rows) {
  char line[224];
  std::snprintf(line, sizeof(line),
                "%-12s %9s %12s %7s %9s %8s %9s %9s %6s %6s\n", "class",
                "granted", "bytes", "share", "hit_rate", "p50_us", "p99_us",
                "shed", "rej", "depth");
  os << line;
  for (const ScorecardRow& r : rows) {
    std::snprintf(line, sizeof(line),
                  "%-12s %9llu %12llu %6.1f%% %9.4f %8.1f %9.1f %9llu %6llu "
                  "%6lld\n",
                  r.cls.c_str(), static_cast<unsigned long long>(r.granted),
                  static_cast<unsigned long long>(r.granted_bytes),
                  r.goodput_share * 100.0, r.hit_rate, r.p50_us, r.p99_us,
                  static_cast<unsigned long long>(r.shed),
                  static_cast<unsigned long long>(r.rejects),
                  static_cast<long long>(r.queue_depth));
    os << line;
  }
}

void Scorecard::write_json(std::ostream& os, const std::vector<ScorecardRow>& rows) {
  os << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScorecardRow& r = rows[i];
    if (i != 0) os << ",";
    os << "{\"class\":\"" << r.cls << "\",\"granted\":" << r.granted
       << ",\"granted_bytes\":" << r.granted_bytes
       << ",\"goodput_share\":" << r.goodput_share
       << ",\"deadline_hits\":" << r.deadline_hits
       << ",\"deadline_misses\":" << r.deadline_misses
       << ",\"hit_rate\":" << r.hit_rate << ",\"p50_us\":" << r.p50_us
       << ",\"p99_us\":" << r.p99_us << ",\"shed\":" << r.shed
       << ",\"admission_rejects\":" << r.rejects
       << ",\"queue_depth\":" << r.queue_depth << "}";
  }
  os << "]";
}

}  // namespace rails::telemetry
