#include "telemetry/timeseries.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

namespace rails::telemetry {

namespace {

/// Health tick period on the virtual clock.
constexpr SimDuration kInterval = 100_us;
/// Points retained per series; on overflow adjacent pairs are compacted and
/// the effective stride doubles.
constexpr std::size_t kSeriesCapacity = 512;

const char* agg_name(SeriesAgg agg) {
  switch (agg) {
    case SeriesAgg::kMean: return "mean";
    case SeriesAgg::kMax: return "max";
    case SeriesAgg::kLast: return "last";
  }
  return "?";
}

double merge_values(SeriesAgg agg, double a, double b) {
  switch (agg) {
    case SeriesAgg::kMean: return (a + b) / 2.0;
    case SeriesAgg::kMax: return a > b ? a : b;
    case SeriesAgg::kLast: return b;
  }
  return b;
}

void write_double(std::ostream& os, double v) {
  // JSON has no NaN/Inf; clamp to null-free 0 (a tick with no samples).
  if (!(v == v) || v > 1e300 || v < -1e300) v = 0;
  os << v;
}

}  // namespace

// -- Series ------------------------------------------------------------------

Series::Series(std::string name, SeriesAgg agg, std::size_t capacity)
    : name_(std::move(name)), agg_(agg), capacity_(std::max<std::size_t>(capacity, 4)) {
  if (capacity_ % 2 != 0) ++capacity_;
  points_.reserve(capacity_);
}

void Series::push(SimTime t, double v) {
  last_raw_ = v;
  if (stride_ == 1) {
    append(t, v);
    return;
  }
  // Fold raw samples into the pending point until a full stride is covered.
  if (pending_n_ == 0) {
    pending_t_ = t;
    pending_v_ = v;
  } else {
    pending_v_ = agg_ == SeriesAgg::kMean
                     ? (pending_v_ * static_cast<double>(pending_n_) + v) /
                           static_cast<double>(pending_n_ + 1)
                     : merge_values(agg_, pending_v_, v);
  }
  if (++pending_n_ >= stride_) {
    append(pending_t_, pending_v_);
    pending_n_ = 0;
  }
}

void Series::append(SimTime t, double v) {
  if (points_.size() >= capacity_) compact();
  points_.push_back({t, v});
}

void Series::compact() {
  // Merge adjacent pairs in place: N points -> N/2, stride doubles. The
  // buffer keeps spanning the whole run at half the resolution.
  std::size_t out = 0;
  for (std::size_t i = 0; i + 1 < points_.size(); i += 2) {
    points_[out].time = points_[i].time;
    points_[out].value = merge_values(agg_, points_[i].value, points_[i + 1].value);
    ++out;
  }
  if (points_.size() % 2 != 0) points_[out++] = points_.back();
  points_.resize(out);
  stride_ *= 2;
}

void Series::write_json(std::ostream& os) const {
  os << "{\"name\":\"" << name_ << "\",\"agg\":\"" << agg_name(agg_)
     << "\",\"stride\":" << stride_ << ",\"last\":";
  write_double(os, last_raw_);
  os << ",\"points\":[";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (i != 0) os << ",";
    os << "[" << points_[i].time << ",";
    write_double(os, points_[i].value);
    os << "]";
  }
  os << "]}";
}

// -- percentile over raw bucket deltas ---------------------------------------

double percentile_from_buckets(
    const std::array<std::uint64_t, Histogram::kBucketCount>& buckets, double p) {
  std::uint64_t total = 0;
  for (const auto n : buckets) total += n;
  if (total == 0) return 0;
  const double target = p / 100.0 * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (unsigned i = 0; i < Histogram::kBucketCount; ++i) {
    const std::uint64_t n = buckets[i];
    if (n == 0) continue;
    if (static_cast<double>(cum + n) >= target) {
      // Linear interpolation inside the bucket's [lower, upper] span. For a
      // delta array the observed min/max are unknown, so the bucket bounds
      // are the best available range (documented in timeseries.hpp).
      const double lo = static_cast<double>(Histogram::bucket_lower(i));
      const double hi = static_cast<double>(Histogram::bucket_upper(i));
      const double within = (target - static_cast<double>(cum)) / static_cast<double>(n);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    cum += n;
  }
  return static_cast<double>(Histogram::bucket_upper(Histogram::kBucketCount - 1));
}

// -- HealthSampler -----------------------------------------------------------

SimDuration HealthSampler::interval() const { return kInterval; }

void HealthSampler::add_source(Source::Kind kind, std::string series_name,
                               std::string metric, SeriesAgg agg, double scale,
                               int cls, std::string metric2) {
  Source s;
  s.kind = kind;
  s.metric = std::move(metric);
  s.metric2 = std::move(metric2);
  s.scale = scale;
  s.cls = cls;
  sources_.push_back(std::move(s));
  series_.emplace_back(std::move(series_name), agg, kSeriesCapacity);
}

void HealthSampler::attach(MetricsRegistry* registry,
                           std::vector<std::string> class_names,
                           std::uint32_t rail_count) {
  registry_ = registry;
  class_names_ = std::move(class_names);
  rail_count_ = rail_count;
  sources_.clear();
  series_.clear();
  class_ticks_.assign(class_names_.size(), {});
  class_prev_buckets_.assign(class_names_.size(), {});
  class_hists_.assign(class_names_.size(), nullptr);
  class_hits_.assign(class_names_.size(), nullptr);
  class_misses_.assign(class_names_.size(), nullptr);
  class_prev_hits_.assign(class_names_.size(), 0);
  class_prev_misses_.assign(class_names_.size(), 0);
  ticks_ = 0;
  last_tick_time_ = 0;
  if (registry_ == nullptr) return;

  // The curated set. Rates are per-millisecond of virtual time so numbers
  // stay readable at the default 100 us interval.
  add_source(Source::Kind::kCounterRate, "engine.msg_rate", "engine.sends",
             SeriesAgg::kMean);
  add_source(Source::Kind::kCounterRate, "engine.recv_rate", "engine.recvs",
             SeriesAgg::kMean);
  add_source(Source::Kind::kCounterRate, "engine.retransmit_rate",
             "engine.reliability.retransmits", SeriesAgg::kMean);
  add_source(Source::Kind::kCounterRate, "engine.tx_error_rate", "engine.tx_errors",
             SeriesAgg::kMean);
  for (std::uint32_t r = 0; r < rail_count_; ++r) {
    const std::string rail = "engine.rail" + std::to_string(r);
    add_source(Source::Kind::kGauge, rail + ".trust", rail + ".trust",
               SeriesAgg::kLast);
    add_source(Source::Kind::kGauge, rail + ".scale", rail + ".profile_scale_x1000",
               SeriesAgg::kLast, 1e-3);
  }
  for (std::size_t c = 0; c < class_names_.size(); ++c) {
    const std::string base = "qos." + class_names_[c];
    add_source(Source::Kind::kGauge, base + ".queue_depth", base + ".queue_depth",
               SeriesAgg::kMax);
    add_source(Source::Kind::kHistP50, base + ".p50_us", base + ".latency_ns",
               SeriesAgg::kMean, 1.0, static_cast<int>(c));
    add_source(Source::Kind::kHistP99, base + ".p99_us", base + ".latency_ns",
               SeriesAgg::kMean, 1.0, static_cast<int>(c));
    add_source(Source::Kind::kHitRate, base + ".hit_rate", base + ".deadline_hits",
               SeriesAgg::kMean, 1.0, static_cast<int>(c),
               base + ".deadline_misses");
    add_source(Source::Kind::kCounterRate, base + ".shed_rate", base + ".rejected_full",
               SeriesAgg::kMean, 1.0, static_cast<int>(c));
  }
  // The perf self-time gauge exists only when the cycle profiler runs; the
  // lazy re-resolve in sample() picks it up when it appears.
  add_source(Source::Kind::kGauge, "perf.submit_self", "perf.submit.self_cycles",
             SeriesAgg::kLast);
}

void HealthSampler::resolve(Source& s) {
  switch (s.kind) {
    case Source::Kind::kCounterRate:
      if (s.counter == nullptr) s.counter = registry_->find_counter(s.metric);
      break;
    case Source::Kind::kGauge:
      if (s.gauge == nullptr) s.gauge = registry_->find_gauge(s.metric);
      break;
    case Source::Kind::kHistP50:
    case Source::Kind::kHistP99:
      if (s.hist == nullptr) s.hist = registry_->find_histogram(s.metric);
      break;
    case Source::Kind::kHitRate:
      if (s.counter == nullptr) s.counter = registry_->find_counter(s.metric);
      if (s.counter2 == nullptr) s.counter2 = registry_->find_counter(s.metric2);
      break;
  }
}

const std::vector<ClassTick>& HealthSampler::sample(SimTime now) {
  if (registry_ == nullptr) return class_ticks_;
  const double interval_ms =
      static_cast<double>(now > last_tick_time_ ? now - last_tick_time_ : kInterval) / 1e6;

  // Refresh the per-class latency-histogram deltas first; the percentile
  // sources below read from class_ticks_.
  for (std::size_t c = 0; c < class_names_.size(); ++c) {
    ClassTick& tick = class_ticks_[c];
    tick = {};
    if (class_hists_[c] == nullptr) {
      class_hists_[c] = registry_->find_histogram("qos." + class_names_[c] +
                                                  ".latency_ns");
    }
    if (class_hits_[c] == nullptr) {
      class_hits_[c] =
          registry_->find_counter("qos." + class_names_[c] + ".deadline_hits");
    }
    if (class_misses_[c] == nullptr) {
      class_misses_[c] =
          registry_->find_counter("qos." + class_names_[c] + ".deadline_misses");
    }
    if (const Histogram* h = class_hists_[c]) {
      for (unsigned i = 0; i < Histogram::kBucketCount; ++i) {
        const std::uint64_t cur = h->bucket(i);
        tick.buckets[i] = cur - class_prev_buckets_[c][i];
        class_prev_buckets_[c][i] = cur;
        tick.completions += tick.buckets[i];
      }
      if (tick.completions > 0) {
        tick.p50_us = to_usec(
            static_cast<SimDuration>(percentile_from_buckets(tick.buckets, 50)));
        tick.p99_us = to_usec(
            static_cast<SimDuration>(percentile_from_buckets(tick.buckets, 99)));
      }
    }
    if (class_hits_[c] != nullptr) {
      const std::uint64_t cur = class_hits_[c]->value();
      tick.hits = cur - class_prev_hits_[c];
      class_prev_hits_[c] = cur;
    }
    if (class_misses_[c] != nullptr) {
      const std::uint64_t cur = class_misses_[c]->value();
      tick.misses = cur - class_prev_misses_[c];
      class_prev_misses_[c] = cur;
    }
  }

  for (std::size_t i = 0; i < sources_.size(); ++i) {
    Source& s = sources_[i];
    resolve(s);
    double v = 0;
    bool have = false;
    switch (s.kind) {
      case Source::Kind::kCounterRate:
        if (s.counter != nullptr) {
          const std::uint64_t cur = s.counter->value();
          v = static_cast<double>(cur - s.prev) / interval_ms * s.scale;
          s.prev = cur;
          have = true;
        }
        break;
      case Source::Kind::kGauge:
        if (s.gauge != nullptr) {
          v = static_cast<double>(s.gauge->value()) * s.scale;
          have = true;
        }
        break;
      case Source::Kind::kHistP50:
        if (s.cls >= 0 && static_cast<std::size_t>(s.cls) < class_ticks_.size()) {
          v = class_ticks_[static_cast<std::size_t>(s.cls)].p50_us;
          have = true;
        }
        break;
      case Source::Kind::kHistP99:
        if (s.cls >= 0 && static_cast<std::size_t>(s.cls) < class_ticks_.size()) {
          v = class_ticks_[static_cast<std::size_t>(s.cls)].p99_us;
          have = true;
        }
        break;
      case Source::Kind::kHitRate:
        if (s.cls >= 0 && static_cast<std::size_t>(s.cls) < class_ticks_.size()) {
          const ClassTick& tick = class_ticks_[static_cast<std::size_t>(s.cls)];
          const std::uint64_t total = tick.hits + tick.misses;
          // No deadline-tagged completions this tick: report a healthy 1.0
          // so an idle class never reads as an outage.
          v = total == 0 ? 1.0
                         : static_cast<double>(tick.hits) / static_cast<double>(total);
          have = true;
        }
        break;
    }
    if (have) series_[i].push(now, v);
  }
  ++ticks_;
  last_tick_time_ = now;
  return class_ticks_;
}

const Series* HealthSampler::find(std::string_view name) const {
  for (const Series& s : series_) {
    if (s.name() == name) return &s;
  }
  return nullptr;
}

void HealthSampler::write_json(std::ostream& os) const {
  os << "{\"interval_us\":" << to_usec(kInterval) << ",\"ticks\":" << ticks_
     << ",\"series\":[";
  bool first = true;
  for (const Series& s : series_) {
    if (s.empty()) continue;  // unresolved sources (e.g. perf off) stay out
    if (!first) os << ",";
    first = false;
    s.write_json(os);
  }
  os << "]}";
}

}  // namespace rails::telemetry
