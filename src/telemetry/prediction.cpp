#include "telemetry/prediction.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/check.hpp"

namespace rails::telemetry {

namespace {
// Mixed into per-rail reservoir seeds so rails draw distinct (but fixed,
// deterministic) replacement streams.
constexpr std::uint64_t kReservoirSeed = 0x5eedca11b8a7e5ULL;
}  // namespace

void BoundedReservoir::add(double x) {
  ++seen_;
  if (samples_.size() < cap_) {
    samples_.push_back(x);
    sorted_ = false;
    return;
  }
  // Algorithm R: the new sample replaces a uniformly chosen slot with
  // probability cap/seen, so every sample ever offered is stored with equal
  // probability.
  const std::uint64_t j = rng_.below(seen_);
  if (j < samples_.size()) {
    samples_[j] = x;
    sorted_ = false;
  }
}

double BoundedReservoir::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples_.size() - 1);
  const auto idx = static_cast<std::size_t>(rank + 0.5);
  return samples_[std::min(idx, samples_.size() - 1)];
}

PredictionTracker::PredictionTracker(std::size_t rail_count) {
  RAILS_CHECK(rail_count >= 1);
  rails_.reserve(rail_count);
  for (std::size_t r = 0; r < rail_count; ++r) {
    rails_.emplace_back(kReservoirSeed ^ (r * 0x9e3779b97f4a7c15ULL));
  }
}

void PredictionTracker::record(RailId rail, SimDuration predicted, SimDuration actual) {
  if (rail >= rails_.size()) return;
  PerRail& pr = rails_[rail];
  const double denom = actual > 0 ? static_cast<double>(actual) : 1.0;
  const double signed_err =
      static_cast<double>(actual - predicted) / denom;
  const double rel = std::abs(signed_err);
  pr.rel_error.add(rel);
  pr.bias.add(signed_err);
  pr.abs_error_ns.add(std::abs(static_cast<double>(actual - predicted)));
  pr.rel_samples.add(rel);
}

std::size_t PredictionTracker::samples(RailId rail) const {
  RAILS_CHECK(rail < rails_.size());
  return rails_[rail].rel_error.count();
}

std::size_t PredictionTracker::total_samples() const {
  std::size_t n = 0;
  for (const auto& pr : rails_) n += pr.rel_error.count();
  return n;
}

PredictionTracker::RailAccuracy PredictionTracker::accuracy(RailId rail) const {
  RAILS_CHECK(rail < rails_.size());
  const PerRail& pr = rails_[rail];
  RailAccuracy out;
  out.samples = pr.rel_error.count();
  if (out.samples == 0) return out;
  out.mean_rel_error = pr.rel_error.mean();
  out.p95_rel_error = pr.rel_samples.percentile(95.0);
  out.max_rel_error = pr.rel_error.max();
  out.mean_bias = pr.bias.mean();
  out.mean_abs_error_us = pr.abs_error_ns.mean() / 1e3;
  return out;
}

void PredictionTracker::dump(std::ostream& os) const {
  os << "prediction accuracy (relative error of predicted vs actual completion):\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-6s %9s %10s %10s %10s %10s %14s\n", "rail",
                "samples", "mean", "p95", "max", "bias", "mean abs (us)");
  os << line;
  for (std::size_t r = 0; r < rails_.size(); ++r) {
    const RailAccuracy a = accuracy(static_cast<RailId>(r));
    if (a.samples == 0) {
      std::snprintf(line, sizeof(line), "  %-6zu %9s\n", r, "-");
      os << line;
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "  %-6zu %9zu %9.2f%% %9.2f%% %9.2f%% %+9.2f%% %14.2f\n", r,
                  a.samples, a.mean_rel_error * 100.0, a.p95_rel_error * 100.0,
                  a.max_rel_error * 100.0, a.mean_bias * 100.0, a.mean_abs_error_us);
    os << line;
  }
}

void PredictionTracker::dump_json(std::ostream& os) const {
  os << '{';
  char buf[256];
  for (std::size_t r = 0; r < rails_.size(); ++r) {
    const RailAccuracy a = accuracy(static_cast<RailId>(r));
    std::snprintf(buf, sizeof(buf),
                  "%s\"rail%zu\":{\"samples\":%zu,\"mean_rel_error\":%.6f,"
                  "\"p95_rel_error\":%.6f,\"max_rel_error\":%.6f,"
                  "\"mean_bias\":%.6f,\"mean_abs_error_us\":%.3f}",
                  r == 0 ? "" : ",", r, a.samples, a.mean_rel_error,
                  a.p95_rel_error, a.max_rel_error, a.mean_bias,
                  a.mean_abs_error_us);
    os << buf;
  }
  os << '}';
}

}  // namespace rails::telemetry
