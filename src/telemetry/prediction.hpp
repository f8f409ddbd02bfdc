// Prediction-accuracy tracking (the paper's Table-style accuracy view).
//
// Every scheduling decision rests on predicted transfer durations — linear
// interpolation over sampled profiles plus per-NIC busy offsets (Fig. 2,
// eq. (1)). This tracker records (predicted, actual) completion pairs per
// rail as transfers really finish and maintains online residual statistics:
// mean/p95 relative error and the signed bias, so a run can report how
// trustworthy its own predictions were.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace rails::telemetry {

/// Fixed-capacity sample store: exact (every sample kept) below `cap`, a
/// uniform Algorithm-R reservoir beyond it — so percentiles are exact for
/// short runs and unbiased estimates on long soaks, while memory stays
/// bounded. The replacement stream is a fixed-seed xoshiro, keeping the DES
/// deterministic.
class BoundedReservoir {
 public:
  explicit BoundedReservoir(std::size_t cap, std::uint64_t seed)
      : cap_(cap), rng_(seed) {}

  void add(double x);
  std::size_t size() const { return samples_.size(); }       ///< stored (≤ cap)
  std::uint64_t seen() const { return seen_; }               ///< ever offered
  bool exact() const { return seen_ <= cap_; }
  double percentile(double p) const;  ///< over the stored samples, lazy sort

 private:
  std::size_t cap_ = 0;
  std::uint64_t seen_ = 0;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  Xoshiro256 rng_;
};

class PredictionTracker {
 public:
  /// Residuals each rail's percentile store keeps (exact below, sampled
  /// beyond).
  static constexpr std::size_t kReservoirCap = 4096;

  explicit PredictionTracker(std::size_t rail_count);

  std::size_t rail_count() const { return rails_.size(); }

  /// Records one completed transfer on `rail`: the duration the estimator
  /// promised vs the duration the fabric delivered (both measured from the
  /// same decision instant). Ignores rails beyond rail_count().
  void record(RailId rail, SimDuration predicted, SimDuration actual);

  std::size_t samples(RailId rail) const;
  std::size_t total_samples() const;

  struct RailAccuracy {
    std::size_t samples = 0;
    double mean_rel_error = 0.0;   ///< mean |actual-predicted| / actual
    double p95_rel_error = 0.0;    ///< 95th percentile of the same
    double max_rel_error = 0.0;
    double mean_bias = 0.0;        ///< mean (actual-predicted)/actual; >0 = optimistic
    double mean_abs_error_us = 0.0;
  };

  RailAccuracy accuracy(RailId rail) const;

  /// Table view, one row per rail.
  void dump(std::ostream& os) const;

  /// Machine-readable snapshot, one object per rail:
  ///   {"rail0":{"samples":N,"mean_rel_error":...,"p95_rel_error":...,
  ///             "max_rel_error":...,"mean_bias":...,"mean_abs_error_us":...},...}
  void dump_json(std::ostream& os) const;

 private:
  struct PerRail {
    explicit PerRail(std::uint64_t seed) : rel_samples(kReservoirCap, seed) {}
    RunningStats rel_error;      ///< |actual-predicted| / actual
    RunningStats bias;           ///< (actual-predicted) / actual
    RunningStats abs_error_ns;   ///< |actual-predicted|
    /// Bounded percentile store (exact below the cap, reservoir beyond);
    /// mutable because percentile() sorts lazily and accuracy() is const.
    mutable BoundedReservoir rel_samples;
  };

  std::vector<PerRail> rails_;
};

}  // namespace rails::telemetry
