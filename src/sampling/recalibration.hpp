// Online profile drift detection and adaptive recalibration.
//
// The paper warns that "the misknowledge of networks' workload may lead to a
// potential underutilization of the links" (§II-A): profiles are sampled once
// at init, so a rail that degrades at runtime keeps receiving oversized
// hetero-split chunks. The Recalibrator closes that loop. Every (predicted,
// actual) completion the engine observes feeds a per-rail drift detector —
// an EWMA of the signed relative bias plus a recent window of absolute
// residuals — behind a trust state machine:
//
//   TRUSTED --sustained drift--> SUSPECT --still out of band--> UNTRUSTED
//      ^                          |    ^                            |
//      |  in band for             |    |  sweep installs            |
//      |  recover_patience        |    |  fresh profile             v
//      +--------------------------+    +--------------------- RESAMPLING
//
// Demotion to SUSPECT applies a cheap multiplicative *scale correction* to
// the rail's profile tables (fast path, no traffic pause). If corrected
// predictions stay out of band the rail is UNTRUSTED and a background
// re-sampling sweep is requested — rate-limited and budgeted so it cannot
// starve application traffic. Strategies consult the trust state: SUSPECT
// rails are down-weighted, UNTRUSTED/RESAMPLING rails push hetero-split back
// to knowledge-free iso weighting. Hysteresis (a dead band between the drift
// and recover thresholds, plus patience counters) keeps a flapping rail from
// oscillating the strategy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sampling/estimator.hpp"
#include "sampling/sampler.hpp"

namespace rails::fabric {
class SimNic;
}

namespace rails::sampling {

enum class TrustState : std::uint8_t {
  kTrusted = 0,    ///< predictions in band; full weight
  kSuspect = 1,    ///< drift detected, scale-corrected; mildly down-weighted
  kUntrusted = 2,  ///< correction did not hold; strategies ignore its numbers
  kResampling = 3  ///< background sweep in flight
};

const char* to_string(TrustState state);

/// Only `enabled` is a cluster-config directive; deployments run the other
/// fields at their defaults, which the unit tests shorten to drive the
/// state machine through its transitions quickly.
struct RecalibrationConfig {
  bool enabled = false;
  /// EWMA smoothing factor for the signed relative bias, in (0, 1].
  double ewma_alpha = 0.25;
  /// Recent-window length (absolute residuals) for the p95 escalation check.
  unsigned window = 32;
  /// Residuals required after a (re)start before any verdict is reached.
  unsigned min_samples = 6;
  /// |EWMA bias| above this counts toward demotion...
  double drift_threshold = 0.25;
  /// ...once it has persisted for this many consecutive residuals.
  unsigned drift_patience = 3;
  /// |EWMA bias| below this counts toward promotion (dead band between the
  /// two thresholds feeds neither streak — the hysteresis that stops flap).
  double recover_threshold = 0.10;
  /// In-band residuals required to promote one level.
  unsigned recover_patience = 6;
  /// A full recent window whose p95 residual exceeds this escalates SUSPECT
  /// to UNTRUSTED even if the EWMA has not settled out of band.
  double untrusted_p95 = 0.75;
  /// Cost multiplier strategies apply to a SUSPECT rail's predictions.
  double suspect_penalty = 1.25;
  /// Scale corrections applied while SUSPECT before the detector concludes
  /// the *shape* changed (not just the scale) and requests a re-sample.
  unsigned max_corrections = 2;
  /// Clamp on the per-rail profile scale.
  double min_scale = 1.0 / 16.0;
  double max_scale = 16.0;
  /// Minimum gap between two scale corrections on one rail.
  SimDuration correction_holdoff = 200'000;  // 200 us
  /// Minimum gap between two re-sampling sweeps on one rail.
  SimDuration resample_interval = 2'000'000;  // 2 ms
  /// Total re-sampling sweeps allowed per run (budget, all rails).
  unsigned resample_budget = 8;
  /// Scheduler-core time charged per sweep (the probe burst is not free).
  SimDuration resample_host_cost = 5'000;  // 5 us
  /// Reduced ladder used by background sweeps (full init ladder is 8 MiB).
  SamplerConfig resample_sampler{1024, 2u * 1024u * 1024u, 1};
};

class Recalibrator {
 public:
  /// What one observation did; the engine turns these into stats/telemetry
  /// and arms a sweep event when `resample_requested` is set.
  struct Outcome {
    bool scale_corrected = false;
    bool resample_requested = false;
    bool state_changed = false;
    bool demoted = false;
    bool promoted = false;
    TrustState state = TrustState::kTrusted;
  };

  struct Stats {
    std::uint64_t observations = 0;
    std::uint64_t corrections = 0;
    std::uint64_t resamples = 0;
    std::uint64_t demotions = 0;
    std::uint64_t promotions = 0;
  };

  /// `estimator` must outlive the recalibrator; corrections are written
  /// straight into its tables so every consumer sees them immediately.
  Recalibrator(Estimator* estimator, RecalibrationConfig config);

  const RecalibrationConfig& config() const { return config_; }
  std::size_t rail_count() const { return rails_.size(); }

  /// Feeds one completed transfer (any protocol) into the drift detector.
  Outcome observe(RailId rail, SimDuration predicted, SimDuration actual, SimTime now);

  // -- trust queries (what strategies consume) -----------------------------
  TrustState trust(RailId rail) const;
  /// Cost multiplier for the rail (1.0 when trusted, `suspect_penalty` when
  /// SUSPECT; UNTRUSTED rails are handled by the iso fallback instead).
  double cost_penalty(RailId rail) const;
  /// True when the rail's numbers should not feed the split solver at all.
  bool compromised(RailId rail) const;

  // -- diagnostics ---------------------------------------------------------
  double drift_score(RailId rail) const;   ///< |EWMA bias|, 0 until seeded
  double signed_drift(RailId rail) const;  ///< raw EWMA bias
  double recent_p95(RailId rail) const;    ///< p95 of the recent |bias| window
  double scale(RailId rail) const;         ///< current profile scale
  const Stats& stats() const { return stats_; }
  unsigned resample_budget_left() const { return budget_left_; }
  /// One status line per rail for railsctl.
  std::string status(RailId rail) const;

  // -- background re-sampling protocol -------------------------------------
  /// True when a sweep of `rail` should run now (requested, budgeted, and
  /// past the rate limit). Engines gate their sweep events on this, which
  /// makes concurrently armed events idempotent.
  bool resample_due(RailId rail, SimTime now) const;
  /// Earliest time a sweep of `rail` could be due (for event scheduling).
  SimTime earliest_resample(RailId rail) const;
  void begin_resample(RailId rail, SimTime now);
  /// Installs the sweep's fresh profile: the estimator's base is replaced,
  /// the scale resets to 1, and the rail re-enters at SUSPECT — trust is
  /// re-earned through the recover streak, never granted back outright.
  void complete_resample(RailId rail, RailProfile fresh, SimTime now);
  /// Marks `rail` as wanting a sweep regardless of its drift state
  /// (railsctl --force-recal).
  void force_resample(RailId rail);

 private:
  struct PerRail {
    TrustState state = TrustState::kTrusted;
    double ewma = 0;
    bool ewma_seeded = false;
    std::vector<double> window;  ///< ring of recent |bias|
    std::size_t window_pos = 0;
    std::size_t window_count = 0;
    unsigned samples = 0;  ///< residuals since the last reset
    unsigned drift_streak = 0;
    unsigned recover_streak = 0;
    unsigned corrections_since_suspect = 0;
    bool resample_wanted = false;
    // "Long ago" sentinel: the first correction/sweep is never rate-limited.
    SimTime last_correction = INT64_MIN / 2;
    SimTime last_resample = INT64_MIN / 2;
    std::uint64_t corrections = 0;
    std::uint64_t resamples = 0;
  };

  void reset_residuals(PerRail& pr);
  void change_state(PerRail& pr, TrustState next, Outcome& out);
  bool try_correct(RailId rail, PerRail& pr, SimTime now, Outcome& out);
  void request_resample(PerRail& pr, Outcome& out);
  static double window_p95(const PerRail& pr);

  Estimator* estimator_;
  RecalibrationConfig config_;
  std::vector<PerRail> rails_;
  Stats stats_;
  unsigned budget_left_ = 0;
};

/// Re-measures one rail *in place* through `SimNic::preview`, which prices a
/// segment with the NIC's live perf scale and any active degrade/latency
/// fault — so the sweep sees the degraded network — without posting traffic
/// or consuming port time. Eager and chunk tables are previewed directly;
/// the rendezvous table is the chunk plus both zero-byte control legs, the
/// same RTS/CTS/DATA decomposition the init-time sampler measures. The
/// eager/rendezvous threshold is re-derived from the measured crossover.
RailProfile resample_rail_via_preview(const fabric::SimNic& nic, SimTime now,
                                      const SamplerConfig& config);

}  // namespace rails::sampling
