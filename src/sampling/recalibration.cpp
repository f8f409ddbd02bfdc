#include "sampling/recalibration.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"
#include "fabric/nic.hpp"

namespace rails::sampling {

const char* to_string(TrustState state) {
  switch (state) {
    case TrustState::kTrusted:
      return "TRUSTED";
    case TrustState::kSuspect:
      return "SUSPECT";
    case TrustState::kUntrusted:
      return "UNTRUSTED";
    case TrustState::kResampling:
      return "RESAMPLING";
  }
  return "?";
}

Recalibrator::Recalibrator(Estimator* estimator, RecalibrationConfig config)
    : estimator_(estimator), config_(std::move(config)) {
  RAILS_CHECK(estimator_ != nullptr);
  RAILS_CHECK_MSG(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0,
                  "recalibration ewma_alpha must be in (0, 1]");
  RAILS_CHECK_MSG(config_.window > 0, "recalibration window must be positive");
  RAILS_CHECK_MSG(config_.drift_threshold > config_.recover_threshold,
                  "drift threshold must exceed the recover threshold");
  rails_.resize(estimator_->rail_count());
  for (auto& pr : rails_) pr.window.assign(config_.window, 0.0);
  budget_left_ = config_.resample_budget;
}

void Recalibrator::reset_residuals(PerRail& pr) {
  // Predictions just changed (correction or fresh profile): every buffered
  // residual was measured against the old tables and is meaningless now.
  pr.ewma = 0;
  pr.ewma_seeded = false;
  pr.window_pos = 0;
  pr.window_count = 0;
  pr.samples = 0;
  pr.drift_streak = 0;
  pr.recover_streak = 0;
}

void Recalibrator::change_state(PerRail& pr, TrustState next, Outcome& out) {
  if (pr.state == next) return;
  const bool demotion = static_cast<int>(next) > static_cast<int>(pr.state);
  pr.state = next;
  pr.drift_streak = 0;
  pr.recover_streak = 0;
  out.state_changed = true;
  if (next == TrustState::kResampling) return;  // transitional, not a verdict
  if (demotion) {
    out.demoted = true;
    ++stats_.demotions;
  } else {
    out.promoted = true;
    ++stats_.promotions;
  }
}

bool Recalibrator::try_correct(RailId rail, PerRail& pr, SimTime now, Outcome& out) {
  if (now - pr.last_correction < config_.correction_holdoff) return false;
  if (pr.corrections_since_suspect >= config_.max_corrections) return false;
  // actual = predicted / (1 - bias), so dividing the profile durations by
  // (1 - bias) — i.e. multiplying the scale — re-centres the residuals.
  const double bias = std::clamp(pr.ewma, -0.9, 0.9);
  const double current = estimator_->profile_scale(rail);
  const double corrected =
      std::clamp(current / (1.0 - bias), config_.min_scale, config_.max_scale);
  if (std::abs(corrected - current) < 1e-9) return false;  // clamped to a no-op
  estimator_->set_profile_scale(rail, corrected);
  pr.last_correction = now;
  ++pr.corrections;
  ++pr.corrections_since_suspect;
  ++stats_.corrections;
  reset_residuals(pr);
  out.scale_corrected = true;
  return true;
}

void Recalibrator::request_resample(PerRail& pr, Outcome& out) {
  if (budget_left_ == 0) return;
  pr.resample_wanted = true;
  out.resample_requested = true;
}

double Recalibrator::window_p95(const PerRail& pr) {
  if (pr.window_count == 0) return 0;
  std::vector<double> sorted(pr.window.begin(),
                             pr.window.begin() + static_cast<std::ptrdiff_t>(pr.window_count));
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      0.95 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

Recalibrator::Outcome Recalibrator::observe(RailId rail, SimDuration predicted,
                                            SimDuration actual, SimTime now) {
  RAILS_CHECK(rail < rails_.size());
  PerRail& pr = rails_[rail];
  Outcome out;
  out.state = pr.state;
  if (!config_.enabled) return out;

  const double denom = actual > 0 ? static_cast<double>(actual) : 1.0;
  const double bias = static_cast<double>(actual - predicted) / denom;
  pr.ewma = pr.ewma_seeded ? config_.ewma_alpha * bias + (1.0 - config_.ewma_alpha) * pr.ewma
                           : bias;
  pr.ewma_seeded = true;
  pr.window[pr.window_pos] = std::abs(bias);
  pr.window_pos = (pr.window_pos + 1) % pr.window.size();
  pr.window_count = std::min(pr.window_count + 1, pr.window.size());
  ++pr.samples;
  ++stats_.observations;
  if (pr.samples < config_.min_samples) return out;

  const double drift = std::abs(pr.ewma);
  if (drift > config_.drift_threshold) {
    ++pr.drift_streak;
    pr.recover_streak = 0;
  } else if (drift < config_.recover_threshold) {
    ++pr.recover_streak;
    pr.drift_streak = 0;
  } else {
    // Dead band: hysteresis. Neither streak advances, so a residual stream
    // hovering between the thresholds can never flip the state.
    pr.drift_streak = 0;
    pr.recover_streak = 0;
  }

  switch (pr.state) {
    case TrustState::kTrusted:
      if (pr.drift_streak >= config_.drift_patience) {
        change_state(pr, TrustState::kSuspect, out);
        pr.corrections_since_suspect = 0;
        try_correct(rail, pr, now, out);
      }
      break;
    case TrustState::kSuspect: {
      const bool window_full = pr.window_count >= pr.window.size();
      const bool still_bad = pr.drift_streak >= config_.drift_patience ||
                             (window_full && window_p95(pr) > config_.untrusted_p95);
      if (still_bad) {
        if (!try_correct(rail, pr, now, out)) {
          // Corrections are exhausted (or clamped) and residuals are still
          // out of band: the profile's *shape* changed, not just its scale.
          change_state(pr, TrustState::kUntrusted, out);
          request_resample(pr, out);
        }
      } else if (pr.recover_streak >= config_.recover_patience) {
        change_state(pr, TrustState::kTrusted, out);
        pr.corrections_since_suspect = 0;
      }
      break;
    }
    case TrustState::kUntrusted:
      // Keep asking until the sweep runs (the engine's event dedups).
      request_resample(pr, out);
      if (pr.recover_streak >= config_.recover_patience)
        change_state(pr, TrustState::kSuspect, out);
      break;
    case TrustState::kResampling:
      break;  // sweep in flight; complete_resample() decides
  }
  out.state = pr.state;
  return out;
}

TrustState Recalibrator::trust(RailId rail) const {
  RAILS_CHECK(rail < rails_.size());
  return rails_[rail].state;
}

double Recalibrator::cost_penalty(RailId rail) const {
  RAILS_CHECK(rail < rails_.size());
  return rails_[rail].state == TrustState::kSuspect ? config_.suspect_penalty : 1.0;
}

bool Recalibrator::compromised(RailId rail) const {
  RAILS_CHECK(rail < rails_.size());
  return rails_[rail].state == TrustState::kUntrusted ||
         rails_[rail].state == TrustState::kResampling;
}

double Recalibrator::drift_score(RailId rail) const {
  RAILS_CHECK(rail < rails_.size());
  return rails_[rail].ewma_seeded ? std::abs(rails_[rail].ewma) : 0.0;
}

double Recalibrator::signed_drift(RailId rail) const {
  RAILS_CHECK(rail < rails_.size());
  return rails_[rail].ewma_seeded ? rails_[rail].ewma : 0.0;
}

double Recalibrator::recent_p95(RailId rail) const {
  RAILS_CHECK(rail < rails_.size());
  return window_p95(rails_[rail]);
}

double Recalibrator::scale(RailId rail) const { return estimator_->profile_scale(rail); }

std::string Recalibrator::status(RailId rail) const {
  RAILS_CHECK(rail < rails_.size());
  const PerRail& pr = rails_[rail];
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "rail %u: %-10s scale %.3f drift %.3f p95 %.3f corrections %llu "
                "resamples %llu",
                rail, to_string(pr.state), scale(rail), drift_score(rail),
                window_p95(pr), static_cast<unsigned long long>(pr.corrections),
                static_cast<unsigned long long>(pr.resamples));
  return buf;
}

bool Recalibrator::resample_due(RailId rail, SimTime now) const {
  RAILS_CHECK(rail < rails_.size());
  const PerRail& pr = rails_[rail];
  return config_.enabled && pr.resample_wanted && pr.state != TrustState::kResampling &&
         budget_left_ > 0 && now - pr.last_resample >= config_.resample_interval;
}

SimTime Recalibrator::earliest_resample(RailId rail) const {
  RAILS_CHECK(rail < rails_.size());
  const PerRail& pr = rails_[rail];
  if (pr.last_resample < 0) return 0;  // never swept: due immediately
  return pr.last_resample + config_.resample_interval;
}

void Recalibrator::begin_resample(RailId rail, SimTime now) {
  RAILS_CHECK_MSG(resample_due(rail, now), "begin_resample without a due sweep");
  PerRail& pr = rails_[rail];
  pr.resample_wanted = false;
  pr.state = TrustState::kResampling;
  --budget_left_;
}

void Recalibrator::complete_resample(RailId rail, RailProfile fresh, SimTime now) {
  RAILS_CHECK(rail < rails_.size());
  PerRail& pr = rails_[rail];
  estimator_->replace_profile(rail, std::move(fresh));
  // Fresh numbers, but trust is re-earned, never granted back outright.
  pr.state = TrustState::kSuspect;
  pr.corrections_since_suspect = 0;
  pr.last_resample = now;
  ++pr.resamples;
  ++stats_.resamples;
  reset_residuals(pr);
}

void Recalibrator::force_resample(RailId rail) {
  RAILS_CHECK(rail < rails_.size());
  rails_[rail].resample_wanted = true;
}

RailProfile resample_rail_via_preview(const fabric::SimNic& nic, SimTime now,
                                      const SamplerConfig& config) {
  const fabric::NetworkModelParams& params = nic.model().params();
  RailProfile rp;
  rp.name = params.name;
  rp.max_eager = params.max_eager;
  const SimTime start = std::max(now, nic.busy_until());

  // Both control legs of a rendezvous ride the eager path with a header-only
  // payload; preview one to price the live handshake cost.
  fabric::Segment ctrl;
  ctrl.kind = fabric::SegKind::kRts;
  ctrl.rail = nic.rail();
  const auto ctrl_times = nic.preview(ctrl, start);
  const SimDuration ctrl_one_way = ctrl_times.deliver_at - ctrl_times.host_start;

  for (const std::size_t size : sample_sizes(config)) {
    if (size <= params.max_eager) {
      fabric::Segment seg;
      seg.kind = fabric::SegKind::kEager;
      seg.rail = nic.rail();
      seg.payload.assign(size, 0);
      const auto t = nic.preview(seg, start);
      rp.eager.add(size, t.deliver_at - t.host_start);
      rp.eager_host.add(size, t.host_end - t.host_start);
    }
    fabric::Segment data;
    data.kind = fabric::SegKind::kData;
    data.rail = nic.rail();
    data.payload.assign(size, 0);
    const auto t = nic.preview(data, start);
    const SimDuration chunk = t.deliver_at - t.host_start;
    rp.rdv_chunk.add(size, chunk);
    rp.rendezvous.add(size, chunk + 2 * ctrl_one_way);
  }

  // Re-derive the eager/rendezvous switch from the measured crossover, the
  // same rule the init-time sampler applies.
  rp.rdv_threshold = rp.max_eager;
  for (const std::size_t size : sample_sizes(config)) {
    if (size > rp.max_eager) break;
    if (rp.rendezvous.estimate(size) < rp.eager.estimate(size)) {
      rp.rdv_threshold = size;
      break;
    }
  }
  return rp;
}

}  // namespace rails::sampling
