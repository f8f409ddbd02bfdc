#include "qos/arbiter.hpp"

#include <algorithm>
#include <ostream>

#include "common/check.hpp"
#include "perf/profiler.hpp"

namespace rails::qos {

namespace {

/// Deficit cap: at most this many rounds' worth of credit can be banked
/// while a class waits for rail slots, bounding the burst it can release.
constexpr double kDeficitCapRounds = 4.0;

}  // namespace

QosArbiter::QosArbiter(const QosConfig& cfg, std::size_t cutoff)
    : cfg_(cfg),
      specs_(cfg.classes.empty() ? builtin_classes() : cfg.classes),
      cutoff_(cutoff) {
  RAILS_CHECK_MSG(!specs_.empty(), "QoS needs at least one traffic class");
  RAILS_CHECK_MSG(cfg_.quantum > 0, "QoS quantum must be positive");
  for (const ClassSpec& spec : specs_) {
    RAILS_CHECK_MSG(spec.weight > 0.0, "QoS class weight must be positive");
    RAILS_CHECK_MSG(spec.queue_capacity >= 1, "QoS class queue capacity must be >= 1");
  }
  states_.resize(specs_.size());
}

const ClassSpec& QosArbiter::spec(ClassId cls) const {
  RAILS_CHECK(cls < specs_.size());
  return specs_[cls];
}

ClassId QosArbiter::resolve(ClassId requested, std::size_t len) const {
  if (requested == kAutoClass) {
    const ClassId cls = classify(len);
    // A trimmed-down class table (fewer than the built-in three) folds the
    // by-size default onto the last class rather than indexing past the end.
    return std::min<ClassId>(cls, static_cast<ClassId>(specs_.size() - 1));
  }
  RAILS_CHECK_MSG(requested < specs_.size(), "send names an unknown traffic class");
  return requested;
}

std::size_t QosArbiter::cost(const core::SendHandle& send) {
  return std::max<std::size_t>(send->len, 1);
}

void QosArbiter::WaitRing::push_back(Waiting w) {
  if (size_ == slots_.size()) {
    // Full: unroll into a ring twice the size, oldest first.
    std::vector<Waiting> grown(std::max<std::size_t>(8, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) % slots_.size()]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }
  slots_[(head_ + size_) % slots_.size()] = std::move(w);
  ++size_;
}

QosArbiter::Waiting QosArbiter::WaitRing::pop_front() {
  Waiting w = std::move(slots_[head_]);
  head_ = (head_ + 1) % slots_.size();
  --size_;
  return w;
}

bool QosArbiter::has_capacity(ClassId cls) const {
  RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
  RAILS_CHECK(cls < states_.size());
  return states_[cls].queue.size() < specs_[cls].queue_capacity;
}

void QosArbiter::note_rejected_full(ClassId cls) {
  RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
  RAILS_CHECK(cls < states_.size());
  count(cls, QosCounter::rejected_full);
}

void QosArbiter::enqueue(ClassId cls, core::SendHandle send, SimTime now) {
  RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
  RAILS_CHECK(cls < states_.size());
  ClassState& cs = states_[cls];
  cs.queue.push_back(Waiting{std::move(send), now});
  ++cs.counters.enqueued;
  cs.counters.depth_hwm = std::max(cs.counters.depth_hwm,
                                   static_cast<std::uint64_t>(cs.queue.size()));
  if (cs.m_depth != nullptr) {
    cs.m_depth->set(static_cast<std::int64_t>(cs.queue.size()));
  }
}

void QosArbiter::pop_grant(ClassId cls, bool aged,
                           std::vector<core::SendHandle>& granted) {
  ClassState& cs = states_[cls];
  Waiting w = cs.queue.pop_front();
  count(cls, QosCounter::granted);
  count(cls, QosCounter::granted_bytes, w.send->len);
  if (aged) count(cls, QosCounter::aged_grants);
  if (cs.m_depth != nullptr) cs.m_depth->set(static_cast<std::int64_t>(cs.queue.size()));
  granted.push_back(std::move(w.send));
}

void QosArbiter::grant(SimTime now, const GrantSink& sink) {
  // Round-local staging, recycled across rounds so a steady grant cadence
  // never allocates. Moved out (not referenced) so a re-entrant grant from
  // a callback sees empty scratch and degrades to allocating, not aliasing.
  std::vector<core::SendHandle> granted = std::move(granted_scratch_);
  granted.clear();
  {
    RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
    // Strict pass: strict-priority classes drain fully; elsewhere only
    // messages past the aging threshold jump their class's deficit. Queues
    // are FIFO, so checking the head suffices.
    for (ClassId cls = 0; cls < states_.size(); ++cls) {
      ClassState& cs = states_[cls];
      if (specs_[cls].strict_priority) {
        while (!cs.queue.empty()) pop_grant(cls, false, granted);
        continue;
      }
      while (!cs.queue.empty() &&
             now - cs.queue.front().enqueued >= cfg_.aging) {
        pop_grant(cls, true, granted);
      }
    }
    // DRR pass: credit only classes that were backlogged entering the pass
    // (classic DRR — an empty class banks nothing).
    for (ClassId cls = 0; cls < states_.size(); ++cls) {
      ClassState& cs = states_[cls];
      if (specs_[cls].strict_priority) continue;
      if (cs.queue.empty()) {
        cs.deficit = 0;
        continue;
      }
      const auto credit = static_cast<std::size_t>(
          specs_[cls].weight * static_cast<double>(cfg_.quantum));
      const auto cap = static_cast<std::size_t>(
          kDeficitCapRounds * specs_[cls].weight * static_cast<double>(cfg_.quantum));
      cs.deficit = std::min(cs.deficit + std::max<std::size_t>(credit, 1), cap);
      while (!cs.queue.empty() && cost(cs.queue.front().send) <= cs.deficit) {
        cs.deficit -= cost(cs.queue.front().send);
        pop_grant(cls, false, granted);
      }
      if (cs.queue.empty()) cs.deficit = 0;
    }
  }
  for (core::SendHandle& send : granted) sink(std::move(send));
  granted.clear();
  granted_scratch_ = std::move(granted);
}

bool QosArbiter::backlog() const {
  RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
  for (const ClassState& cs : states_) {
    if (!cs.queue.empty()) return true;
  }
  return false;
}

std::size_t QosArbiter::depth(ClassId cls) const {
  RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
  RAILS_CHECK(cls < states_.size());
  return states_[cls].queue.size();
}

std::size_t QosArbiter::deficit(ClassId cls) const {
  RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
  RAILS_CHECK(cls < states_.size());
  return states_[cls].deficit;
}

void QosArbiter::note_completion(ClassId cls, bool had_deadline, bool deadline_hit,
                                 SimDuration latency) {
  RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
  RAILS_CHECK(cls < states_.size());
  ClassState& cs = states_[cls];
  if (had_deadline) {
    count(cls, deadline_hit ? QosCounter::deadline_hits : QosCounter::deadline_misses);
  }
  if (cs.m_latency != nullptr && latency >= 0) {
    cs.m_latency->observe(static_cast<std::uint64_t>(latency));
  }
}

void QosArbiter::note_admission_reject(ClassId cls) {
  RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
  RAILS_CHECK(cls < states_.size());
  count(cls, QosCounter::admission_rejects);
}

ClassCounters QosArbiter::counters(ClassId cls) const {
  RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
  RAILS_CHECK(cls < states_.size());
  return states_[cls].counters;
}

void QosArbiter::attach_metrics(telemetry::MetricsRegistry* registry) {
  RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
  const std::size_t rows = std::size(kQosCounters);
  counters_.attach(registry, states_.size() * rows, [&](std::size_t slot) {
    return "qos." + specs_[slot / rows].name + "." + kQosCounters[slot % rows].name;
  });
  for (ClassId cls = 0; cls < states_.size(); ++cls) {
    ClassState& cs = states_[cls];
    const std::string prefix = "qos." + specs_[cls].name + ".";
    cs.m_depth = registry != nullptr ? registry->gauge(prefix + "queue_depth") : nullptr;
    cs.m_latency = registry != nullptr ? registry->histogram(prefix + "latency_ns") : nullptr;
  }
}

void QosArbiter::write_json(std::ostream& os) const {
  RAILS_PERF_LOCK(mu_, perf::Layer::kArbiter);
  os << '[';
  for (ClassId cls = 0; cls < states_.size(); ++cls) {
    const ClassState& cs = states_[cls];
    const ClassCounters& c = cs.counters;
    if (cls != 0) os << ',';
    os << "{\"class\":\"" << specs_[cls].name << "\",\"weight\":" << specs_[cls].weight
       << ",\"strict\":" << (specs_[cls].strict_priority ? "true" : "false")
       << ",\"depth\":" << cs.queue.size() << ",\"depth_hwm\":" << c.depth_hwm
       << ",\"deficit\":" << cs.deficit
       << ",\"enqueued\":" << c.enqueued << ",\"granted\":" << c.granted
       << ",\"granted_bytes\":" << c.granted_bytes
       << ",\"rejected_full\":" << c.rejected_full
       << ",\"aged_grants\":" << c.aged_grants
       << ",\"deadline_hits\":" << c.deadline_hits
       << ",\"deadline_misses\":" << c.deadline_misses
       << ",\"admission_rejects\":" << c.admission_rejects << '}';
  }
  os << ']';
}

}  // namespace rails::qos
