// Weighted deficit-round-robin arbiter over per-class submit queues
// (docs/QOS.md).
//
// Sits between the application submit path and the engine's strategy layer:
// isend() enqueues into the class queue instead of the pack list, and each
// scheduler activation asks the arbiter for one grant round. A round is
//
//   1. strict pass   — strict-priority classes (LATENCY) drain fully, and
//                      any message older than the aging threshold is
//                      granted regardless of its class's deficit
//                      (starvation protection);
//   2. DRR pass      — every backlogged non-strict class is credited
//                      weight * quantum bytes of deficit (capped at four
//                      rounds' worth so an idle period cannot bank an
//                      unbounded burst), then grants from its queue head
//                      while the head's cost fits the deficit.
//
// Under saturation the rounds are paced by NIC-idle events, so granted
// bytes converge to the weight ratio; on an idle fabric repeated rounds
// drain everything immediately — the arbiter is work-conserving.
//
// Bounded queues give backpressure: has_capacity()/enqueue() implement
// try_send, so producers shed load instead of growing memory without bound.
//
// Thread safety: every method is serialised on an internal mutex and the
// grant callback is invoked with the lock released, so real threads (tests
// under TSan) may produce concurrently with a draining consumer. The DES
// engine is single-threaded; the lock is uncontended there.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <iterator>
#include <mutex>
#include <vector>

#include "core/message.hpp"
#include "qos/traffic_class.hpp"
#include "telemetry/counter_mirror.hpp"
#include "telemetry/metrics.hpp"

namespace rails::qos {

/// The arbiter's per-class counter table (docs/OBSERVABILITY.md). One row
/// per counter, X(ClassCounters field): the row declares the field, its
/// QosCounter id and the registry counter "qos.<class>.<field>" that
/// attach_metrics resolves for it, and QosArbiter::count() bumps both.
#define RAILS_QOS_CLASS_COUNTERS(X)                                            \
  X(rejected_full)        /* try_isend refusals (queue at capacity) */         \
  X(granted)              /* sends handed to the strategy layer */             \
  X(granted_bytes)                                                             \
  X(aged_grants)          /* grants escalated by starvation aging */           \
  X(deadline_hits)                                                             \
  X(deadline_misses)                                                           \
  X(admission_rejects)

/// Per-class accounting, snapshot via QosArbiter::counters().
struct ClassCounters {
  std::uint64_t enqueued = 0;  ///< sends admitted into the queue
#define RAILS_QOS_FIELD(field) std::uint64_t field = 0;
  RAILS_QOS_CLASS_COUNTERS(RAILS_QOS_FIELD)
#undef RAILS_QOS_FIELD
  std::uint64_t depth_hwm = 0;  ///< queue-depth high-water mark
};

enum class QosCounter : std::size_t {
#define RAILS_QOS_ID(field) field,
  RAILS_QOS_CLASS_COUNTERS(RAILS_QOS_ID)
#undef RAILS_QOS_ID
};

struct QosCounterRow {
  std::uint64_t ClassCounters::*field;
  const char* name;  ///< registry name after "qos.<class>."
};
inline constexpr QosCounterRow kQosCounters[] = {
#define RAILS_QOS_ROW(field) {&ClassCounters::field, #field},
    RAILS_QOS_CLASS_COUNTERS(RAILS_QOS_ROW)
#undef RAILS_QOS_ROW
};

class QosArbiter {
 public:
  using GrantSink = std::function<void(core::SendHandle)>;

  /// `cutoff` is the size boundary of the default classification; the
  /// engine passes its eager/rendezvous threshold.
  QosArbiter(const QosConfig& cfg, std::size_t cutoff);

  std::size_t class_count() const { return specs_.size(); }
  const ClassSpec& spec(ClassId cls) const;
  std::size_t cutoff() const { return cutoff_; }

  /// Default class by size: len >= cutoff() -> kBulk, else kLatency.
  ClassId classify(std::size_t len) const { return default_class(len, cutoff_); }
  /// kAutoClass -> classify(len); explicit ids are range-checked.
  ClassId resolve(ClassId requested, std::size_t len) const;

  /// try_send capacity probe. note_rejected_full() records the refusal.
  bool has_capacity(ClassId cls) const;
  void note_rejected_full(ClassId cls);

  /// Admits one send (never refuses — callers wanting the bound use
  /// has_capacity first).
  void enqueue(ClassId cls, core::SendHandle send, SimTime now);

  /// One arbitration round; invokes `sink` once per granted send, in grant
  /// order.
  void grant(SimTime now, const GrantSink& sink);

  bool backlog() const;
  std::size_t depth(ClassId cls) const;
  /// Current DRR deficit in bytes (diagnostics / railsctl qos).
  std::size_t deficit(ClassId cls) const;
  /// Completion/admission bookkeeping fed back by the engine.
  void note_completion(ClassId cls, bool had_deadline, bool deadline_hit,
                       SimDuration latency);
  void note_admission_reject(ClassId cls);

  ClassCounters counters(ClassId cls) const;

  /// Resolves per-class metric handles ("qos.<class>.*"); nullptr detaches.
  void attach_metrics(telemetry::MetricsRegistry* registry);

  /// Per-class JSON array for `railsctl metrics --json` / `railsctl qos`.
  void write_json(std::ostream& os) const;

 private:
  struct Waiting {
    core::SendHandle send;
    SimTime enqueued = 0;
  };
  /// A class's FIFO: a ring over storage it keeps, so once it has grown to
  /// the class's peak depth a steady stream never allocates.
  class WaitRing {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    const Waiting& front() const { return slots_[head_]; }
    void push_back(Waiting w);
    Waiting pop_front();

   private:
    std::vector<Waiting> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  struct ClassState {
    WaitRing queue;
    std::size_t deficit = 0;
    ClassCounters counters;
    telemetry::Gauge* m_depth = nullptr;
    telemetry::Histogram* m_latency = nullptr;
  };

  /// The one bump per counted class event: the ClassCounters field of the
  /// row, then its registry mirror (when attached). Caller holds mu_.
  void count(ClassId cls, QosCounter c, std::uint64_t n = 1) {
    const auto row = static_cast<std::size_t>(c);
    states_[cls].counters.*kQosCounters[row].field += n;
    counters_.add(cls * std::size(kQosCounters) + row, n);
  }

  /// Byte cost of one grant (zero-length sends still cost one unit).
  static std::size_t cost(const core::SendHandle& send);
  /// Pops the queue head into `granted`. Caller holds mu_.
  void pop_grant(ClassId cls, bool aged, std::vector<core::SendHandle>& granted);

  QosConfig cfg_;
  std::vector<ClassSpec> specs_;
  std::size_t cutoff_;
  mutable std::mutex mu_;
  std::vector<ClassState> states_;
  telemetry::CounterMirror counters_;  ///< slot = class * rows + row
  /// grant()-round staging, recycled between rounds (capacity kept).
  std::vector<core::SendHandle> granted_scratch_;
};

}  // namespace rails::qos
