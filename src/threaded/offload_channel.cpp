#include "threaded/offload_channel.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/check.hpp"
#include "perf/profiler.hpp"

namespace rails::threaded {

namespace {

/// EventSource draining one rail ring into the channel's reassembly.
class ChunkSource final : public progress::EventSource {
 public:
  ChunkSource(std::string name, SpscQueue<WireChunk>* ring,
              std::function<void(WireChunk&&)> sink)
      : name_(std::move(name)), ring_(ring), sink_(std::move(sink)) {}

  std::string name() const override { return name_; }

  unsigned poll() override {
    unsigned n = 0;
    while (n < 64) {
      auto chunk = ring_->try_pop();
      if (!chunk) break;
      sink_(std::move(*chunk));
      ++n;
    }
    return n;
  }

 private:
  std::string name_;
  SpscQueue<WireChunk>* ring_;
  std::function<void(WireChunk&&)> sink_;
};

}  // namespace

OffloadChannel::OffloadChannel(OffloadChannelConfig config)
    : config_(config),
      sender_pool_(config.workers),
      receiver_pool_(1),
      worker_chunks_(config.workers),
      rail_bytes_(config.rails),
      class_sends_(kClassSlots),
      class_bytes_(kClassSlots),
      rail_enabled_(config.rails),
      rail_weight_milli_(config.rails) {
  RAILS_CHECK(config_.rails >= 1 && config_.workers >= 1);
  rings_.reserve(config_.rails);
  for (unsigned r = 0; r < config_.rails; ++r) {
    rings_.push_back(std::make_unique<SpscQueue<WireChunk>>(config_.ring_depth));
    rail_enabled_[r].store(1, std::memory_order_relaxed);
    rail_weight_milli_[r].store(1000, std::memory_order_relaxed);
    rail_bytes_[r].store(0, std::memory_order_relaxed);
  }
  for (unsigned c = 0; c < kClassSlots; ++c) {
    class_sends_[c].store(0, std::memory_order_relaxed);
    class_bytes_[c].store(0, std::memory_order_relaxed);
  }
}

OffloadChannel::~OffloadChannel() { stop(); }

void OffloadChannel::start(RecvHandler handler) {
  RAILS_CHECK_MSG(!running_.load(), "channel already started");
  handler_ = std::move(handler);
  RAILS_CHECK(handler_ != nullptr);
  sources_.clear();
  for (unsigned r = 0; r < config_.rails; ++r) {
    sources_.push_back(std::make_unique<ChunkSource>(
        "rail" + std::to_string(r), rings_[r].get(),
        [this, r](WireChunk&& chunk) { pump_rail(r, std::move(chunk)); }));
    progress_.add_source(sources_.back().get());
  }
  running_.store(true, std::memory_order_release);
  progress_.start(&receiver_pool_, 0, progress::Context{});
}

void OffloadChannel::stop() {
  if (!running_.exchange(false)) return;
  progress_.stop();
  for (auto& source : sources_) progress_.remove_source(source.get());
}

std::shared_ptr<SendTicket> OffloadChannel::send(Tag tag, const void* data,
                                                 std::size_t len) {
  return send(tag, data, len, 0);
}

std::shared_ptr<SendTicket> OffloadChannel::send(Tag tag, const void* data,
                                                 std::size_t len, unsigned cls) {
  RAILS_CHECK_MSG(running_.load(std::memory_order_acquire), "channel not started");
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const std::uint64_t msg_id = next_msg_id_.fetch_add(1, std::memory_order_relaxed);
  if (m_sends_ != nullptr) m_sends_->inc();
  const unsigned slot = std::min(cls, kClassSlots - 1);
  class_sends_[slot].fetch_add(1, std::memory_order_relaxed);
  class_bytes_[slot].fetch_add(len, std::memory_order_relaxed);
  if (slot < m_class_sends_.size() && m_class_sends_[slot] != nullptr) {
    m_class_sends_[slot]->inc();
    m_class_bytes_[slot]->inc(len);
  }

  // Rails currently marked usable; an all-disabled channel still sends on
  // every rail rather than refusing.
  std::vector<unsigned> usable;
  usable.reserve(config_.rails);
  for (unsigned r = 0; r < config_.rails; ++r) {
    if (rail_enabled_[r].load(std::memory_order_relaxed) != 0) usable.push_back(r);
  }
  if (usable.empty()) {
    for (unsigned r = 0; r < config_.rails; ++r) usable.push_back(r);
  }

  std::vector<unsigned> chunk_rail;
  std::vector<std::size_t> chunk_bytes;
  if (cls != 0 && config_.class_chunk != 0 && len > config_.class_chunk) {
    // Classed bulk path: class_chunk-bounded chunks round-robined over the
    // usable rails, so a concurrent latency-class send only ever waits for
    // one chunk (not the whole message) on any ring.
    const std::size_t cap = config_.class_chunk;
    for (std::size_t offset = 0; offset < len; offset += cap) {
      chunk_rail.push_back(usable[chunk_rail.size() % usable.size()]);
      chunk_bytes.push_back(std::min(cap, len - offset));
    }
  } else {
    // The "split ratio computation" of Fig. 7 — homogeneous rails, so equal
    // chunks by default; a down-weighted (SUSPECT) rail receives a
    // proportionally smaller share of each send.
    unsigned chunks = 1;
    if (len >= config_.min_split) {
      chunks = std::min(static_cast<unsigned>(usable.size()), config_.workers);
    }
    chunk_rail.resize(chunks);
    chunk_bytes.resize(chunks);
    std::vector<double> weight(chunks);
    double weight_sum = 0;
    for (unsigned c = 0; c < chunks; ++c) {
      chunk_rail[c] = usable[c % usable.size()];
      weight[c] =
          static_cast<double>(
              rail_weight_milli_[chunk_rail[c]].load(std::memory_order_relaxed)) /
          1000.0;
      weight_sum += weight[c];
    }
    if (weight_sum <= 0) {
      // Every targeted rail weighted to zero: equal split beats refusing.
      weight.assign(chunks, 1.0);
      weight_sum = chunks;
    }
    std::size_t assigned = 0;
    for (unsigned c = 0; c + 1 < chunks; ++c) {
      chunk_bytes[c] = static_cast<std::size_t>(static_cast<double>(len) * weight[c] /
                                                weight_sum);
      assigned += chunk_bytes[c];
    }
    chunk_bytes[chunks - 1] = len - assigned;
  }
  const auto chunks = static_cast<unsigned>(chunk_rail.size());

  auto ticket = std::shared_ptr<SendTicket>(new SendTicket(chunks));
  // "Requests registration": one tasklet per chunk, each signalled to its
  // own worker core, which performs the copy (the PIO) and the rail
  // submission. The caller returns to computing immediately.
  std::size_t next_offset = 0;
  for (unsigned c = 0; c < chunks; ++c) {
    const std::size_t offset = next_offset;
    const std::size_t n = chunk_bytes[c];
    next_offset += n;
    const unsigned worker = c % config_.workers;
    const unsigned rail = chunk_rail[c];
    rail_bytes_[rail].fetch_add(n, std::memory_order_relaxed);
    // Timestamp the signal only when a histogram is attached — the detached
    // hot path must not pay for a clock read.
    const auto signalled = m_signal_delay_ != nullptr
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
    sender_pool_.submit_to(
        worker, rt::Tasklet(
                    [this, ticket, bytes, msg_id, tag, len, offset, n, rail, worker,
                     signalled] {
                      RAILS_PERF_SCOPE(perf::Layer::kOffload);
                      if (m_signal_delay_ != nullptr) {
                        const auto delay =
                            std::chrono::steady_clock::now() - signalled;
                        m_signal_delay_->observe(static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(
                                delay)
                                .count()));
                      }
                      WireChunk chunk;
                      chunk.msg_id = msg_id;
                      chunk.tag = tag;
                      chunk.total = len;
                      chunk.offset = offset;
                      chunk.bytes.resize(n);
                      if (n > 0) std::memcpy(chunk.bytes.data(), bytes + offset, n);
                      while (!rings_[rail]->try_push(std::move(chunk))) {
                        std::this_thread::yield();
                      }
                      if (m_chunks_ != nullptr) {
                        m_chunks_->inc();
                        m_ring_hwm_->update_max(rings_[rail]->size());
                      }
                      if (flight_ != nullptr) {
                        flight_->record({.time = flight_now(),
                                         .kind = trace::EventKind::kOffloadPush,
                                         .msg_id = msg_id,
                                         .rail = static_cast<RailId>(rail),
                                         .a = static_cast<std::int64_t>(n),
                                         .b = worker});
                      }
                      worker_chunks_[worker].fetch_add(1, std::memory_order_relaxed);
                      ticket->remaining_.fetch_sub(1, std::memory_order_acq_rel);
                    },
                    rt::TaskPriority::kTasklet));
  }
  return ticket;
}

void OffloadChannel::pump_rail(unsigned rail, WireChunk&& chunk) {
  (void)rail;
  std::vector<std::uint8_t> completed;
  Tag tag = 0;
  {
    std::lock_guard<std::mutex> lock(reassembly_mutex_);
    Reassembly& re = reassembly_[chunk.msg_id];
    re.tag = chunk.tag;  // every chunk carries it; unconditional covers len==0
    if (re.buffer.size() != chunk.total) re.buffer.assign(chunk.total, 0);
    RAILS_CHECK(chunk.offset + chunk.bytes.size() <= re.buffer.size() ||
                chunk.total == 0);
    if (!chunk.bytes.empty()) {
      std::memcpy(re.buffer.data() + chunk.offset, chunk.bytes.data(),
                  chunk.bytes.size());
    }
    re.received += chunk.bytes.size();
    if (re.received == chunk.total) {
      completed = std::move(re.buffer);
      tag = re.tag;
      reassembly_.erase(chunk.msg_id);
    } else {
      return;
    }
  }
  handler_(tag, std::move(completed));
}

void OffloadChannel::set_metrics(telemetry::MetricsRegistry* registry) {
  RAILS_CHECK_MSG(!running_.load(std::memory_order_acquire),
                  "attach/detach metrics before start()");
  sender_pool_.set_metrics(registry);
  progress_.set_metrics(registry);
  if (registry == nullptr) {
    m_sends_ = nullptr;
    m_chunks_ = nullptr;
    m_ring_hwm_ = nullptr;
    m_signal_delay_ = nullptr;
    m_class_sends_.clear();
    m_class_bytes_.clear();
    return;
  }
  m_sends_ = registry->counter("offload.sends");
  m_chunks_ = registry->counter("offload.chunks");
  m_ring_hwm_ = registry->gauge("offload.ring_hwm");
  m_signal_delay_ = registry->histogram("offload.signal_delay_ns");
  m_class_sends_.assign(kClassSlots, nullptr);
  m_class_bytes_.assign(kClassSlots, nullptr);
  for (unsigned c = 0; c < kClassSlots; ++c) {
    const std::string prefix = "offload.class" + std::to_string(c);
    m_class_sends_[c] = registry->counter(prefix + ".sends");
    m_class_bytes_[c] = registry->counter(prefix + ".bytes");
  }
}

void OffloadChannel::set_flight_recorder(trace::FlightRecorder* recorder) {
  RAILS_CHECK_MSG(!running_.load(std::memory_order_acquire),
                  "attach/detach the flight recorder before start()");
  flight_ = recorder;
  flight_epoch_.store(-1, std::memory_order_relaxed);
}

SimTime OffloadChannel::flight_now() {
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count();
  std::int64_t epoch = flight_epoch_.load(std::memory_order_relaxed);
  if (epoch < 0) {
    // First record wins the race to define t=0; losers reuse its epoch.
    std::int64_t expected = -1;
    if (!flight_epoch_.compare_exchange_strong(expected, wall,
                                               std::memory_order_acq_rel)) {
      epoch = expected;
    } else {
      epoch = wall;
    }
  }
  return static_cast<SimTime>(wall - epoch);
}

void OffloadChannel::set_rail_enabled(unsigned rail, bool enabled) {
  RAILS_CHECK(rail < config_.rails);
  rail_enabled_[rail].store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool OffloadChannel::rail_enabled(unsigned rail) const {
  RAILS_CHECK(rail < config_.rails);
  return rail_enabled_[rail].load(std::memory_order_relaxed) != 0;
}

void OffloadChannel::set_rail_weight(unsigned rail, double weight) {
  RAILS_CHECK(rail < config_.rails);
  const double clamped = std::min(1.0, std::max(0.0, weight));
  rail_weight_milli_[rail].store(static_cast<std::uint32_t>(clamped * 1000.0),
                                 std::memory_order_relaxed);
}

double OffloadChannel::rail_weight(unsigned rail) const {
  RAILS_CHECK(rail < config_.rails);
  return static_cast<double>(rail_weight_milli_[rail].load(std::memory_order_relaxed)) /
         1000.0;
}

std::vector<std::uint64_t> OffloadChannel::chunks_per_worker() const {
  std::vector<std::uint64_t> out;
  out.reserve(worker_chunks_.size());
  for (const auto& counter : worker_chunks_) {
    out.push_back(counter.load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<std::uint64_t> OffloadChannel::bytes_per_rail() const {
  std::vector<std::uint64_t> out;
  out.reserve(rail_bytes_.size());
  for (const auto& counter : rail_bytes_) {
    out.push_back(counter.load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<std::uint64_t> OffloadChannel::bytes_per_class() const {
  std::vector<std::uint64_t> out;
  out.reserve(class_bytes_.size());
  for (const auto& counter : class_bytes_) {
    out.push_back(counter.load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<std::uint64_t> OffloadChannel::sends_per_class() const {
  std::vector<std::uint64_t> out;
  out.reserve(class_sends_.size());
  for (const auto& counter : class_sends_) {
    out.push_back(counter.load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace rails::threaded
