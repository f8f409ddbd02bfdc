// Send/receive request state, shared between the engine and the application.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hpp"
#include "core/request_pool.hpp"
#include "fabric/payload.hpp"

namespace rails::core {

/// Wildcards for irecv matching (MPI_ANY_SOURCE / MPI_ANY_TAG analogues).
inline constexpr NodeId kAnySource = ~NodeId{0};
inline constexpr Tag kAnyTag = ~Tag{0};

enum class SendState : std::uint8_t {
  kQueued,    ///< in the pack list, waiting for the strategy
  kRtsSent,   ///< rendezvous: waiting for the receiver's CTS
  kStreaming, ///< rendezvous: DMA chunks in flight
  kDone,
  kFailed,    ///< failover exhausted every retry attempt; will never complete
  kRejected,  ///< QoS deadline admission refused the send at submit time
};

enum class RecvState : std::uint8_t {
  kPosted,   ///< waiting for the first matching fragment / RTS
  kMatched,  ///< bound to a message id; data flowing in
  kDone,
};

// Field order packs the 4-byte fields in pairs: the pools hold one slot per
// send in flight (65k on a 256-node all-to-all), so padding costs memory.
struct SendRequest {
  std::uint64_t id = 0;  ///< engine-unique message id (scoped to the source node)
  NodeId dst = 0;
  /// Traffic class the QoS arbiter resolved at submit (docs/QOS.md);
  /// 0 when the QoS subsystem is disabled.
  std::uint32_t qos_class = 0;
  /// Absolute completion deadline; 0 = none. Admission-checked at submit.
  SimTime deadline = 0;
  Tag tag = 0;
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;

  /// For gathered (iovec) sends on rails without gather/scatter support:
  /// the engine coalesces into this request-owned staging buffer and `data`
  /// points at it.
  std::vector<std::uint8_t> staging;

  /// Rendezvous with reliability off: the pin through which in-flight DMA
  /// chunks read `data` in place. Taken on the first chunk; revoked when
  /// the send completes, rescue-copied when it fails (docs/PROTOCOL.md).
  fabric::Pin* pin = nullptr;

  SendState state = SendState::kQueued;
  bool rendezvous = false;
  std::size_t bytes_posted = 0;

  SimTime submit_time = 0;
  SimTime complete_time = 0;

  /// Number of chunks the message was split into (1 = not split).
  unsigned chunk_count = 0;
  /// Number of chunks submitted from a remote (offloaded) core.
  unsigned offloaded_chunks = 0;

  bool done() const { return state == SendState::kDone; }
  /// Terminal non-completion: failover exhausted or refused at admission.
  bool failed() const {
    return state == SendState::kFailed || state == SendState::kRejected;
  }
  bool rejected() const { return state == SendState::kRejected; }
};

struct RecvRequest {
  std::uint64_t id = 0;
  NodeId src = 0;
  Tag tag = 0;
  std::uint8_t* data = nullptr;
  std::size_t capacity = 0;

  RecvState state = RecvState::kPosted;
  /// Message id this request got bound to on first fragment/RTS.
  std::uint64_t matched_msg = 0;
  std::size_t expected = std::numeric_limits<std::size_t>::max();
  std::size_t bytes_received = 0;

  SimTime post_time = 0;
  SimTime complete_time = 0;

  bool done() const { return state == RecvState::kDone; }
};

/// Resets a recycled send request for reuse. `staging` keeps its capacity
/// so a flow that staged once never re-allocates on later messages. A pin
/// still held (the send never reached a terminal state) is revoked: the
/// buffer it lends is about to be released.
inline void pool_recycle(SendRequest& r) {
  if (r.pin != nullptr) fabric::revoke_pin(r.pin);
  r.id = 0;
  r.dst = 0;
  r.tag = 0;
  r.data = nullptr;
  r.len = 0;
  r.staging.clear();
  r.state = SendState::kQueued;
  r.rendezvous = false;
  r.bytes_posted = 0;
  r.submit_time = 0;
  r.complete_time = 0;
  r.chunk_count = 0;
  r.offloaded_chunks = 0;
  r.qos_class = 0;
  r.deadline = 0;
}

inline void pool_recycle(RecvRequest& r) {
  r.id = 0;
  r.src = 0;
  r.tag = 0;
  r.data = nullptr;
  r.capacity = 0;
  r.state = RecvState::kPosted;
  r.matched_msg = 0;
  r.expected = std::numeric_limits<std::size_t>::max();
  r.bytes_received = 0;
  r.post_time = 0;
  r.complete_time = 0;
}

/// Requests are handed out as generation-tagged pooled handles: the engine
/// recycles them through process-wide slab pools instead of allocating per
/// message (docs/PERF.md).
using SendHandle = PoolHandle<SendRequest>;
using RecvHandle = PoolHandle<RecvRequest>;

inline SendHandle make_send_request() {
  return RequestPool<SendRequest>::instance().acquire();
}
inline RecvHandle make_recv_request() {
  return RequestPool<RecvRequest>::instance().acquire();
}

}  // namespace rails::core
