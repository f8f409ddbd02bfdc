// Segment payload bytes: owned (pooled) storage, or a refcounted read-only
// view.
//
// Eager segments frame their sub-packets into owned storage — the CPU copy
// PIO pays on real hardware. A rendezvous DMA chunk instead borrows the
// bytes it carries, with reliability on or off: the NIC reads the
// application's buffer in place, and the receiver's copy into its posted
// buffer is the only copy, which is the DMA the paper models
// (docs/PROTOCOL.md "Send-buffer contract").
//
// A view never points at its bytes directly. It points at a refcounted Pin
// taken from an immortal slab, and a pin holds one of two things:
//
//  * A lender's buffer (Payload::borrow). The lender can end the loan while
//    views are still in flight. If no view can be read again, it revokes
//    the pin (any later read traps instead of touching freed memory);
//    otherwise it ends the loan with rescue_pin, which copies the lent
//    bytes into the pin only while some other view still holds it. A view
//    that must outlive the loan on its own (a chunk's parked retransmit
//    entry) takes a private copy first: mutable_data(), then share().
//  * Storage a payload gave up (Payload::share). Copies of a shared payload
//    are more references, not more bytes; the last reference to drop hands
//    the storage back to BufferPool. With reliability on, an eager or
//    control segment and its parked retransmit entry share their bytes
//    this way.
//
// Every write to a view copies it into owned storage first (copy-on-write),
// so a corrupt fault never writes the sender's memory or the parked bytes.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

namespace rails::fabric {

/// Bytes shared by in-flight views: a lender's buffer, or shared storage.
struct Pin {
  /// The lender's buffer; then nullptr once revoked (reads trap), or the
  /// rescue copy once the lender failed with views still in flight. For
  /// shared storage, the storage itself.
  const std::uint8_t* bytes = nullptr;
  std::atomic<std::uint32_t> refs{0};
  std::vector<std::uint8_t> rescue;
  /// Shared storage the last reference returns to BufferPool; nullptr for
  /// a loan.
  std::uint8_t* storage = nullptr;
  std::uint32_t storage_cap = 0;
  Pin* next_free = nullptr;
};

/// Process-wide slab of pins: steady-state lending never touches the
/// allocator. Immortal for the same reason as BufferPool — views live in
/// segments, and segments may outlive any engine.
class PinPool {
 public:
  static PinPool& instance();

  /// A pin lending `bytes`; the caller holds its one reference.
  Pin* lend(const std::uint8_t* bytes);
  /// A pin owning pooled `storage` of `cap` bytes; the caller holds its one
  /// reference, and the last unref returns the storage to BufferPool.
  Pin* adopt(std::uint8_t* storage, std::uint32_t cap);
  static void ref(Pin* pin) { pin->refs.fetch_add(1, std::memory_order_relaxed); }
  /// Drops one reference; the last one returns the pin to the slab.
  void unref(Pin* pin);

  /// Pins with at least one reference outstanding.
  std::size_t live() const;
  /// Loans rescue_pin ended by copying the lent bytes (views were still in
  /// flight), since process start.
  std::uint64_t rescues() const { return rescues_.load(std::memory_order_relaxed); }

 private:
  friend void rescue_pin(Pin*& pin, std::size_t len);

  static constexpr std::size_t kSlabPins = 64;

  PinPool() = default;

  mutable std::mutex mu_;
  Pin* free_ = nullptr;
  std::vector<Pin*> slabs_;
  std::size_t live_ = 0;
  std::atomic<std::uint64_t> rescues_{0};
};

/// Ends a loan whose buffer the lender is done with (the send completed):
/// views still in flight trap if read. Drops the lender's reference and
/// nulls `pin`.
void revoke_pin(Pin*& pin);
/// Ends a loan whose buffer may be reused while views that will still be
/// read are in flight (the send failed, or completed with reliability on):
/// copies the first `len` lent bytes into the pin when any view remains,
/// then drops the lender's reference and nulls `pin`.
void rescue_pin(Pin*& pin, std::size_t len);

class Payload {
 public:
  Payload() = default;
  Payload(const Payload& o) { copy_from(o); }
  Payload(Payload&& o) noexcept { steal(o); }
  Payload& operator=(const Payload& o) {
    if (this != &o) {
      release();
      copy_from(o);
    }
    return *this;
  }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~Payload() { release(); }

  /// A read-only view of `n` bytes at `offset` of `pin`'s buffer; takes a
  /// reference on the pin.
  static Payload borrow(Pin* pin, std::size_t offset, std::size_t n);

  /// Turns owned bytes into shared read-only storage: this payload becomes
  /// a view of them, so copying it takes a reference instead of the bytes.
  /// A view or an empty payload is left as it is.
  void share();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Owned capacity; 0 for a view.
  std::size_t capacity() const { return cap_; }
  /// A read-only view: borrowed from a lender, or shared.
  bool borrowed() const { return cap_ == 0 && pin_ != nullptr; }

  const std::uint8_t* data() const {
    if (cap_ > 0) return buf_;
    return pin_ != nullptr ? view_data() : nullptr;
  }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size_; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  // Writes. Each first copies a view into owned storage.

  std::uint8_t* mutable_data();
  /// Empties the payload; owned capacity stays, a view is dropped.
  void clear() {
    if (borrowed()) drop_view();
    size_ = 0;
  }
  void reserve(std::size_t n);
  void push_back(std::uint8_t b) {
    if (size_ >= cap_) grow(std::size_t{size_} + 1);
    buf_[size_++] = b;
  }
  void append(const std::uint8_t* bytes, std::size_t n);
  void assign(std::size_t n, std::uint8_t value) {
    std::uint8_t* out = prepare(n);
    if (n > 0) std::memset(out, value, n);
  }
  template <typename It>
    requires(!std::is_integral_v<It>)
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    std::copy(first, last, prepare(n));
  }

 private:
  friend class PinPool;

  static constexpr std::size_t kMaxBytes = UINT32_MAX;

  const std::uint8_t* view_data() const;
  void copy_from(const Payload& o);
  void steal(Payload& o) {
    if (o.cap_ > 0) {
      buf_ = o.buf_;
    } else {
      pin_ = o.pin_;
    }
    off_ = o.off_;
    size_ = o.size_;
    cap_ = o.cap_;
    o.pin_ = nullptr;
    o.off_ = 0;
    o.size_ = 0;
    o.cap_ = 0;
  }
  void release();
  void drop_view();
  /// Moves the contents into fresh owned storage of `cap` bytes.
  void reallocate(std::size_t cap);
  void grow(std::size_t need) { reallocate(std::max(need, std::size_t{2} * size_)); }
  /// Drops the contents and returns owned storage for exactly `n` bytes.
  std::uint8_t* prepare(std::size_t n);

  union {
    std::uint8_t* buf_;   ///< cap_ > 0: owned storage
    Pin* pin_ = nullptr;  ///< cap_ == 0: the lent buffer, or nullptr (no storage)
  };
  std::uint64_t off_ = 0;  ///< view: byte offset into the pin's buffer
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

// A Segment must stay small enough that the NIC's delivery closure fits
// InlineHandler's inline buffer (fabric.handler_spills == 0).
static_assert(sizeof(Payload) == 24);

}  // namespace rails::fabric
