#include "fabric/payload.hpp"

#include "common/check.hpp"
#include "fabric/buffer_pool.hpp"

namespace rails::fabric {

PinPool& PinPool::instance() {
  static PinPool* pool = new PinPool();
  return *pool;
}

Pin* PinPool::lend(const std::uint8_t* bytes) {
  Pin* pin = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_ == nullptr) {
      auto* slab = new Pin[kSlabPins];
      slabs_.push_back(slab);
      for (std::size_t i = 0; i < kSlabPins; ++i) {
        slab[i].next_free = free_;
        free_ = &slab[i];
      }
    }
    pin = free_;
    free_ = pin->next_free;
    ++live_;
  }
  pin->next_free = nullptr;
  pin->bytes = bytes;
  pin->refs.store(1, std::memory_order_relaxed);
  return pin;
}

Pin* PinPool::adopt(std::uint8_t* storage, std::uint32_t cap) {
  Pin* pin = lend(storage);
  pin->storage = storage;
  pin->storage_cap = cap;
  return pin;
}

void PinPool::unref(Pin* pin) {
  if (pin->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (pin->storage != nullptr) {
    Payload owned;
    owned.buf_ = pin->storage;
    owned.cap_ = pin->storage_cap;
    pin->storage = nullptr;
    pin->storage_cap = 0;
    recycle_payload(std::move(owned));
  }
  pin->bytes = nullptr;
  pin->rescue = {};  // failures are rare; do not retain a message-sized copy
  std::lock_guard<std::mutex> lock(mu_);
  pin->next_free = free_;
  free_ = pin;
  --live_;
}

std::size_t PinPool::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

void revoke_pin(Pin*& pin) {
  pin->bytes = nullptr;
  PinPool::instance().unref(pin);
  pin = nullptr;
}

void rescue_pin(Pin*& pin, std::size_t len) {
  if (pin->refs.load(std::memory_order_acquire) > 1) {
    pin->rescue.assign(pin->bytes, pin->bytes + len);
    pin->bytes = pin->rescue.data();
    PinPool::instance().rescues_.fetch_add(1, std::memory_order_relaxed);
  }
  PinPool::instance().unref(pin);
  pin = nullptr;
}

Payload Payload::borrow(Pin* pin, std::size_t offset, std::size_t n) {
  RAILS_CHECK(pin != nullptr && pin->bytes != nullptr);
  RAILS_CHECK_MSG(n <= kMaxBytes, "payload larger than 4 GiB");
  PinPool::ref(pin);
  Payload p;
  p.pin_ = pin;
  p.off_ = offset;
  p.size_ = static_cast<std::uint32_t>(n);
  return p;
}

void Payload::share() {
  if (cap_ == 0 || size_ == 0) return;
  pin_ = PinPool::instance().adopt(buf_, cap_);
  off_ = 0;
  cap_ = 0;
}

const std::uint8_t* Payload::view_data() const {
  RAILS_CHECK_MSG(pin_->bytes != nullptr,
                  "read through a revoked pin: the sender's buffer was released");
  return pin_->bytes + off_;
}

void Payload::copy_from(const Payload& o) {
  if (o.borrowed()) {
    PinPool::ref(o.pin_);
    pin_ = o.pin_;
    off_ = o.off_;
    size_ = o.size_;
    return;
  }
  if (o.size_ > 0) {
    buf_ = new std::uint8_t[o.size_];
    std::memcpy(buf_, o.buf_, o.size_);
    size_ = o.size_;
    cap_ = o.size_;
  }
}

void Payload::release() {
  if (cap_ > 0) {
    delete[] buf_;
  } else if (pin_ != nullptr) {
    PinPool::instance().unref(pin_);
  }
  pin_ = nullptr;
  off_ = 0;
  size_ = 0;
  cap_ = 0;
}

void Payload::drop_view() {
  PinPool::instance().unref(pin_);
  pin_ = nullptr;
  off_ = 0;
}

void Payload::reallocate(std::size_t cap) {
  RAILS_CHECK_MSG(cap <= kMaxBytes, "payload larger than 4 GiB");
  RAILS_CHECK(cap >= size_ && cap > 0);
  auto* fresh = new std::uint8_t[cap];
  if (size_ > 0) std::memcpy(fresh, data(), size_);
  const std::uint32_t size = size_;
  release();
  buf_ = fresh;
  size_ = size;
  cap_ = static_cast<std::uint32_t>(cap);
}

std::uint8_t* Payload::mutable_data() {
  if (borrowed()) {
    // The private copy comes from the pool, like every segment's storage.
    Payload copy = acquire_payload(size_);
    copy.append(data(), size_);
    *this = std::move(copy);
  }
  return cap_ > 0 ? buf_ : nullptr;
}

void Payload::reserve(std::size_t n) {
  if (borrowed()) {
    reallocate(std::max<std::size_t>({n, size_, 1}));
  } else if (n > cap_) {
    reallocate(n);
  }
}

void Payload::append(const std::uint8_t* bytes, std::size_t n) {
  if (n == 0) return;
  if (std::size_t{size_} + n > cap_) grow(std::size_t{size_} + n);
  std::memcpy(buf_ + size_, bytes, n);
  size_ += static_cast<std::uint32_t>(n);
}

std::uint8_t* Payload::prepare(std::size_t n) {
  RAILS_CHECK_MSG(n <= kMaxBytes, "payload larger than 4 GiB");
  if (borrowed()) drop_view();
  if (n > cap_) {
    release();
    buf_ = new std::uint8_t[n];
    cap_ = static_cast<std::uint32_t>(n);
  }
  size_ = static_cast<std::uint32_t>(n);
  return cap_ > 0 ? buf_ : nullptr;
}

}  // namespace rails::fabric
