// Growable FIFO ring of packets, bounded by its queue's capacity.
//
// A ring allocates nothing until its first push, then doubles from 8 slots
// up to the capacity as its occupancy climbs, so a queue holds storage for
// its high-water mark rather than for its configured buffer: data-center
// transports keep queues short, and a strict-priority bank's classes share
// one buffer, so most classes never come near it. Between growths a push or
// pop is head/count arithmetic on one array — single indirection and no
// per-packet heap traffic (std::deque churns a storage block roughly every
// 64 entries and double-indirects on every access, which shows up in the
// per-hop path).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "net/packet.h"
#include "sim/dcheck.h"

namespace pase::net {

class PacketRing {
 public:
  explicit PacketRing(std::size_t capacity)
      : cap_(static_cast<std::uint32_t>(capacity)) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == cap_; }
  std::size_t capacity() const { return cap_; }
  // Bytes of slot storage held (grows with the high-water mark).
  std::size_t buffer_bytes() const { return slots_ * sizeof(PacketPtr); }

  void push_back(PacketPtr p) {
    PASE_DCHECK(!full() && "push into a full PacketRing");
    if (count_ == slots_) [[unlikely]] grow();
    std::uint32_t tail = head_ + count_;
    if (tail >= slots_) tail -= slots_;
    buf_[tail] = std::move(p);
    ++count_;
  }

  PacketPtr pop_front() {
    PASE_DCHECK(!empty() && "pop from an empty PacketRing");
    PacketPtr p = std::move(buf_[head_]);
    if (++head_ == slots_) head_ = 0;
    --count_;
    return p;
  }

 private:
  static constexpr std::uint32_t kMinSlots = 8;

  // Unwraps the FIFO into a buffer twice the size (capped at cap_).
  void grow() {
    const std::uint32_t n = std::min(cap_, std::max(kMinSlots, slots_ * 2));
    auto next = std::make_unique<PacketPtr[]>(n);
    for (std::uint32_t i = 0; i < count_; ++i) {
      std::uint32_t from = head_ + i;
      if (from >= slots_) from -= slots_;
      next[i] = std::move(buf_[from]);
    }
    buf_ = std::move(next);
    slots_ = n;
    head_ = 0;
  }

  // Indices before storage: a queue embedding the ring right after its own
  // scalar fields keeps size() on the same cache line as those fields, so
  // the empty-queue fast paths never touch the buffer pointer or buffer.
  std::uint32_t count_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t slots_ = 0;  // allocated length of buf_
  std::uint32_t cap_;        // the queue's capacity: slots_ never exceeds it
  std::unique_ptr<PacketPtr[]> buf_;
};

}  // namespace pase::net
