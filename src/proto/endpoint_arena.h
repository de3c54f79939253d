// Typed slab arena for per-flow endpoint objects.
//
// The scenario driver used to heap-allocate a unique_ptr<Sender> /
// unique_ptr<Receiver> pair per flow and keep every pair alive to the end of
// the run — a setup-time and memory wall at 10^6 flows. An EndpointArena
// holds one endpoint type in contiguous fixed-size slots: the first
// emplace<T>() fixes the slot size and alignment from T, emplace()
// constructs into a recycled slot or bumps into the current chunk, and
// destroy() runs the destructor and returns the slot to the free list when
// its flow retires. Chunks are never freed mid-run and never move, so
// endpoint pointers stay stable for the objects' lifetimes; memory therefore
// tracks peak live concurrency, not total flow count.
//
// grow_events() counts chunk allocations — the slab analogue of
// Simulator::heap_closure_events(): a warmed steady state of arrivals and
// recycles must hold it constant (pinned by tests/endpoint_slab_test.cc and
// the lazy-activation case in tests/alloc_free_test.cc).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/dcheck.h"

namespace pase::proto {

class EndpointArena {
 public:
  static constexpr std::size_t kSlotsPerChunk = 256;

  EndpointArena() = default;
  EndpointArena(const EndpointArena&) = delete;
  EndpointArena& operator=(const EndpointArena&) = delete;

  // Constructs a T in a free slot. One profile runs per run, so an arena
  // holds one type: the first T fixes the slot geometry, and a later T that
  // would not fit it aborts instead of overrunning its slot.
  template <class T, class... Args>
  T* emplace(Args&&... args) {
    if (slot_size_ == 0) {
      align_ = std::max(alignof(T), alignof(std::max_align_t));
      slot_size_ = (sizeof(T) + align_ - 1) / align_ * align_;
    }
    PASE_CHECK(sizeof(T) <= slot_size_ && alignof(T) <= align_);
    return ::new (acquire()) T(std::forward<Args>(args)...);
  }

  // Destroys an object emplace() built, through any polymorphic base, and
  // frees its slot: the most-derived object's address, which a base pointer
  // need not equal.
  template <class Base>
  void destroy(Base* obj) {
    void* slot = dynamic_cast<void*>(obj);
    obj->~Base();
    release(slot);
  }

  // Returns a slot emplace() handed out whose object is already destroyed.
  void release(void* p) {
    PASE_CHECK(live_ > 0);
    --live_;
    free_.push_back(p);
  }

  std::size_t live() const { return live_; }
  std::uint64_t grow_events() const { return grow_events_; }

 private:
  struct Free {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t{align});
    }
    std::size_t align;
  };
  using Chunk = std::unique_ptr<std::byte[], Free>;

  void* acquire() {
    void* p;
    if (!free_.empty()) {
      p = free_.back();
      free_.pop_back();
    } else {
      if (bump_ == kSlotsPerChunk || chunks_.empty()) {
        auto* raw = static_cast<std::byte*>(::operator new[](
            slot_size_ * kSlotsPerChunk, std::align_val_t{align_}));
        chunks_.emplace_back(raw, Free{align_});
        ++grow_events_;
        bump_ = 0;
      }
      p = chunks_.back().get() + bump_++ * slot_size_;
    }
    ++live_;
    return p;
  }

  std::size_t slot_size_ = 0;  // 0 until the first emplace()
  std::size_t align_ = alignof(std::max_align_t);
  std::vector<Chunk> chunks_;
  std::size_t bump_ = 0;  // next unused slot in chunks_.back()
  std::vector<void*> free_;
  std::size_t live_ = 0;
  std::uint64_t grow_events_ = 0;
};

}  // namespace pase::proto
