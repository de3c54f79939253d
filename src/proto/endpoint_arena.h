// Typed slab arena for per-flow endpoint objects.
//
// The scenario driver used to heap-allocate a unique_ptr<Sender> /
// unique_ptr<Receiver> pair per flow and keep every pair alive to the end of
// the run — a setup-time and memory wall at 10^6 flows. An EndpointArena
// holds one endpoint type in contiguous fixed-size slots (the slot size and
// alignment come from the profile's EndpointLayout, so no virtual
// construction is needed to size storage): acquire() hands out a recycled
// slot or bumps into the current chunk, release() returns a slot to the free
// list when its flow retires. Chunks are never freed mid-run and never move,
// so endpoint pointers stay stable for the objects' lifetimes; memory
// therefore tracks peak live concurrency, not total flow count.
//
// grow_events() counts chunk allocations — the slab analogue of
// Simulator::heap_closure_events(): a warmed steady state of arrivals and
// recycles must hold it constant (pinned by tests/endpoint_slab_test.cc and
// the lazy-activation case in tests/alloc_free_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "sim/dcheck.h"

namespace pase::proto {

class EndpointArena {
 public:
  EndpointArena() = default;
  EndpointArena(const EndpointArena&) = delete;
  EndpointArena& operator=(const EndpointArena&) = delete;
  ~EndpointArena() { clear(); }

  // Fixes the slot geometry. Must be called before the first acquire();
  // calling it again resets the arena (drops all chunks).
  void init(std::size_t slot_size, std::size_t slot_align,
            std::size_t slots_per_chunk = 256) {
    PASE_DCHECK(slot_size > 0 && slot_align > 0);
    clear();
    align_ = slot_align < alignof(std::max_align_t) ? alignof(std::max_align_t)
                                                    : slot_align;
    slot_size_ = (slot_size + align_ - 1) / align_ * align_;
    slots_per_chunk_ = slots_per_chunk;
  }

  bool initialized() const { return slot_size_ != 0; }

  // Pre-allocates capacity for at least n concurrently live slots, so a
  // warmed run never grows (reserve is setup-time; its chunks still count in
  // grow_events(), which is why tests snapshot the counter after warmup).
  void reserve(std::size_t n) {
    while (capacity() < n) grow();
  }

  void* acquire() {
    PASE_CHECK(initialized());
    if (!free_.empty()) {
      void* p = free_.back();
      free_.pop_back();
      ++live_;
      return p;
    }
    if (cursor_ == chunks_.size()) grow();
    void* p = chunks_[cursor_].get() + bump_ * slot_size_;
    if (++bump_ == slots_per_chunk_) {
      ++cursor_;
      bump_ = 0;
    }
    ++live_;
    return p;
  }

  void release(void* p) {
    PASE_CHECK(live_ > 0);
    --live_;
    free_.push_back(p);
  }

  std::size_t live() const { return live_; }
  std::size_t capacity() const { return chunks_.size() * slots_per_chunk_; }
  std::uint64_t grow_events() const { return grow_events_; }
  std::size_t slot_size() const { return slot_size_; }

 private:
  struct Free {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t{align});
    }
    std::size_t align;
  };
  using Chunk = std::unique_ptr<std::byte[], Free>;

  // Appends a chunk without moving the bump cursor: chunks pre-allocated by
  // reserve() sit ahead of the cursor and are consumed before any further
  // growth.
  void grow() {
    auto* raw = static_cast<std::byte*>(::operator new[](
        slot_size_ * slots_per_chunk_, std::align_val_t{align_}));
    chunks_.emplace_back(raw, Free{align_});
    ++grow_events_;
  }

  void clear() {
    free_.clear();
    chunks_.clear();
    cursor_ = 0;
    bump_ = 0;
    live_ = 0;
  }

  std::size_t slot_size_ = 0;
  std::size_t align_ = alignof(std::max_align_t);
  std::size_t slots_per_chunk_ = 256;
  std::vector<Chunk> chunks_;
  std::size_t cursor_ = 0;  // chunk the bump allocator is filling
  std::size_t bump_ = 0;    // next unused slot in chunks_[cursor_]
  std::vector<void*> free_;
  std::size_t live_ = 0;
  std::uint64_t grow_events_ = 0;
};

}  // namespace pase::proto
