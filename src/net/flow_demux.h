// Flow -> sink demux for the host receive path.
//
// One open-addressing table (linear probing, power-of-two size) keyed by the
// full 64-bit FlowId and sized by the flows registered right now: it doubles
// when live entries would pass 3/4 of the slots and halves when they fall to
// 1/8 (never below 16 slots). Erase shifts the rest of a probe run back over
// the hole (Knuth's Algorithm R), so there are no tombstones, and churn at a
// steady live count never rehashes. A host sees a handful of concurrent
// flows, so its table stays at a few hundred bytes however large the
// workload's id range. Slot state lives in the sink word (null = empty),
// never in the key, so every id — 0 and 2^64-1 included — is a valid key.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/dcheck.h"

namespace pase::net {

class PacketSink;

class FlowDemux {
 public:
  PacketSink* find(FlowId id) const {
    if (count_ == 0) return nullptr;
    for (std::size_t i = home(id);; i = (i + 1) & mask()) {
      const Entry& e = slots_[i];
      if (e.sink == nullptr) return nullptr;
      if (e.key == id) return e.sink;
    }
  }

  // Registers (or re-points) `id`.
  void insert(FlowId id, PacketSink* sink) {
    PASE_DCHECK(sink != nullptr && "demux sinks must be non-null");
    if ((count_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    }
    for (std::size_t i = home(id);; i = (i + 1) & mask()) {
      Entry& e = slots_[i];
      if (e.sink == nullptr) {
        e = Entry{id, sink};
        ++count_;
        return;
      }
      if (e.key == id) {
        e.sink = sink;
        return;
      }
    }
  }

  void erase(FlowId id) {
    if (count_ == 0) return;
    std::size_t hole = home(id);
    for (;; hole = (hole + 1) & mask()) {
      if (slots_[hole].sink == nullptr) return;  // not registered
      if (slots_[hole].key == id) break;
    }
    // Pull later members of the probe run back into the hole unless their
    // home slot lies cyclically in (hole, j]: lookups stop at the first
    // empty slot, so no entry may sit past a gap from its home.
    for (std::size_t j = (hole + 1) & mask(); slots_[j].sink != nullptr;
         j = (j + 1) & mask()) {
      const std::size_t h = home(slots_[j].key);
      const bool stays =
          hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole] = Entry{};
    --count_;
    if (count_ * 8 <= slots_.size() && slots_.size() > kMinSlots) {
      rehash(slots_.size() / 2);
    }
  }

  // Number of registered flows.
  std::size_t size() const { return count_; }
  // Bytes of table storage held (the mem.demux_bytes gauge).
  std::size_t bytes() const { return slots_.capacity() * sizeof(Entry); }

 private:
  static constexpr std::size_t kMinSlots = 16;

  struct Entry {
    FlowId key = 0;
    PacketSink* sink = nullptr;  // null: empty slot
  };

  std::size_t mask() const { return slots_.size() - 1; }
  // Fibonacci hashing: the multiply spreads consecutive ids (the workload's
  // numbering) across the table and the top bits pick the slot.
  std::size_t home(FlowId id) const {
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void rehash(std::size_t n) {
    std::vector<Entry> old = std::exchange(slots_, std::vector<Entry>(n));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    count_ = 0;
    for (const Entry& e : old) {
      if (e.sink != nullptr) insert(e.key, e.sink);
    }
  }

  std::vector<Entry> slots_;  // power-of-two size once anything is inserted
  std::size_t count_ = 0;
  unsigned shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace pase::net
