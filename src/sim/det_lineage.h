// Exact, partition-invariant event ordering for conservative-parallel runs.
//
// Sequentially, events at the same instant fire in scheduling (FIFO seq)
// order. That global order is a recursive property: two same-time events
// were scheduled either at different instants (earlier instant first), or by
// the same parent event (the parent's scheduling order decides), or by two
// parent events that themselves executed at the same instant — in which case
// the parents' own order decides, recursively. A fixed-size key cannot carry
// that recursion: synchronized workloads (incast waves ACK-clocked in lock
// step) produce ties whose resolution lives arbitrarily deep in the
// scheduling ancestry.
//
// So parallel mode materializes the ancestry. Every scheduled event appends
// an immutable node {sigma, parent, k} to a per-domain arena:
//   sigma  - the instant it was scheduled (its parent's execution time);
//   parent - the node of the event that scheduled it (kNull for setup);
//   k      - its index among that parent's schedulings (for setup-time
//            roots, a caller-provided global index: the flow launch order).
// less(a, b) then replays the sequential tie-break exactly:
//   walk:  different sigma        -> earlier sigma first
//          same parent            -> smaller k first
//          different parents      -> recurse on the parents (both executed
//                                    at the same instant, so their order is
//                                    the same question one level up)
//          root vs non-root       -> root first (setup precedes execution)
// The walk terminates: chains are finite and converging chains are caught by
// the same-parent test one level before they meet.
//
// Compaction (the closed-instant invariant). The walk follows a parent only
// while the two sigmas tie, so once an instant is closed — every node still
// to be created is a sigma-0 setup root or has a larger sigma than every
// existing node — the ancestry behind the existing nodes is never walked
// again. All a later less() needs from a node is its rank among the still
// referenced nodes with the same sigma (the age/lexicographic tie keys of
// Rönngren & Liljenstam, PADS 1999). compact() takes every live reference,
// sorts the distinct ids by (sigma, less), re-interns each non-root as
// {sigma, kCompacted, rank} and each setup root verbatim, rewrites the
// references in place, and restarts the arenas on the chunks they already
// own. Two compacted nodes share the sentinel parent, so the walk compares
// their ranks; a root against a compacted sigma-0 node resolves through the
// kNull rule, as before. The parallel engine compacts at round barriers:
// after a window to H every existing node has sigma < H, and every event
// that runs later runs at >= H.
//
// Budget: compaction_due() turns true once the nodes interned since the last
// pass reach max(kMinBudget, kBudgetFactor x the nodes that pass kept). The
// arena therefore holds about 33x the live references plus a constant —
// memory proportional to pending events, not to executed history.
//
// Ids carry the compaction epoch, and node() fails hard on an id from an
// older epoch: a reference the pass missed surfaces as an abort, never as a
// silent misorder. Arena exhaustion is a hard failure too.
//
// Concurrency: arenas are append-only between passes and single-writer (each
// domain's worker appends only to its own arena). Readers in other domains
// only ever follow node ids that crossed a mailbox + barrier, so every node
// they can name — its chunk pointer and its whole ancestor chain included —
// was fully written before a happens-before edge they are downstream of. A
// chunk-table slot is written once, before any id in that chunk exists, so
// the owner publishing a new chunk never touches a slot a reader can load.
// compact() runs only while every domain is quiescent (the barrier leader,
// or the caller between runs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/dcheck.h"

namespace pase::sim {

using Time = double;  // mirrors simulator.h (no circular include)

class DetLineage {
 public:
  using NodeId = std::uint64_t;
  static constexpr NodeId kNull = ~NodeId{0};
  // Parent of every compacted non-root; never dereferenced.
  static constexpr NodeId kCompacted = kNull - 1;

  // Compaction budget: see the file comment.
  static constexpr std::size_t kMinBudget = 4096;
  static constexpr std::size_t kBudgetFactor = 32;

  explicit DetLineage(int domains);
  ~DetLineage();

  DetLineage(const DetLineage&) = delete;
  DetLineage& operator=(const DetLineage&) = delete;

  // Appends a node to `domain`'s arena. Must be called only by the thread
  // running that domain.
  NodeId add(int domain, Time sigma, NodeId parent, std::uint32_t k) {
    Arena& a = arenas_[static_cast<std::size_t>(domain)];
    const std::size_t i = a.count++;
    if ((i & (kChunkSize - 1)) == 0) [[unlikely]] open_chunk(a, i);
    a.tail[i & (kChunkSize - 1)] = Node{sigma, parent, k, 0};
    return (epoch_ << kEpochShift) |
           (static_cast<NodeId>(domain) << kDomainShift) |
           static_cast<NodeId>(i);
  }

  // Strict weak order reproducing the sequential same-instant fire order.
  // Both ids (and hence their ancestries) must already be visible to the
  // calling thread; see the file comment.
  bool less(NodeId a, NodeId b) const {
    while (true) {
      if (a == b) return false;
      if (a == kNull) return true;   // setup precedes all execution
      if (b == kNull) return false;
      const Node& na = node(a);
      const Node& nb = node(b);
      if (na.sigma != nb.sigma) return na.sigma < nb.sigma;
      if (na.parent == nb.parent) return na.k < nb.k;
      a = na.parent;
      b = nb.parent;
    }
  }

  // The compaction pass. Every id in `live` is rewritten in place to a
  // new-epoch id that compares exactly as the old one did; every id in
  // `keys` (order keys that are never passed to less() again, such as
  // trace-record merge keys) is rewritten to an integer drawn from a counter
  // that rises across passes, so keys from one pass order like less() on
  // their old ids. Any id not listed is dead afterwards. Requires the
  // closed-instant invariant and quiescent owners (see the file comment).
  void compact(const std::vector<NodeId*>& live,
               const std::vector<NodeId*>& keys);

  bool compaction_due() const { return nodes() - kept_ >= budget_; }
  std::uint64_t compactions() const { return compactions_; }

  // Total nodes currently interned (telemetry; owner threads quiescent).
  std::size_t nodes() const {
    std::size_t n = 0;
    for (const Arena& a : arenas_) n += a.count;
    return n;
  }

  // Bytes of node chunks allocated over all arenas. Passes reuse chunks and
  // only the destructor frees them, so this is also the peak.
  std::size_t chunk_bytes() const {
    std::size_t n = 0;
    for (const Arena& a : arenas_) n += a.chunks_allocated;
    return n * kChunkSize * sizeof(Node);
  }

 private:
  struct Node {
    Time sigma;       // instant the event was scheduled
    NodeId parent;    // scheduling event's node; kNull for setup roots
    std::uint32_t k;  // index among the parent's schedulings
    std::uint32_t pad_;
  };

  static constexpr std::size_t kChunkShift = 16;  // 64Ki nodes (1.5 MiB)
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 14;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  // id = epoch:24 | domain:8 | index:32. kNull and kCompacted carry the
  // all-ones epoch, which the counter skips, so they never pass node().
  static constexpr unsigned kDomainShift = 32;
  static constexpr unsigned kEpochShift = 40;
  static constexpr NodeId kEpochMask = (NodeId{1} << 24) - 1;
  static constexpr int kMaxDomains = 1 << (kEpochShift - kDomainShift);

  struct Arena {
    // kMaxChunks slots, left uninitialized (untouched pages) past
    // chunks_allocated; chunks are never freed before the destructor.
    std::unique_ptr<Node*[]> chunks;
    Node* tail = nullptr;  // chunk holding index count - 1
    std::size_t count = 0;
    std::size_t chunks_allocated = 0;
  };

  // Points a.tail at the chunk starting at index i, allocating it on first
  // use; the exhaustion guard lives here, off the per-node path.
  void open_chunk(Arena& a, std::size_t i);

  const Node& node(NodeId id) const {
    PASE_CHECK((id >> kEpochShift) == epoch_ &&
               "lineage id from before a compaction pass");
    const std::size_t d =
        static_cast<std::size_t>(id >> kDomainShift) & (kMaxDomains - 1);
    const std::size_t i = static_cast<std::size_t>(id & 0xffffffffu);
    return arenas_[d].chunks[i >> kChunkShift][i & (kChunkSize - 1)];
  }

  // Scratch reused across passes (leader only).
  struct Entry {
    Time sigma;
    NodeId id;
    NodeId* where;
    bool key;
  };
  std::vector<Entry> entries_;
  std::vector<std::vector<Node>> staged_;  // per domain, the next arena

  std::vector<Arena> arenas_;
  NodeId epoch_ = 0;
  std::size_t kept_ = 0;  // nodes the last pass re-interned
  std::size_t budget_ = kMinBudget;
  std::uint64_t compactions_ = 0;
  std::uint64_t key_base_ = 0;  // first integer key of the next pass
};

}  // namespace pase::sim
