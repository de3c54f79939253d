// Output-queued switch with static multipath routing.
//
// Each output port is a (queue, link) pair owned by the switch. Routing maps
// a destination to a PortGroup of 1..N equal-cost ports (optionally
// WCMP-weighted); a packet's port is chosen by a deterministic per-flow hash
// (seeded FNV-1a over {src, dst, flow}, salted per switch) so every packet of
// a flow takes one path and the assignment is bit-reproducible across runs
// and worker counts — no wall-clock or RNG state is consulted. The common
// single-path case stays a single dense table load.
//
// The route table is compressed, scale-invariant storage with three layers,
// consulted in order:
//   1. a dense window `routes_` covering [dense_base_, dense_base_ + size) —
//      the switch's "local stripe" (its own pod on a fat-tree, everything on
//      small topologies). In-window entries are authoritative: kNoRoute
//      inside the window means *no route*, with no fall-through.
//   2. a sorted interval list, each interval mapping [lo, hi) either to one
//      constant entry (port or shared group) or to an arithmetic stride
//      (port = port_base + (dst - lo) / div — e.g. "core c exits my port
//      c/half" without per-core entries).
//   3. a default entry — the ubiquitous "everything else goes up" case is
//      ONE shared group instead of thousands of per-destination entries.
// Layers 2 and 3 only apply to ids below route_id_bound_ (set by structural
// installers to the node-id space size), so out-of-range destinations still
// diagnose as unrouted. Legacy per-destination writers (set_route /
// set_route_group) keep working: they land in the window, growing or
// rebasing it as needed, and shadow the interval/default layers.
//
// Grouped selections are additionally memoized per switch: flow_path_hash is
// a pure function of {salt, src, dst, flow}, so a small open-addressed cache
// resolves the port choice once per (switch, flow direction) and every
// subsequent packet is a probe + compare instead of a 24-round FNV + finisher.
// Misses (and collisions) fall back to the hash, so selections — and all
// golden fingerprints — are bit-identical with the cache on, off, or thrashing.
//
// Forwarding hooks let in-fabric protocols (PDQ) inspect and rewrite headers
// as packets are forwarded; packets addressed to the switch itself (PASE
// arbitration control traffic) are handed to the control handler.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/queue.h"

namespace pase::net {

// Deterministic per-flow path hash: FNV-1a over {src, dst, flow} folded with
// the caller's salt, then avalanche-finished. A pure function of the flow's
// stable identity, so ECMP decisions depend only on topology construction,
// never on execution order.
//
// The finalizer (splitmix64's) matters: raw FNV-1a mod 2^k is structurally
// weak — the prime is odd, so the low bit of the accumulator is just the XOR
// of all input bytes' low bits. Callers reduce this hash modulo small group
// widths (2 at every fat-tree edge switch), and without the finisher a seed
// change flips *every* flow to its sibling port in lockstep — a fabric
// automorphism that leaves queue dynamics unchanged — instead of re-assigning
// flows independently.
inline std::uint64_t flow_path_hash(std::uint64_t salt, NodeId src, NodeId dst,
                                    FlowId flow) {
  std::uint64_t h = 1469598103934665603ull ^ salt;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)));
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)));
  mix(flow);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

class Switch : public Node {
 public:
  Switch(NodeId id, std::string name) : Node(id, std::move(name)) {
    set_ecmp_seed(0);
  }

  // Adds an output port; returns its index.
  int add_port(std::unique_ptr<Queue> queue, std::unique_ptr<Link> link,
               Node* neighbor);

  // Routes traffic destined to node `dst` out of `port` (single-path).
  // Releases the destination's previous multipath group, if any.
  void set_route(NodeId dst, int port);

  // Routes traffic to `dst` over an equal-cost group. `weights` (optional,
  // parallel to `ports`) turns the group into a WCMP split: a port receives
  // weight_i / sum(weights) of the flow hash space. An empty weight vector
  // means equal-cost (all ones); a single-port group degenerates to the
  // plain dense-table route.
  void set_route_group(NodeId dst, const std::vector<int>& ports,
                       const std::vector<std::uint32_t>& weights = {});

  // --- Compressed-table construction (structural route installers) ---

  // Drops every route, interval, group and cached path selection; ports are
  // untouched. Structural installers start from a clean slate so reinstalls
  // (e.g. after an ECMP seed change) cannot leak state.
  void clear_routes();

  // Pre-sizes the dense window to cover ids [lo, hi), filled with kNoRoute.
  // Must be called on an empty table (after clear_routes). In-window entries
  // are authoritative — kNoRoute inside the window never falls through to
  // the interval/default layers.
  void set_dense_window(NodeId lo, NodeId hi);

  // Upper bound (exclusive) of the node-id space the interval and default
  // layers apply to; ids at or above it are unrouted unless in the window.
  void set_route_id_bound(NodeId bound);

  // Registers a multipath group not owned by any destination slot and
  // returns its encoded entry for set_route_entry / add_route_interval /
  // set_default_route_entry. Many destinations may reference it; set_route
  // overwrites never release it. A single port returns the plain port entry.
  std::int32_t add_shared_group(const std::vector<int>& ports,
                                const std::vector<std::uint32_t>& weights = {});

  // Points the dense-window slot for `dst` at `entry`: a plain port (>= 0)
  // or an entry returned by add_shared_group.
  void set_route_entry(NodeId dst, std::int32_t entry);

  // Appends [lo, hi) -> `entry` to the interval layer. Intervals must be
  // added in ascending, non-overlapping order.
  void add_route_interval(NodeId lo, NodeId hi, std::int32_t entry);

  // Appends [lo, hi) -> port_base + (dst - lo) / div: a run of single-path
  // routes with arithmetic structure ("core c exits port c/half") stored in
  // O(1) instead of O(hi - lo).
  void add_route_interval_strided(NodeId lo, NodeId hi, int port_base,
                                  int div);

  // Entry consulted when a destination is below the id bound but matches
  // neither the window nor an interval (fat-tree: "go up").
  void set_default_route_entry(std::int32_t entry);

  // --- Introspection ---

  // Representative (first/only) port toward `dst`; -1 when unrouted. The
  // single-path accessor predating multipath — introspection and tests only;
  // forwarding uses port_for.
  int route_for(NodeId dst) const {
    const std::int32_t e = route_entry(dst);
    if (e >= 0 || e == kNoRoute) return static_cast<int>(e);
    return groups_[group_index(e)].ports.front();
  }

  // Number of equal-cost ports toward `dst` (0 when unrouted).
  int route_width(NodeId dst) const {
    const std::int32_t e = route_entry(dst);
    if (e >= 0) return 1;
    if (e == kNoRoute) return 0;
    return static_cast<int>(groups_[group_index(e)].ports.size());
  }

  // Number of live group entries (shared or destination-owned). Stays flat
  // across route reinstalls (set_route_group reuses a destination's existing
  // slot; set_route releases it) — introspection and leak tests only.
  std::size_t num_route_groups() const {
    return groups_.size() - free_groups_.size();
  }

  // The group's ports toward `dst` (empty when unrouted).
  std::vector<int> route_ports(NodeId dst) const {
    const std::int32_t e = route_entry(dst);
    if (e == kNoRoute) return {};
    if (e >= 0) return {static_cast<int>(e)};
    return groups_[group_index(e)].ports;
  }

  // Bytes held by the route table: dense window + intervals + groups + free
  // list. Excludes the fixed-size path cache (see path_cache_bytes) so the
  // sublinearity gates measure routing state, not memoization.
  std::size_t route_state_bytes() const;
  std::size_t path_cache_bytes() const {
    return path_cache_.capacity() * sizeof(PathCacheEntry);
  }

  // Hot-path selection: the port `p` leaves on. Single-path destinations are
  // one window load (or an interval probe off the local stripe); grouped
  // destinations resolve through the per-flow memo, hashing only on miss.
  int port_for(const Packet& p) const {
    std::int32_t e;
    const auto off = static_cast<std::uint32_t>(p.dst - dense_base_);
    if (off < routes_.size()) [[likely]] {
      e = routes_[off];
    } else {
      e = route_entry_slow(p.dst);
    }
    if (e >= 0) [[likely]] {
      return static_cast<int>(e);
    }
    if (e == kNoRoute) [[unlikely]] {
      return -1;
    }
    return select_group_port(groups_[group_index(e)], p);
  }

  // Sizes the per-flow path memo (rounded up to a power of two; 0 disables
  // it). Selections are identical at any capacity — the memo is a pure cache
  // over flow_path_hash — so this is a perf/memory knob, not a semantic one.
  void set_path_cache_capacity(std::size_t entries);

  // Path-memo effectiveness counters (always on: two increments on a line
  // select_group_port already owns). The profiler aggregates these into the
  // fabric-wide hit rate.
  std::uint64_t path_cache_hits() const { return path_cache_hits_; }
  std::uint64_t path_cache_misses() const { return path_cache_misses_; }

  // Seeds the per-flow hash. The switch folds its own node id into the salt
  // so tiers decorrelate (every switch picking the same group index for a
  // flow would concentrate load); same seed + same topology => identical
  // path assignment.
  void set_ecmp_seed(std::uint64_t seed) {
    ecmp_salt_ =
        seed ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id())) *
                0x9E3779B97F4A7C15ull);
    invalidate_path_cache();
  }

  // Invoked for every packet about to be enqueued on an output port. May
  // rewrite protocol headers (e.g. PDQ rate fields).
  using ForwardHook = std::function<void(Packet&, int out_port)>;
  void add_forward_hook(ForwardHook hook) {
    hooks_.push_back(std::move(hook));
    has_hooks_ = true;
  }

  // Receives packets whose destination is this switch (control plane).
  using ControlHandler = std::function<void(PacketPtr)>;
  void set_control_handler(ControlHandler h) { control_ = std::move(h); }

  // Maps a node id to a human-readable name for routing-hole diagnostics
  // (installed by the owning Topology; the net layer has no node directory).
  using NameResolver = std::function<std::string(NodeId)>;
  void set_name_resolver(NameResolver r) { resolve_name_ = std::move(r); }

  void receive(PacketPtr p) override;

  int num_ports() const { return static_cast<int>(ports_.size()); }
  Queue& port_queue(int port) { return *ports_[static_cast<std::size_t>(port)].queue; }
  Link& port_link(int port) { return *ports_[static_cast<std::size_t>(port)].link; }
  Node* port_neighbor(int port) const {
    return ports_[static_cast<std::size_t>(port)].neighbor;
  }

 private:
  // Route-table encoding: entries >= 0 are a single port; kNoRoute means
  // unrouted; anything <= kGroupBase indexes groups_ via group_index().
  static constexpr std::int32_t kNoRoute = -1;
  static constexpr std::int32_t kGroupBase = -2;
  static std::size_t group_index(std::int32_t entry) {
    return static_cast<std::size_t>(kGroupBase - entry);
  }

  [[noreturn]] void throw_no_route(NodeId dst) const;

  // Interval-layer element: ids in [lo, hi) resolve to the constant `entry`
  // (div == 0) or the strided port port_base + (dst - lo) / div (div > 0).
  struct RouteInterval {
    NodeId lo;
    NodeId hi;
    std::int32_t entry;
    std::int32_t port_base;
    std::int32_t div;
  };

  std::int32_t route_entry(NodeId dst) const {
    const auto off = static_cast<std::uint32_t>(dst - dense_base_);
    if (off < routes_.size()) return routes_[off];
    return route_entry_slow(dst);
  }

  // Off-window lookup: interval binary search, then the default entry, both
  // gated by the id bound. Hot for cross-pod hops at core/agg tiers, but
  // the interval list is O(pods) and mostly resolves to the default.
  std::int32_t route_entry_slow(NodeId dst) const;

  std::int32_t& route_slot(NodeId dst);

  struct Port {
    std::unique_ptr<Queue> queue;
    std::unique_ptr<Link> link;
    Node* neighbor;
  };

  // An equal-cost group. `members` is the weight-expanded selection table
  // (port i appears weight_i times) the hash indexes in O(1); `ports` and
  // `weights` keep the declared form for introspection. Shared groups are
  // referenced by many destinations/intervals and never released by
  // per-destination overwrites.
  struct Group {
    std::vector<std::uint16_t> members;
    std::vector<int> ports;
    std::vector<std::uint32_t> weights;
    bool shared = false;
  };

  // Memo of resolved group selections. One-way associative: a slot holds the
  // most recent flow that hashed to it; collisions simply overwrite. The
  // empty sentinel is src == -1 (no real packet carries an invalid source).
  struct PathCacheEntry {
    FlowId flow;
    NodeId src;
    NodeId dst;
    std::int32_t port;
  };

  // Resolves a grouped destination for packet `p`, via the memo when
  // enabled. Mutates only the cache; safe because a switch's forwarding runs
  // in exactly one domain, which one thread runs at a time (packets and
  // domains change threads only across barriers).
  int select_group_port(const Group& g, const Packet& p) const {
    if (path_cache_capacity_ != 0) {
      if (path_cache_.empty()) [[unlikely]] {
        path_cache_.assign(path_cache_capacity_,
                           PathCacheEntry{0, -1, -1, 0});
      }
      PathCacheEntry& c = path_cache_[path_cache_slot(p)];
      if (c.flow == p.flow && c.src == p.src && c.dst == p.dst) [[likely]] {
        ++path_cache_hits_;
        return static_cast<int>(c.port);
      }
      ++path_cache_misses_;
      const std::uint64_t h =
          flow_path_hash(ecmp_salt_, p.src, p.dst, p.flow);
      const auto port = static_cast<std::int32_t>(
          g.members[h % g.members.size()]);
      c = PathCacheEntry{p.flow, p.src, p.dst, port};
      return static_cast<int>(port);
    }
    const std::uint64_t h = flow_path_hash(ecmp_salt_, p.src, p.dst, p.flow);
    return g.members[h % g.members.size()];
  }

  // Cheap slot mix — one multiply + shift, not the full path hash (that is
  // exactly the work the cache exists to avoid). path_cache_ size is a power
  // of two.
  std::size_t path_cache_slot(const Packet& p) const {
    std::uint64_t x =
        p.flow ^
        ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.src))
          << 32) |
         static_cast<std::uint32_t>(p.dst));
    x *= 0x9E3779B97F4A7C15ull;
    x ^= x >> 32;
    return static_cast<std::size_t>(x) & (path_cache_.size() - 1);
  }

  void invalidate_path_cache() { path_cache_.clear(); }

  // Releases `entry`'s group slot if it owns one (shared groups survive).
  void release_owned_group(std::int32_t entry);
  static Group make_group(const std::vector<int>& ports,
                          const std::vector<std::uint32_t>& weights,
                          bool shared);
  std::int32_t alloc_group(Group g);

  // Receive-path fields first: with Node's slim 24-byte header, the window
  // descriptor and the dense table's begin/end pointers share the object's
  // first cache line with the vtable pointer, and the port array header
  // starts the second — port_for plus the egress lookup touch two adjacent
  // lines instead of walking the whole object.
  NodeId dense_base_ = 0;
  NodeId route_id_bound_ = 0;  // interval/default layers apply below this id
  std::int32_t default_entry_ = kNoRoute;
  // Mirrors hooks_.empty() so receive() resolves "no hooks installed" (the
  // common case — only PDQ installs hooks) from this line instead of the
  // vector header several lines down.
  bool has_hooks_ = false;
  std::vector<std::int32_t> routes_;  // dense window, ids offset by dense_base_
  std::vector<Port> ports_;
  std::vector<RouteInterval> intervals_;
  std::vector<Group> groups_;
  std::vector<std::uint32_t> free_groups_;  // released owned-group slots
  std::uint64_t ecmp_salt_ = 0;
  // Lazily allocated at first grouped lookup; cleared on any route mutation.
  mutable std::vector<PathCacheEntry> path_cache_;
  std::size_t path_cache_capacity_ = 1024;
  mutable std::uint64_t path_cache_hits_ = 0;
  mutable std::uint64_t path_cache_misses_ = 0;
  std::vector<ForwardHook> hooks_;
  ControlHandler control_;
  NameResolver resolve_name_;
};

}  // namespace pase::net
