#include "sim/det_lineage.h"

#include <algorithm>

namespace pase::sim {

DetLineage::DetLineage(int domains) {
  PASE_CHECK(domains >= 1 && domains <= kMaxDomains);
  arenas_.resize(static_cast<std::size_t>(domains));
  for (Arena& a : arenas_) a.chunks.reset(new Node*[kMaxChunks]);
  staged_.resize(arenas_.size());
}

DetLineage::~DetLineage() {
  for (Arena& a : arenas_) {
    for (std::size_t c = 0; c < a.chunks_allocated; ++c) delete[] a.chunks[c];
  }
}

void DetLineage::open_chunk(Arena& a, std::size_t i) {
  const std::size_t c = i >> kChunkShift;
  PASE_CHECK(c < kMaxChunks && "lineage arena exhausted");
  if (c == a.chunks_allocated) {
    a.chunks[c] = new Node[kChunkSize];
    ++a.chunks_allocated;
  }
  a.tail = a.chunks[c];
}

void DetLineage::compact(const std::vector<NodeId*>& live,
                         const std::vector<NodeId*>& keys) {
  PASE_CHECK(live.size() + keys.size() <= 0xffffffffu &&
             "ranks must fit Node::k");
  // Each entry carries its sigma, so most sort comparisons never touch the
  // arena; only same-sigma pairs walk their ancestry.
  entries_.clear();
  entries_.reserve(live.size() + keys.size());
  for (NodeId* p : live) entries_.push_back({node(*p).sigma, *p, p, false});
  for (NodeId* p : keys) entries_.push_back({node(*p).sigma, *p, p, true});
  std::sort(entries_.begin(), entries_.end(),
            [this](const Entry& a, const Entry& b) {
              if (a.sigma != b.sigma) return a.sigma < b.sigma;
              return less(a.id, b.id);
            });

  // Rank the distinct ids and rewrite every reference while the old nodes
  // are still readable; the re-interned nodes are staged per domain and
  // only copied into the arenas once nothing reads the old epoch any more.
  const NodeId next_epoch = (epoch_ + 1) % kEpochMask;
  for (auto& s : staged_) s.clear();
  std::uint64_t rank = 0;
  NodeId fresh = kNull;  // new id of the current distinct old id, if made
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0 && e.id != entries_[i - 1].id) {
      fresh = kNull;
      const Entry& p = entries_[i - 1];
      if (p.sigma != e.sigma || less(p.id, e.id)) ++rank;
    }
    if (e.key) {
      *e.where = key_base_ + rank;
      continue;
    }
    if (fresh == kNull) {
      const Node& n = node(e.id);
      const std::size_t d =
          static_cast<std::size_t>(e.id >> kDomainShift) & (kMaxDomains - 1);
      std::vector<Node>& out = staged_[d];
      fresh = (next_epoch << kEpochShift) |
              (static_cast<NodeId>(d) << kDomainShift) |
              static_cast<NodeId>(out.size());
      out.push_back(n.parent == kNull
                        ? n
                        : Node{n.sigma, kCompacted,
                               static_cast<std::uint32_t>(rank), 0});
    }
    *e.where = fresh;
  }
  key_base_ += rank + 1;

  epoch_ = next_epoch;
  kept_ = 0;
  for (std::size_t d = 0; d < arenas_.size(); ++d) {
    arenas_[d].count = 0;
    for (const Node& n : staged_[d]) {
      add(static_cast<int>(d), n.sigma, n.parent, n.k);
    }
    kept_ += staged_[d].size();
  }
  budget_ = std::max(kMinBudget, kBudgetFactor * kept_);
  ++compactions_;
}

}  // namespace pase::sim
