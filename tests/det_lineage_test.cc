// DetLineage: the ancestry-walk tie order and its compaction.
//
// A compaction pass must be invisible to every later comparison: ids it
// keeps compare exactly as before, nodes interned under compacted parents
// compare exactly as in a twin lineage that never compacted, order keys
// rank like less(), and an id the pass did not keep is rejected outright
// instead of being misread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "sim/det_lineage.h"

namespace pase::sim {
namespace {

using NodeId = DetLineage::NodeId;
constexpr NodeId kNull = DetLineage::kNull;
constexpr std::size_t kRoot = ~std::size_t{0};

// One interned node of a scripted forest: its parent's index in the
// previous level (kRoot at level 0), the domain that interns it, and k.
struct Birth {
  std::size_t parent;
  int domain;
  std::uint32_t k;
};
using Script = std::vector<std::vector<Birth>>;  // [level][index]

// Level 0 holds setup roots (sigma 0, shuffled launch indices). Every node
// of level t-1 then executes at instant t and schedules one or two children
// with sigma t, so all nodes of a level tie in time and comparing two of
// them walks back level by level to the roots.
Script make_script(std::mt19937& rng, int domains, int roots, int levels) {
  Script s(static_cast<std::size_t>(levels) + 1);
  std::vector<std::uint32_t> setup(static_cast<std::size_t>(roots));
  std::iota(setup.begin(), setup.end(), 0u);
  std::shuffle(setup.begin(), setup.end(), rng);
  for (std::uint32_t k : setup) {
    s[0].push_back({kRoot, static_cast<int>(rng() % domains), k});
  }
  for (std::size_t t = 1; t < s.size(); ++t) {
    for (std::size_t p = 0; p < s[t - 1].size(); ++p) {
      const std::uint32_t kids = 1 + rng() % 2;
      for (std::uint32_t c = 0; c < kids; ++c) {
        s[t].push_back({p, static_cast<int>(rng() % domains), c});
      }
    }
  }
  return s;
}

// Interns levels [from, to] of `s`; ids[level][index] receives each id.
void replay(DetLineage& lin, const Script& s, std::size_t from,
            std::size_t to, std::vector<std::vector<NodeId>>& ids) {
  ids.resize(s.size());
  for (std::size_t t = from; t <= to; ++t) {
    ids[t].clear();
    for (const Birth& b : s[t]) {
      ids[t].push_back(b.parent == kRoot
                           ? lin.add(b.domain, 0.0, kNull, b.k)
                           : lin.add(b.domain, static_cast<Time>(t),
                                     ids[t - 1][b.parent], b.k));
    }
  }
}

TEST(DetLineage, CompactionPreservesOrderOfKeptIdsAndLaterChildren) {
  for (int domains = 2; domains <= 4; ++domains) {
    std::mt19937 rng(static_cast<unsigned>(17 * domains));
    constexpr int kLevels = 7;
    constexpr std::size_t kCut = 4;
    const Script script = make_script(rng, domains, 6, kLevels);

    DetLineage twin(domains), lin(domains);
    std::vector<std::vector<NodeId>> twin_ids, ids;
    replay(twin, script, 0, kCut, twin_ids);
    replay(lin, script, 0, kCut, ids);

    // Live: the whole frontier (pending events about to run) plus a random
    // subset of older ids; a disjoint random subset becomes order keys.
    struct Ref {
      std::size_t level, index;
    };
    std::vector<Ref> live, keys;
    for (std::size_t t = 0; t <= kCut; ++t) {
      for (std::size_t i = 0; i < ids[t].size(); ++i) {
        const unsigned roll = rng() % 3;
        if (t == kCut || roll == 0) {
          live.push_back({t, i});
        } else if (roll == 1) {
          keys.push_back({t, i});
        }
      }
    }
    std::vector<NodeId> key_vals;
    for (const Ref& r : keys) key_vals.push_back(ids[r.level][r.index]);
    std::vector<NodeId*> live_ptrs, key_ptrs;
    for (const Ref& r : live) live_ptrs.push_back(&ids[r.level][r.index]);
    for (NodeId& v : key_vals) key_ptrs.push_back(&v);
    lin.compact(live_ptrs, key_ptrs);
    EXPECT_EQ(lin.compactions(), 1u);
    EXPECT_EQ(lin.nodes(), live.size());

    // Order keys rank exactly like less() on the ids they replaced.
    for (std::size_t a = 0; a < keys.size(); ++a) {
      for (std::size_t b = 0; b < keys.size(); ++b) {
        const NodeId ta = twin_ids[keys[a].level][keys[a].index];
        const NodeId tb = twin_ids[keys[b].level][keys[b].index];
        EXPECT_EQ(key_vals[a] < key_vals[b], twin.less(ta, tb));
      }
    }

    // Continue the script under the rewritten frontier in both lineages.
    replay(twin, script, kCut + 1, kLevels, twin_ids);
    replay(lin, script, kCut + 1, kLevels, ids);
    std::vector<Ref> compare = live;
    for (std::size_t t = kCut + 1; t <= kLevels; ++t) {
      for (std::size_t i = 0; i < ids[t].size(); ++i) compare.push_back({t, i});
    }
    std::size_t deep_ties = 0;
    for (const Ref& a : compare) {
      for (const Ref& b : compare) {
        const bool want = twin.less(twin_ids[a.level][a.index],
                                    twin_ids[b.level][b.index]);
        EXPECT_EQ(lin.less(ids[a.level][a.index], ids[b.level][b.index]),
                  want)
            << "domains=" << domains << " (" << a.level << "," << a.index
            << ") vs (" << b.level << "," << b.index << ")";
        deep_ties += a.level == b.level && a.level > kCut;
      }
    }
    EXPECT_GT(deep_ties, 100u);
  }
}

TEST(DetLineage, SetupRootAfterPassSortsBeforeCompactedSigmaZeroNodes) {
  DetLineage lin(2);
  NodeId r1 = lin.add(1, 0.0, kNull, 1);
  const NodeId r5 = lin.add(0, 0.0, kNull, 5);
  // r5 executes at instant 0 and schedules two children there (sigma 0).
  NodeId c0 = lin.add(0, 0.0, r5, 0);
  NodeId c1 = lin.add(1, 0.0, r5, 1);
  lin.compact({&c0, &c1, &r1}, {});

  const NodeId r3 = lin.add(1, 0.0, kNull, 3);
  const NodeId r7 = lin.add(0, 0.0, kNull, 7);
  EXPECT_TRUE(lin.less(c0, c1));
  EXPECT_FALSE(lin.less(c1, c0));
  for (const NodeId root : {r1, r3, r7}) {
    for (const NodeId child : {c0, c1}) {
      EXPECT_TRUE(lin.less(root, child));
      EXPECT_FALSE(lin.less(child, root));
    }
  }
  // Among roots, kept or new, the setup index decides.
  EXPECT_TRUE(lin.less(r1, r3));
  EXPECT_TRUE(lin.less(r3, r7));
  EXPECT_FALSE(lin.less(r7, r3));
  EXPECT_FALSE(lin.less(r3, r1));
}

// A steady state of pending events, each replaced at every instant by the
// child it schedules, must not grow the arena: passes reuse its chunks.
TEST(DetLineage, RepeatedPassesKeepArenaBounded) {
  DetLineage lin(2);
  std::vector<NodeId> pending;
  for (std::uint32_t i = 0; i < 64; ++i) {
    pending.push_back(lin.add(static_cast<int>(i % 2), 0.0, kNull, i));
  }
  std::vector<NodeId*> live;
  for (NodeId& p : pending) live.push_back(&p);
  std::size_t bytes_after_first_pass = 0;
  for (int t = 1; t <= 5000; ++t) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      pending[i] = lin.add(static_cast<int>((i + t) % 2), t, pending[i], 0);
    }
    if (lin.compaction_due()) {
      lin.compact(live, {});
      if (bytes_after_first_pass == 0) bytes_after_first_pass = lin.chunk_bytes();
    }
  }
  EXPECT_GT(lin.compactions(), 50u);
  EXPECT_LE(lin.nodes(), DetLineage::kMinBudget + pending.size());
  EXPECT_EQ(lin.chunk_bytes(), bytes_after_first_pass);
  // Each chain still orders by its root's setup index.
  for (std::size_t a = 0; a < pending.size(); ++a) {
    for (std::size_t b = 0; b < pending.size(); ++b) {
      EXPECT_EQ(lin.less(pending[a], pending[b]), a < b);
    }
  }
}

TEST(DetLineageDeathTest, IdKeptAcrossCompactIsRejected) {
  DetLineage lin(2);
  NodeId kept = lin.add(0, 0.0, kNull, 0);
  const NodeId missed = lin.add(1, 0.0, kNull, 1);
  lin.compact({&kept}, {});
  const NodeId child = lin.add(1, 1.0, kept, 0);
  EXPECT_TRUE(lin.less(kept, child));
  EXPECT_DEATH(lin.less(missed, child), "before a compaction pass");
}

}  // namespace
}  // namespace pase::sim
