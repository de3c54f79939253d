// FlowDemux: one open-addressing table keyed by the full 64-bit FlowId,
// sized by the flows registered right now. Every id is a valid key (slot
// state lives outside the key), and erase leaves no tombstones, so churn at
// a bounded live count never grows the table.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "net/flow_demux.h"
#include "net/host.h"
#include "sim/rng.h"

namespace pase {
namespace {

class NullSink : public net::PacketSink {
 public:
  void deliver(net::PacketPtr) override {}
};

TEST(FlowDemux, ZeroOneAndMaxIdsRoundTrip) {
  // 0 and 1 were the old sparse table's empty/tombstone markers, and the
  // workload numbers flows from 1; the top id exercises the full key width.
  const net::FlowId ids[] = {0, 1, std::numeric_limits<net::FlowId>::max()};
  NullSink sinks[3];
  net::FlowDemux d;
  for (int i = 0; i < 3; ++i) d.insert(ids[i], &sinks[i]);
  EXPECT_EQ(d.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(d.find(ids[i]), &sinks[i]) << ids[i];
  // Re-pointing an id keeps the count.
  d.insert(0, &sinks[2]);
  EXPECT_EQ(d.find(0), &sinks[2]);
  EXPECT_EQ(d.size(), 3u);
}

TEST(FlowDemux, UnknownIdsReturnNull) {
  net::FlowDemux d;
  EXPECT_EQ(d.find(0), nullptr);  // nothing allocated yet
  EXPECT_EQ(d.find(7), nullptr);
  EXPECT_EQ(d.bytes(), 0u);
  d.erase(7);  // erasing an unknown id is a no-op
  NullSink sink;
  for (net::FlowId id = 1; id <= 40; ++id) d.insert(id, &sink);
  for (net::FlowId id = 41; id <= 400; ++id) EXPECT_EQ(d.find(id), nullptr);
  EXPECT_EQ(d.find(0), nullptr);
  EXPECT_EQ(d.find(std::numeric_limits<net::FlowId>::max()), nullptr);
  d.erase(1000);
  EXPECT_EQ(d.size(), 40u);
}

TEST(FlowDemux, EraseThenReinsert) {
  net::FlowDemux d;
  NullSink a, b;
  for (net::FlowId id = 1; id <= 10; ++id) d.insert(id, &a);
  d.erase(5);
  EXPECT_EQ(d.find(5), nullptr);
  EXPECT_EQ(d.size(), 9u);
  // The neighbours of the hole stay reachable after the backward shift.
  for (net::FlowId id = 1; id <= 10; ++id) {
    EXPECT_EQ(d.find(id), id == 5 ? nullptr : &a) << id;
  }
  d.insert(5, &b);
  EXPECT_EQ(d.find(5), &b);
  EXPECT_EQ(d.size(), 10u);
}

TEST(FlowDemux, ChurnWithFewLiveFlowsKeepsWarmSize) {
  // A host's view of a long run: ids climb forever, but at most 8 flows are
  // registered at once. The table must stay at the size it warmed up to.
  net::FlowDemux d;
  NullSink sink;
  for (net::FlowId id = 1; id <= 8; ++id) d.insert(id, &sink);
  const std::size_t warm = d.bytes();
  ASSERT_GT(warm, 0u);
  for (net::FlowId id = 9; id < 9 + 100000; ++id) {
    d.insert(id, &sink);
    d.erase(id - 8);
    ASSERT_LE(d.size(), 9u);
  }
  EXPECT_EQ(d.size(), 8u);
  EXPECT_EQ(d.bytes(), warm);
  for (net::FlowId id = 100001; id < 100009; ++id) {
    EXPECT_EQ(d.find(id), &sink) << id;
  }
}

TEST(FlowDemux, ShrinksWhenABurstOfFlowsLeaves) {
  // An incast burst registers many flows at once; once they leave, the
  // table gives the memory back.
  net::FlowDemux d;
  NullSink sink;
  d.insert(1, &sink);
  const std::size_t idle = d.bytes();
  for (net::FlowId id = 2; id <= 1000; ++id) d.insert(id, &sink);
  EXPECT_GE(d.bytes(), 1000 * idle / 16);
  for (net::FlowId id = 2; id <= 1000; ++id) d.erase(id);
  EXPECT_EQ(d.bytes(), idle);
  EXPECT_EQ(d.find(1), &sink);
}

TEST(FlowDemux, MatchesAMapUnderRandomInsertAndErase) {
  // Random ids over a narrow range collide and form long probe runs, so
  // every erase exercises the backward shift across wrapped runs.
  net::FlowDemux d;
  std::unordered_map<net::FlowId, net::PacketSink*> oracle;
  std::vector<NullSink> sinks(4);
  sim::Rng rng(17);
  for (int step = 0; step < 20000; ++step) {
    const net::FlowId id =
        static_cast<net::FlowId>(rng.uniform_int(0, 200)) * 0x100000001ull;
    if (rng.uniform(0.0, 1.0) < 0.55) {
      net::PacketSink* s = &sinks[static_cast<std::size_t>(step) % 4];
      d.insert(id, s);
      oracle[id] = s;
    } else {
      d.erase(id);
      oracle.erase(id);
    }
    ASSERT_EQ(d.size(), oracle.size());
  }
  for (net::FlowId k = 0; k <= 200; ++k) {
    const net::FlowId id = k * 0x100000001ull;
    const auto it = oracle.find(id);
    EXPECT_EQ(d.find(id), it == oracle.end() ? nullptr : it->second) << id;
  }
}

}  // namespace
}  // namespace pase
