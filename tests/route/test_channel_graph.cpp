#include "route/channel_graph.h"

#include <gtest/gtest.h>

#include <vector>

namespace paintplace::route {
namespace {

using fpga::Arch;
using fpga::GridLoc;

TEST(ChannelGraph, LatticeDimensions) {
  const Arch arch(4, 3);  // 6x5 tiles
  const ChannelGraph g(arch);
  EXPECT_EQ(g.lattice_width(), 13);
  EXPECT_EQ(g.lattice_height(), 11);
  EXPECT_EQ(g.num_nodes(), 143);
}

TEST(ChannelGraph, NodeKindsByParity) {
  const Arch arch(3, 3);
  const ChannelGraph g(arch);
  EXPECT_EQ(g.kind(g.node_at(1, 1)), NodeKind::kTile);
  EXPECT_EQ(g.kind(g.node_at(1, 2)), NodeKind::kHChan);
  EXPECT_EQ(g.kind(g.node_at(2, 1)), NodeKind::kVChan);
  EXPECT_EQ(g.kind(g.node_at(2, 2)), NodeKind::kSwitch);
}

TEST(ChannelGraph, BorderIsNotRoutable) {
  const Arch arch(3, 3);
  const ChannelGraph g(arch);
  for (Index lx = 0; lx < g.lattice_width(); ++lx) {
    EXPECT_FALSE(g.is_routable(g.node_at(lx, 0)));
    EXPECT_FALSE(g.is_routable(g.node_at(lx, g.lattice_height() - 1)));
  }
  for (Index ly = 0; ly < g.lattice_height(); ++ly) {
    EXPECT_FALSE(g.is_routable(g.node_at(0, ly)));
    EXPECT_FALSE(g.is_routable(g.node_at(g.lattice_width() - 1, ly)));
  }
}

TEST(ChannelGraph, InteriorChannelsRoutableWithCapacity) {
  const Arch arch(3, 3);
  const ChannelGraph g(arch);
  const NodeId h = g.node_at(1, 2);
  EXPECT_TRUE(g.is_channel(h));
  EXPECT_EQ(g.capacity(h), 34);
}

TEST(ChannelGraph, TilesHaveNoCapacity) {
  const Arch arch(3, 3);
  const ChannelGraph g(arch);
  EXPECT_EQ(g.capacity(g.node_at(1, 1)), 0);
}

TEST(ChannelGraph, SwitchboxHasLargeCapacity) {
  const Arch arch(3, 3);
  const ChannelGraph g(arch);
  EXPECT_EQ(g.capacity(g.node_at(2, 2)), 4 * 34);
}

TEST(ChannelGraph, ChannelNeighborsAreSwitchboxes) {
  const Arch arch(4, 4);
  const ChannelGraph g(arch);
  const NodeId h = g.node_at(3, 4);  // interior H channel
  NodeId nbr[4];
  const int deg = g.neighbors(h, nbr);
  ASSERT_EQ(deg, 2);
  for (int i = 0; i < deg; ++i) EXPECT_EQ(g.kind(nbr[i]), NodeKind::kSwitch);
}

TEST(ChannelGraph, SwitchNeighborsAreChannels) {
  const Arch arch(4, 4);
  const ChannelGraph g(arch);
  const NodeId s = g.node_at(4, 4);
  NodeId nbr[4];
  const int deg = g.neighbors(s, nbr);
  ASSERT_EQ(deg, 4);
  for (int i = 0; i < deg; ++i) EXPECT_TRUE(g.is_channel(nbr[i]));
}

TEST(ChannelGraph, NeighborsExcludeBorder) {
  const Arch arch(3, 3);
  const ChannelGraph g(arch);
  // Channel right inside the border: one of its switch neighbours is on the
  // border and must be dropped.
  const NodeId v = g.node_at(2, 1);  // V channel adjacent to lattice row 0
  NodeId nbr[4];
  const int deg = g.neighbors(v, nbr);
  EXPECT_EQ(deg, 1);
}

TEST(ChannelGraph, TileNeighborsQueryThrows) {
  const Arch arch(3, 3);
  const ChannelGraph g(arch);
  NodeId nbr[4];
  EXPECT_THROW(g.neighbors(g.node_at(1, 1), nbr), CheckError);
}

TEST(ChannelGraph, InteriorTileHasFourPins) {
  const Arch arch(4, 4);
  const ChannelGraph g(arch);
  EXPECT_EQ(g.tile_pins(GridLoc{2, 2, 0}).size(), 4u);
}

TEST(ChannelGraph, EdgeIoTileHasThreePins) {
  const Arch arch(4, 4);
  const ChannelGraph g(arch);
  // IO pad at (0, 2): its west channel is out of plan.
  EXPECT_EQ(g.tile_pins(GridLoc{0, 2, 0}).size(), 3u);
}

TEST(ChannelGraph, TileNodeRoundTrip) {
  const Arch arch(5, 4);
  const ChannelGraph g(arch);
  const NodeId n = g.tile_node(GridLoc{3, 2, 0});
  EXPECT_EQ(g.lx_of(n), 7);
  EXPECT_EQ(g.ly_of(n), 5);
  EXPECT_EQ(g.kind(n), NodeKind::kTile);
}

// The graph's precomputed tables against the lattice rule, written out here
// independently of the implementation, on every node of several fabrics
// (3x3 tiles is the smallest legal arch).
TEST(ChannelGraph, TablesFollowTheLatticeParityRule) {
  for (const auto& [cols, rows] : std::vector<std::pair<Index, Index>>{
           {1, 1}, {1, 2}, {2, 1}, {3, 3}, {4, 7}, {9, 5}}) {
    fpga::ArchParams params;
    params.channel_width = 7;
    const Arch arch(cols, rows, params);
    const ChannelGraph g(arch);
    const Index lw = 2 * (cols + 2) + 1, lh = 2 * (rows + 2) + 1;
    ASSERT_EQ(g.lattice_width(), lw);
    ASSERT_EQ(g.lattice_height(), lh);
    // A node is a routing resource unless both coordinates are odd (a tile)
    // or it sits on the outermost ring.
    auto routable = [&](Index x, Index y) {
      if (x < 0 || y < 0 || x >= lw || y >= lh) return false;
      if (x % 2 == 1 && y % 2 == 1) return false;
      return x != 0 && y != 0 && x != lw - 1 && y != lh - 1;
    };
    auto expect_nodes = [&](std::vector<std::pair<Index, Index>> cands) {
      std::vector<NodeId> out;
      for (const auto& [x, y] : cands) {
        if (routable(x, y)) out.push_back(y * lw + x);
      }
      return out;
    };
    for (Index ly = 0; ly < lh; ++ly) {
      for (Index lx = 0; lx < lw; ++lx) {
        SCOPED_TRACE(::testing::Message() << cols << "x" << rows << " arch, node (" << lx
                                          << "," << ly << ")");
        const NodeId n = g.node_at(lx, ly);
        const bool odd_x = lx % 2 == 1, odd_y = ly % 2 == 1;
        NodeId nbr[4];
        if (odd_x && odd_y) {  // tile
          EXPECT_EQ(g.capacity(n), 0);
          EXPECT_THROW(g.neighbors(n, nbr), CheckError);
          continue;
        }
        // Horizontal channels (odd x, even y) join the switchboxes left and
        // right; vertical channels (even x, odd y) the ones above and below;
        // switchboxes (even, even) join all four channels around them.
        std::vector<NodeId> want;
        if (odd_x) {
          want = expect_nodes({{lx - 1, ly}, {lx + 1, ly}});
        } else if (odd_y) {
          want = expect_nodes({{lx, ly - 1}, {lx, ly + 1}});
        } else {
          want = expect_nodes({{lx - 1, ly}, {lx + 1, ly}, {lx, ly - 1}, {lx, ly + 1}});
        }
        const int deg = g.neighbors(n, nbr);
        EXPECT_EQ(std::vector<NodeId>(nbr, nbr + deg), want);
        const Index cap = !routable(lx, ly) ? 0 : (odd_x || odd_y) ? 7 : 4 * 7;
        EXPECT_EQ(g.capacity(n), cap);
      }
    }
    // A tile's pins are its routable north, south, west and east channels.
    for (Index y = 0; y < arch.height(); ++y) {
      for (Index x = 0; x < arch.width(); ++x) {
        const Index lx = 2 * x + 1, ly = 2 * y + 1;
        const auto pins = g.tile_pins(GridLoc{x, y, 0});
        EXPECT_EQ(std::vector<NodeId>(pins.begin(), pins.end()),
                  expect_nodes({{lx, ly - 1}, {lx, ly + 1}, {lx - 1, ly}, {lx + 1, ly}}))
            << cols << "x" << rows << " arch, tile (" << x << "," << y << ")";
      }
    }
    EXPECT_THROW(g.tile_pins(GridLoc{arch.width(), 0, 0}), CheckError);
  }
}

TEST(ChannelGraph, EveryRoutablePairIsConnected) {
  // BFS from one channel must reach all routable nodes (fabric is connected).
  const Arch arch(5, 5);
  const ChannelGraph g(arch);
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  std::vector<NodeId> stack;
  NodeId start = -1;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.is_routable(n)) {
      start = n;
      break;
    }
  }
  ASSERT_GE(start, 0);
  stack.push_back(start);
  seen[static_cast<std::size_t>(start)] = true;
  Index visited = 0;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    visited += 1;
    NodeId nbr[4];
    const int deg = g.neighbors(n, nbr);
    for (int i = 0; i < deg; ++i) {
      if (!seen[static_cast<std::size_t>(nbr[i])]) {
        seen[static_cast<std::size_t>(nbr[i])] = true;
        stack.push_back(nbr[i]);
      }
    }
  }
  Index routable = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.is_routable(n)) routable += 1;
  }
  EXPECT_EQ(visited, routable);
}

}  // namespace
}  // namespace paintplace::route
