#include "route/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "fpga/netgen.h"
#include "place/sa_placer.h"

namespace paintplace::route {
namespace {

using fpga::Arch;
using fpga::DesignSpec;
using fpga::Netlist;

struct Routed {
  Netlist nl;
  Arch arch;
  place::Placement placement;
  ChannelGraph graph;
  CongestionMap congestion;
  PathFinderRouter router;
  RouteResult result;

  explicit Routed(Index luts, Index nets, Index channel_width = 34, std::uint64_t seed = 1)
      : nl(fpga::generate_packed(make_spec(luts, nets), fpga::NetgenParams{}, seed)),
        arch(make_arch(nl, channel_width)),
        placement(make_placement(arch, nl, seed)),
        graph(arch),
        congestion(graph),
        router(graph) {
    result = router.route(placement, congestion);
  }

  static DesignSpec make_spec(Index luts, Index nets) {
    DesignSpec s;
    s.name = "route_toy";
    s.num_luts = luts;
    s.num_ffs = luts / 4;
    s.num_nets = nets;
    s.num_inputs = 5;
    s.num_outputs = 4;
    return s;
  }
  static Arch make_arch(const Netlist& nl, Index channel_width) {
    fpga::ArchParams params;
    params.channel_width = channel_width;
    return Arch::auto_sized({nl.stats().num_clbs,
                             nl.stats().num_inputs + nl.stats().num_outputs,
                             nl.stats().num_mems, nl.stats().num_mults},
                            params);
  }
  static place::Placement make_placement(const Arch& arch, const Netlist& nl,
                                         std::uint64_t seed) {
    place::PlacerOptions opt;
    opt.seed = seed;
    place::SaPlacer placer(arch, nl, opt);
    return placer.place();
  }
};

TEST(Router, SucceedsAtDefaultChannelWidth) {
  Routed r(40, 100);
  EXPECT_TRUE(r.result.success);
  EXPECT_EQ(r.congestion.stats().overused_segments, 0);
}

TEST(Router, OccupancyMatchesTreeSum) {
  Routed r(40, 100);
  std::vector<Index> occ(static_cast<std::size_t>(r.graph.num_nodes()), 0);
  for (fpga::NetId n = 0; n < r.nl.num_nets(); ++n) {
    for (NodeId node : r.router.net_tree(n)) occ[static_cast<std::size_t>(node)] += 1;
  }
  for (NodeId n = 0; n < r.graph.num_nodes(); ++n) {
    EXPECT_EQ(r.congestion.occupancy(n), occ[static_cast<std::size_t>(n)]) << "node " << n;
  }
}

TEST(Router, TreesOnlyUseRoutableNodes) {
  Routed r(30, 80);
  for (fpga::NetId n = 0; n < r.nl.num_nets(); ++n) {
    for (NodeId node : r.router.net_tree(n)) {
      EXPECT_TRUE(r.graph.is_routable(node));
    }
  }
}

TEST(Router, TreesHaveNoDuplicateNodes) {
  Routed r(30, 80);
  for (fpga::NetId n = 0; n < r.nl.num_nets(); ++n) {
    const auto& tree = r.router.net_tree(n);
    const std::set<NodeId> unique(tree.begin(), tree.end());
    EXPECT_EQ(unique.size(), tree.size()) << "net " << n;
  }
}

TEST(Router, EveryTreeTouchesAllItsTerminalTiles) {
  Routed r(30, 80);
  for (const fpga::Net& net : r.nl.nets()) {
    const auto& tree = r.router.net_tree(net.id);
    // Terminal tiles, deduplicated; single-tile nets need no tree.
    std::set<NodeId> tiles;
    tiles.insert(r.graph.tile_node(r.placement.loc(net.driver)));
    for (fpga::BlockId s : net.sinks) tiles.insert(r.graph.tile_node(r.placement.loc(s)));
    if (tiles.size() == 1) {
      EXPECT_TRUE(tree.empty());
      continue;
    }
    ASSERT_FALSE(tree.empty()) << "net " << net.name;
    const std::set<NodeId> tree_set(tree.begin(), tree.end());
    for (NodeId tile : tiles) {
      const Index tx = (r.graph.lx_of(tile) - 1) / 2;
      const Index ty = (r.graph.ly_of(tile) - 1) / 2;
      bool adjacent = false;
      for (NodeId pin : r.graph.tile_pins(fpga::GridLoc{tx, ty, 0})) {
        if (tree_set.count(pin) > 0) {
          adjacent = true;
          break;
        }
      }
      EXPECT_TRUE(adjacent) << "net " << net.name << " misses tile (" << tx << "," << ty << ")";
    }
  }
}

TEST(Router, TreeIsConnected) {
  Routed r(25, 70);
  for (fpga::NetId n = 0; n < r.nl.num_nets(); ++n) {
    const auto& tree = r.router.net_tree(n);
    if (tree.size() <= 1) continue;
    const std::set<NodeId> tree_set(tree.begin(), tree.end());
    // BFS within tree nodes.
    std::set<NodeId> seen{tree[0]};
    std::vector<NodeId> stack{tree[0]};
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      NodeId nbr[4];
      const int deg = r.graph.neighbors(cur, nbr);
      for (int i = 0; i < deg; ++i) {
        if (tree_set.count(nbr[i]) > 0 && seen.insert(nbr[i]).second) {
          stack.push_back(nbr[i]);
        }
      }
    }
    EXPECT_EQ(seen.size(), tree_set.size()) << "net " << n << " tree disconnected";
  }
}

TEST(Router, TightChannelsCauseNegotiationRounds) {
  Routed loose(40, 110, /*channel_width=*/34, /*seed=*/2);
  Routed tight(40, 110, /*channel_width=*/2, /*seed=*/2);
  EXPECT_GE(tight.result.iterations, loose.result.iterations);
  // With width 2 the fabric is genuinely scarce; utilization must be higher.
  EXPECT_GT(tight.congestion.stats().mean_utilization,
            loose.congestion.stats().mean_utilization);
}

TEST(Router, RejectsOptionsThatMakeNodeCostsBelowOne) {
  // The maze search's bucket queue needs every node cost >= 1, which holds
  // exactly when no cost factor is negative.
  const Arch arch(4, 4);
  const ChannelGraph graph(arch);
  EXPECT_NO_THROW(PathFinderRouter(graph, RouterOptions{}));
  RouterOptions zero;
  zero.history_factor = 0.0;
  zero.present_factor = 0.0;
  zero.present_growth = 0.0;
  EXPECT_NO_THROW(PathFinderRouter(graph, zero));
  for (double RouterOptions::*field : {&RouterOptions::history_factor,
                                        &RouterOptions::present_factor,
                                        &RouterOptions::present_growth}) {
    for (const double bad : {-0.1, std::nan("")}) {
      RouterOptions opt;
      opt.*field = bad;
      EXPECT_THROW(PathFinderRouter(graph, opt), CheckError) << bad;
    }
  }
}

TEST(Router, WirelengthPositiveAndConsistent) {
  Routed r(30, 90);
  double total = 0.0;
  for (fpga::NetId n = 0; n < r.nl.num_nets(); ++n) {
    total += static_cast<double>(r.router.net_tree(n).size());
  }
  EXPECT_DOUBLE_EQ(r.result.total_wirelength, total);
  EXPECT_GT(total, 0.0);
}

TEST(Router, RecordsWallTime) {
  Routed r(20, 60);
  EXPECT_GT(r.result.wall_seconds, 0.0);
}

TEST(Router, BetterPlacementRoutesWithLessWirelength) {
  // Compare a placed solution with a deliberately random one.
  Routed placed(40, 100, 34, 5);
  // Random placement: fresh placement without annealing.
  place::Placement random_p(placed.arch, placed.nl);
  Rng rng(99);
  random_p.random_init(rng);
  ChannelGraph graph(placed.arch);
  CongestionMap cm(graph);
  PathFinderRouter router(graph);
  const RouteResult rr = router.route(random_p, cm);
  EXPECT_LT(placed.result.total_wirelength, rr.total_wirelength);
  EXPECT_LT(placed.congestion.total_utilization(), cm.total_utilization());
}

TEST(Router, DeterministicForSamePlacement) {
  Routed a(25, 70, 34, 7);
  ChannelGraph graph(a.arch);
  CongestionMap cm(graph);
  PathFinderRouter router(graph);
  router.route(a.placement, cm);
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    EXPECT_EQ(cm.occupancy(n), a.congestion.occupancy(n));
  }
}

}  // namespace
}  // namespace paintplace::route
