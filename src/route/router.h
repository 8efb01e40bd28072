// PathFinder negotiated-congestion router (McMurchie & Ebeling), the
// detailed-routing stage of Fig. 1. Produces the ground-truth congestion
// map: per-channel utilization after all nets are routed.
#pragma once

#include "place/placement.h"
#include "route/congestion.h"

namespace paintplace::route {

using fpga::NetId;
using place::Placement;

struct RouterOptions {
  Index max_iterations = 30;       ///< negotiation rounds before giving up
  double present_factor = 0.5;     ///< initial present-congestion multiplier
  double present_growth = 1.6;     ///< growth per round
  double history_factor = 0.35;    ///< accumulated-congestion multiplier
};

struct RouteResult {
  bool success = false;     ///< no overused channel after the final round
  Index iterations = 0;     ///< negotiation rounds actually run
  double wall_seconds = 0;  ///< routing wall-clock (Sec. 5.1 speedup metric)
  double total_wirelength = 0.0;  ///< channel segments used, summed over nets
};

class PathFinderRouter {
 public:
  PathFinderRouter(const ChannelGraph& graph, RouterOptions options = {});

  /// Routes every net of the placement; fills `congestion` with the final
  /// per-segment occupancy (even on failure, so hard instances still yield
  /// a heat map — matching VPR, which reports the congested result).
  RouteResult route(const Placement& placement, CongestionMap& congestion);

  /// Lattice nodes of the routed tree for a net (valid after route()).
  const std::vector<NodeId>& net_tree(NetId n) const {
    PP_CHECK(n >= 0 && n < static_cast<Index>(trees_.size()));
    return trees_[static_cast<std::size_t>(n)];
  }

 private:
  struct NetTask {
    NetId id = -1;
    NodeId source_tile = -1;
    std::vector<NodeId> sink_tiles;  // deduplicated, source removed
  };

  void route_net(const NetTask& task, double pres_fac);
  void rip_up(NetId net);

  const ChannelGraph* graph_;
  RouterOptions options_;
  std::vector<std::vector<NodeId>> trees_;
  std::vector<Index> occupancy_;
  std::vector<double> history_;

  // Dijkstra scratch (epoch-stamped to avoid clearing per net).
  std::vector<double> dist_;
  std::vector<NodeId> prev_;
  std::vector<std::uint32_t> visit_epoch_;
  std::uint32_t epoch_ = 0;
  std::vector<std::pair<double, NodeId>> heap_;  // min-heap under std::greater<>

  // Node -> sinks of the net being routed whose tile it borders. A channel
  // segment borders at most two tiles, so two slots, filled in sink order
  // (-1 when empty); stamped with the net's epoch instead of cleared.
  std::vector<std::array<std::int32_t, 2>> node_sinks_;
  std::vector<std::uint32_t> node_sinks_epoch_;
  std::uint32_t sinks_epoch_ = 0;
};

}  // namespace paintplace::route
