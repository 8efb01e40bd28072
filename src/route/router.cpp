#include "route/router.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/timer.h"

namespace paintplace::route {

PathFinderRouter::PathFinderRouter(const ChannelGraph& graph, RouterOptions options)
    : graph_(&graph), options_(options) {
  PP_CHECK(options_.max_iterations >= 1);
  // Keeps every node cost (1 + h * history) * (1 + p * overuse) at or above
  // 1, which the bucket queue in route_net relies on.
  PP_CHECK(options_.history_factor >= 0.0);
  PP_CHECK(options_.present_factor >= 0.0);
  PP_CHECK(options_.present_growth >= 0.0);
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  occupancy_.assign(n, 0);
  history_.assign(n, 0.0);
  dist_.assign(n, 0.0);
  prev_.assign(n, -1);
  visit_epoch_.assign(n, 0);
  node_sinks_.assign(n, {-1, -1});
  node_sinks_epoch_.assign(n, 0);
  buckets_.resize(kBucketRange);
}

void PathFinderRouter::rip_up(NetId net) {
  for (NodeId n : trees_[static_cast<std::size_t>(net)]) {
    occupancy_[static_cast<std::size_t>(n)] -= 1;
    PP_CHECK(occupancy_[static_cast<std::size_t>(n)] >= 0);
  }
  trees_[static_cast<std::size_t>(net)].clear();
}

void PathFinderRouter::route_net(const NetTask& task, double pres_fac) {
  // Incremental multi-sink maze routing: grow the route tree by one
  // cheapest path per sink (Prim-like), negotiating over congested nodes.
  auto node_cost = [&](NodeId n) -> double {
    const Index cap = graph_->capacity(n);
    const Index occ = occupancy_[static_cast<std::size_t>(n)];
    const double over = static_cast<double>(std::max<Index>(0, occ + 1 - cap));
    const double present = 1.0 + pres_fac * over;
    return (1.0 + options_.history_factor * history_[static_cast<std::size_t>(n)]) * present;
  };

  std::vector<NodeId>& tree = trees_[static_cast<std::size_t>(task.id)];
  PP_CHECK(tree.empty());

  // Sinks reached when we touch any pin channel of their tile: tabulate which
  // sinks each node reaches, lowest sink index first.
  sinks_epoch_ += 1;
  for (std::size_t s = 0; s < task.sink_tiles.size(); ++s) {
    const NodeId sink_tile = task.sink_tiles[s];
    const Index tx = (graph_->lx_of(sink_tile) - 1) / 2;
    const Index ty = (graph_->ly_of(sink_tile) - 1) / 2;
    for (NodeId pin : graph_->tile_pins(fpga::GridLoc{tx, ty, 0})) {
      const std::size_t i = static_cast<std::size_t>(pin);
      std::array<std::int32_t, 2>& slots = node_sinks_[i];
      if (node_sinks_epoch_[i] != sinks_epoch_) {
        node_sinks_epoch_[i] = sinks_epoch_;
        slots = {static_cast<std::int32_t>(s), -1};
      } else {
        PP_CHECK_MSG(slots[1] < 0, "channel segment borders more than two sink tiles");
        slots[1] = static_cast<std::int32_t>(s);
      }
    }
  }
  std::vector<bool> sink_done(task.sink_tiles.size(), false);
  // Lowest-index unfinished sink whose tile `n` borders, or -1.
  auto sink_reached_at = [&](NodeId n) -> std::int32_t {
    const std::size_t i = static_cast<std::size_t>(n);
    if (node_sinks_epoch_[i] != sinks_epoch_) return -1;
    for (const std::int32_t s : node_sinks_[i]) {
      if (s >= 0 && !sink_done[static_cast<std::size_t>(s)]) return s;
    }
    return -1;
  };

  const Index src_tx = (graph_->lx_of(task.source_tile) - 1) / 2;
  const Index src_ty = (graph_->ly_of(task.source_tile) - 1) / 2;
  const std::span<const NodeId> source_pins =
      graph_->tile_pins(fpga::GridLoc{src_tx, src_ty, 0});

  for (std::size_t remaining = task.sink_tiles.size(); remaining > 0; --remaining) {
    epoch_ += 1;
    overflow_.clear();
    std::size_t next_bucket = 0;  // first bucket whose draining has not begun
    std::size_t top_bucket = 0;   // highest bucket holding an entry
    auto relax = [&](NodeId n, double d, NodeId from) {
      if (visit_epoch_[static_cast<std::size_t>(n)] == epoch_ &&
          dist_[static_cast<std::size_t>(n)] <= d) {
        return;
      }
      visit_epoch_[static_cast<std::size_t>(n)] = epoch_;
      dist_[static_cast<std::size_t>(n)] = d;
      prev_[static_cast<std::size_t>(n)] = from;
      if (d < static_cast<double>(kBucketRange)) {
        const auto b = static_cast<std::size_t>(d);
        PP_CHECK_MSG(b >= next_bucket, "node cost below 1 pushed into a drained bucket");
        buckets_[b].emplace_back(d, n);
        top_bucket = std::max(top_bucket, b);
      } else {
        overflow_.emplace_back(d, n);
        std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
      }
    };
    // Reaching the next sink is free from anywhere on the already-committed
    // tree (re-use within a net costs nothing); the very first path instead
    // starts at the source tile's pin channels, paying their entry cost.
    if (tree.empty()) {
      for (NodeId pin : source_pins) relax(pin, node_cost(pin), -1);
    } else {
      for (NodeId n : tree) relax(n, 0.0, -1);
    }

    NodeId reached = -1;
    std::int32_t reached_sink = -1;
    // Settles `n` unless the entry is stale; true once it reaches a sink.
    auto visit = [&](double d, NodeId n) -> bool {
      if (visit_epoch_[static_cast<std::size_t>(n)] != epoch_ ||
          d > dist_[static_cast<std::size_t>(n)]) {
        return false;
      }
      reached_sink = sink_reached_at(n);
      if (reached_sink >= 0) {
        reached = n;
        return true;
      }
      NodeId nbr[4];
      const int deg = graph_->neighbors(n, nbr);
      for (int i = 0; i < deg; ++i) {
        relax(nbr[i], d + node_cost(nbr[i]), n);
      }
      return false;
    };
    for (std::size_t b = 0; b <= top_bucket && reached < 0; ++b) {
      next_bucket = b + 1;
      std::vector<std::pair<double, NodeId>>& bucket = buckets_[b];
      std::sort(bucket.begin(), bucket.end());
      for (const auto& [d, n] : bucket) {
        if (visit(d, n)) break;
      }
    }
    for (std::size_t b = 0; b <= top_bucket; ++b) buckets_[b].clear();
    next_bucket = kBucketRange;
    while (reached < 0 && !overflow_.empty()) {
      std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
      const auto [d, n] = overflow_.back();
      overflow_.pop_back();
      visit(d, n);
    }
    PP_CHECK_MSG(reached >= 0, "maze route failed: disconnected fabric?");
    sink_done[static_cast<std::size_t>(reached_sink)] = true;

    // Commit the path: walk predecessors until a seed (prev < 0). Nodes
    // already on the tree (seeds of later sinks) are not double-counted.
    for (NodeId n = reached;; n = prev_[static_cast<std::size_t>(n)]) {
      if (std::find(tree.begin(), tree.end(), n) == tree.end()) {
        tree.push_back(n);
        occupancy_[static_cast<std::size_t>(n)] += 1;
      }
      if (prev_[static_cast<std::size_t>(n)] < 0) break;
    }
  }
}

RouteResult PathFinderRouter::route(const Placement& placement, CongestionMap& congestion) {
  Timer timer;
  const fpga::Netlist& nl = placement.netlist();
  trees_.assign(static_cast<std::size_t>(nl.num_nets()), {});
  std::fill(occupancy_.begin(), occupancy_.end(), 0);
  std::fill(history_.begin(), history_.end(), 0.0);

  // Build net tasks; nets whose pins all share one tile need no routing.
  std::vector<NetTask> tasks;
  for (const fpga::Net& net : nl.nets()) {
    NetTask task;
    task.id = net.id;
    const fpga::GridLoc src = placement.loc(net.driver);
    task.source_tile = graph_->tile_node(src);
    for (fpga::BlockId s : net.sinks) {
      const NodeId t = graph_->tile_node(placement.loc(s));
      if (t != task.source_tile) task.sink_tiles.push_back(t);
    }
    std::sort(task.sink_tiles.begin(), task.sink_tiles.end());
    task.sink_tiles.erase(std::unique(task.sink_tiles.begin(), task.sink_tiles.end()),
                          task.sink_tiles.end());
    if (!task.sink_tiles.empty()) tasks.push_back(std::move(task));
  }
  // Route long nets first: they have the least flexibility.
  std::sort(tasks.begin(), tasks.end(), [](const NetTask& a, const NetTask& b) {
    return a.sink_tiles.size() > b.sink_tiles.size();
  });

  RouteResult result;
  double pres_fac = options_.present_factor;
  for (Index iter = 0; iter < options_.max_iterations; ++iter) {
    result.iterations = iter + 1;
    for (const NetTask& task : tasks) {
      if (!trees_[static_cast<std::size_t>(task.id)].empty()) rip_up(task.id);
      route_net(task, pres_fac);
    }
    // Update history and check feasibility.
    bool overused = false;
    for (NodeId n = 0; n < graph_->num_nodes(); ++n) {
      const Index over = occupancy_[static_cast<std::size_t>(n)] - graph_->capacity(n);
      if (over > 0) {
        overused = true;
        history_[static_cast<std::size_t>(n)] += static_cast<double>(over);
      }
    }
    if (!overused) {
      result.success = true;
      break;
    }
    pres_fac *= options_.present_growth;
  }

  for (NodeId n = 0; n < graph_->num_nodes(); ++n) {
    congestion.set_occupancy(n, occupancy_[static_cast<std::size_t>(n)]);
  }
  for (const auto& tree : trees_) {
    result.total_wirelength += static_cast<double>(tree.size());
  }
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace paintplace::route
