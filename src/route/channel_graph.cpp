#include "route/channel_graph.h"

namespace paintplace::route {

ChannelGraph::ChannelGraph(const Arch& arch)
    : arch_(&arch), lw_(2 * arch.width() + 1), lh_(2 * arch.height() + 1) {
  const std::size_t nodes = static_cast<std::size_t>(num_nodes());
  capacity_.assign(nodes, 0);
  neighbors_.assign(nodes, {-1, -1, -1, -1});
  degree_.assign(nodes, 0);

  // Appends the lattice node (x, y) to `out` if it is a routing resource.
  auto push = [&](Index x, Index y, std::array<NodeId, 4>& out, std::int8_t& count) {
    if (x < 0 || x >= lw_ || y < 0 || y >= lh_) return;
    const NodeId cand = node_at(x, y);
    if (!is_routable(cand)) return;
    out[static_cast<std::size_t>(count++)] = cand;
  };
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const std::size_t i = static_cast<std::size_t>(n);
    const Index lx = lx_of(n), ly = ly_of(n);
    std::array<NodeId, 4>& nbrs = neighbors_[i];
    std::int8_t& deg = degree_[i];
    // Channels connect to the switchboxes at their two ends; switchboxes
    // connect to the up-to-4 incident channels.
    switch (kind(n)) {
      case NodeKind::kTile:
        deg = -1;
        break;
      case NodeKind::kHChan:
        push(lx - 1, ly, nbrs, deg);
        push(lx + 1, ly, nbrs, deg);
        break;
      case NodeKind::kVChan:
        push(lx, ly - 1, nbrs, deg);
        push(lx, ly + 1, nbrs, deg);
        break;
      case NodeKind::kSwitch:
        push(lx - 1, ly, nbrs, deg);
        push(lx + 1, ly, nbrs, deg);
        push(lx, ly - 1, nbrs, deg);
        push(lx, ly + 1, nbrs, deg);
        break;
    }
    if (!is_routable(n)) continue;
    capacity_[i] = kind(n) == NodeKind::kSwitch ? 4 * arch.params().channel_width
                                                : arch.params().channel_width;
  }

  const std::size_t tiles = static_cast<std::size_t>(arch.width() * arch.height());
  tile_pins_.assign(tiles, {-1, -1, -1, -1});
  tile_pin_count_.assign(tiles, 0);
  for (Index y = 0; y < arch.height(); ++y) {
    for (Index x = 0; x < arch.width(); ++x) {
      const std::size_t t = static_cast<std::size_t>(y * arch.width() + x);
      const Index lx = 2 * x + 1, ly = 2 * y + 1;
      push(lx, ly - 1, tile_pins_[t], tile_pin_count_[t]);  // north H channel
      push(lx, ly + 1, tile_pins_[t], tile_pin_count_[t]);  // south H channel
      push(lx - 1, ly, tile_pins_[t], tile_pin_count_[t]);  // west V channel
      push(lx + 1, ly, tile_pins_[t], tile_pin_count_[t]);  // east V channel
      PP_CHECK_MSG(tile_pin_count_[t] > 0, "tile has no adjacent channels");
    }
  }
}

}  // namespace paintplace::route
