// Routing resource lattice for the island-style fabric.
//
// The tile grid is embedded in a (2W+1) x (2H+1) lattice:
//   odd  x, odd  y -> logic tile (not a routing resource)
//   odd  x, even y -> horizontal channel segment (capacity = channel width)
//   even x, odd  y -> vertical channel segment   (capacity = channel width)
//   even x, even y -> switchbox junction (uncapacitated crossing point)
// Block pins enter the fabric through the four channel segments around
// their tile. This is the graph PathFinder negotiates over, and the per-
// segment utilization it produces is the paper's ground-truth heat map.
//
// The constructor tabulates what the router asks for on every relaxation —
// capacity, adjacency and each tile's pin channels — once per graph, the way
// VPR's rr-graph stores its edges flat instead of re-deriving them.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "fpga/arch.h"

namespace paintplace::route {

using fpga::Arch;
using fpga::GridLoc;
using paintplace::Index;

enum class NodeKind : std::uint8_t { kTile, kHChan, kVChan, kSwitch };

/// Flat id of a lattice node.
using NodeId = Index;

class ChannelGraph {
 public:
  explicit ChannelGraph(const Arch& arch);

  const Arch& arch() const { return *arch_; }
  Index lattice_width() const { return lw_; }
  Index lattice_height() const { return lh_; }
  Index num_nodes() const { return lw_ * lh_; }

  NodeId node_at(Index lx, Index ly) const {
    PP_CHECK(lx >= 0 && lx < lw_ && ly >= 0 && ly < lh_);
    return ly * lw_ + lx;
  }
  Index lx_of(NodeId n) const { return n % lw_; }
  Index ly_of(NodeId n) const { return n / lw_; }

  NodeKind kind(NodeId n) const {
    const bool ox = lx_of(n) % 2 == 1, oy = ly_of(n) % 2 == 1;
    if (ox && oy) return NodeKind::kTile;
    if (ox) return NodeKind::kHChan;
    if (oy) return NodeKind::kVChan;
    return NodeKind::kSwitch;
  }

  /// The outermost lattice ring lies outside the floor plan (the paper's
  /// img_route renders it white): no routing resources there.
  bool on_border(NodeId n) const {
    const Index lx = lx_of(n), ly = ly_of(n);
    return lx == 0 || ly == 0 || lx == lw_ - 1 || ly == lh_ - 1;
  }
  bool is_routable(NodeId n) const { return kind(n) != NodeKind::kTile && !on_border(n); }
  /// Channel segment inside the floor plan (the heat-map pixels).
  bool is_channel(NodeId n) const {
    const NodeKind k = kind(n);
    return (k == NodeKind::kHChan || k == NodeKind::kVChan) && !on_border(n);
  }

  /// Track capacity of a node (channel width for channels, effectively
  /// unbounded for switchboxes, 0 for tiles).
  Index capacity(NodeId n) const { return capacity_[index_of(n)]; }

  /// Routing-fabric neighbours of a channel/switch node (tiles excluded).
  /// Returns the count written into `out[0..3]`.
  int neighbors(NodeId n, NodeId out[4]) const {
    const std::size_t i = index_of(n);
    PP_CHECK_MSG(degree_[i] >= 0, "tiles are not routing nodes");
    const std::array<NodeId, 4>& nbrs = neighbors_[i];
    std::copy(nbrs.begin(), nbrs.end(), out);
    return degree_[i];
  }

  /// The up-to-4 channel segments surrounding a tile (fewer on the fabric
  /// edge — the outside of the IO ring has no channels), north, south, west,
  /// east. Valid for the graph's lifetime.
  std::span<const NodeId> tile_pins(const GridLoc& tile) const {
    PP_CHECK(arch_->in_grid(tile.x, tile.y));
    const std::size_t t = static_cast<std::size_t>(tile.y * arch_->width() + tile.x);
    return {tile_pins_[t].data(), static_cast<std::size_t>(tile_pin_count_[t])};
  }

  NodeId tile_node(const GridLoc& tile) const {
    PP_CHECK(arch_->in_grid(tile.x, tile.y));
    return node_at(2 * tile.x + 1, 2 * tile.y + 1);
  }

 private:
  std::size_t index_of(NodeId n) const {
    PP_CHECK(n >= 0 && n < lw_ * lh_);
    return static_cast<std::size_t>(n);
  }

  const Arch* arch_;
  Index lw_, lh_;
  std::vector<Index> capacity_;                  // per node
  std::vector<std::array<NodeId, 4>> neighbors_;  // per node, first degree_ entries
  std::vector<std::int8_t> degree_;              // per node; -1 on tiles
  std::vector<std::array<NodeId, 4>> tile_pins_;  // per tile (y * width + x)
  std::vector<std::int8_t> tile_pin_count_;      // per tile
};

}  // namespace paintplace::route
