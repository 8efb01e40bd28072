#include "place/placement.h"

#include <algorithm>

namespace paintplace::place {

double crossing_factor(Index terminals) {
  // VPR's expected-crossing-count table (Cheng, "RISA"): index by terminal
  // count, linear extrapolation past 50.
  static constexpr double kTable[] = {
      1.0,    1.0,    1.0,    1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991, 1.4493,
      1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304, 1.7709, 1.8114, 1.8519, 1.8924,
      1.9288, 1.9652, 2.0015, 2.0379, 2.0743, 2.1061, 2.1379, 2.1698, 2.2016, 2.2334,
      2.2646, 2.2958, 2.3271, 2.3583, 2.3895, 2.4187, 2.4479, 2.4772, 2.5064, 2.5356,
      2.5610, 2.5864, 2.6117, 2.6371, 2.6625, 2.6887, 2.7148, 2.7410, 2.7671, 2.7933};
  PP_CHECK(terminals >= 1);
  if (terminals <= 50) return kTable[static_cast<std::size_t>(terminals - 1)];
  return 2.7933 + 0.02616 * static_cast<double>(terminals - 50);
}

Placement::Placement(const Arch& arch, const Netlist& netlist)
    : arch_(&arch), netlist_(&netlist) {
  PP_CHECK_MSG(netlist.is_packed(), "placement needs a packed netlist");
  locs_.assign(static_cast<std::size_t>(netlist.num_blocks()), GridLoc{});
  occupancy_.assign(static_cast<std::size_t>(arch.width() * arch.height() *
                                             arch.params().io_ports_per_pad),
                    -1);
}

std::size_t Placement::slot_key(const GridLoc& slot) const {
  const Index subs = arch_->params().io_ports_per_pad;
  PP_CHECK(slot.valid() && slot.sub < subs && arch_->in_grid(slot.x, slot.y));
  return static_cast<std::size_t>((slot.y * arch_->width() + slot.x) * subs + slot.sub);
}

void Placement::random_init(Rng& rng) {
  std::fill(occupancy_.begin(), occupancy_.end(), -1);
  // Shuffle the slot list of each tile type, then deal slots to blocks.
  for (const TileType type :
       {TileType::kIo, TileType::kClb, TileType::kMem, TileType::kMult}) {
    std::vector<GridLoc> slots = arch_->slots(type);
    std::shuffle(slots.begin(), slots.end(), rng.engine());
    std::size_t next = 0;
    for (const fpga::Block& b : netlist_->blocks()) {
      if (fpga::tile_type_for(b.kind) != type) continue;
      PP_CHECK_MSG(next < slots.size(), "not enough " << fpga::tile_type_name(type)
                                                      << " slots for " << netlist_->name());
      locs_[static_cast<std::size_t>(b.id)] = slots[next];
      occupancy_[slot_key(slots[next])] = b.id;
      ++next;
    }
  }
}

bool Placement::is_placed() const {
  return std::all_of(locs_.begin(), locs_.end(), [](const GridLoc& l) { return l.valid(); });
}

BlockId Placement::block_at(const GridLoc& slot) const { return occupancy_[slot_key(slot)]; }

void Placement::move(BlockId b, const GridLoc& target) {
  PP_CHECK(b >= 0 && b < netlist_->num_blocks());
  PP_CHECK_MSG(block_at(target) < 0, "target slot occupied");
  PP_CHECK_MSG(arch_->tile_type(target.x, target.y) ==
                   fpga::tile_type_for(netlist_->block(b).kind),
               "target tile type mismatch");
  const GridLoc old = locs_[static_cast<std::size_t>(b)];
  if (old.valid()) occupancy_[slot_key(old)] = -1;
  locs_[static_cast<std::size_t>(b)] = target;
  occupancy_[slot_key(target)] = b;
}

void Placement::swap(BlockId a, BlockId b) {
  PP_CHECK(a >= 0 && a < netlist_->num_blocks() && b >= 0 && b < netlist_->num_blocks());
  PP_CHECK(a != b);
  const GridLoc la = locs_[static_cast<std::size_t>(a)];
  const GridLoc lb = locs_[static_cast<std::size_t>(b)];
  PP_CHECK(la.valid() && lb.valid());
  PP_CHECK_MSG(arch_->tile_type(la.x, la.y) == arch_->tile_type(lb.x, lb.y),
               "swap across tile types");
  locs_[static_cast<std::size_t>(a)] = lb;
  locs_[static_cast<std::size_t>(b)] = la;
  occupancy_[slot_key(la)] = b;
  occupancy_[slot_key(lb)] = a;
}

BBox Placement::bbox_of(std::span<const BlockId> pins) const {
  // Pin ids were range-checked by Netlist::add_net and locs_ has one entry
  // per block, so index directly. An unplaced block sits at x = y = -1 and
  // drags the minimum below zero: one check after the loop covers every pin.
  const GridLoc* locs = locs_.data();
  const GridLoc& d = locs[pins.front()];
  BBox bb{d.x, d.x, d.y, d.y};
  for (const BlockId b : pins.subspan(1)) {
    const GridLoc& l = locs[b];
    bb.xmin = std::min(bb.xmin, l.x);
    bb.xmax = std::max(bb.xmax, l.x);
    bb.ymin = std::min(bb.ymin, l.y);
    bb.ymax = std::max(bb.ymax, l.y);
  }
  PP_CHECK_MSG(bb.xmin >= 0 && bb.ymin >= 0, "net bbox over unplaced netlist");
  return bb;
}

BBox Placement::net_bbox(NetId n) const { return bbox_of(netlist_->pins(n)); }

double Placement::net_cost(NetId n) const {
  const std::span<const BlockId> pins = netlist_->pins(n);
  return crossing_factor(static_cast<Index>(pins.size())) *
         static_cast<double>(bbox_of(pins).half_perimeter());
}

double Placement::total_cost() const {
  double cost = 0.0;
  for (const fpga::Net& n : netlist_->nets()) cost += net_cost(n.id);
  return cost;
}

void Placement::validate() const {
  PP_CHECK_MSG(is_placed(), "placement incomplete");
  std::vector<bool> seen(occupancy_.size(), false);
  for (const fpga::Block& b : netlist_->blocks()) {
    const GridLoc l = loc(b.id);
    PP_CHECK_MSG(arch_->tile_type(l.x, l.y) == fpga::tile_type_for(b.kind),
                 "block " << b.name << " on wrong tile type");
    PP_CHECK_MSG(!arch_->is_corner(l.x, l.y), "block " << b.name << " on corner tile");
    const std::size_t key = slot_key(l);
    PP_CHECK_MSG(!seen[key], "slot collision at (" << l.x << "," << l.y << "," << l.sub << ")");
    seen[key] = true;
    PP_CHECK(occupancy_[key] == b.id);
  }
}

}  // namespace paintplace::place
