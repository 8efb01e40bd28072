#include "fpga/netlist.h"

#include <algorithm>

namespace paintplace::fpga {

const char* block_kind_name(BlockKind k) {
  switch (k) {
    case BlockKind::kLut: return "LUT";
    case BlockKind::kFf: return "FF";
    case BlockKind::kInputPad: return "IPAD";
    case BlockKind::kOutputPad: return "OPAD";
    case BlockKind::kMem: return "MEM";
    case BlockKind::kMult: return "MULT";
    case BlockKind::kClb: return "CLB";
  }
  return "?";
}

TileType tile_type_for(BlockKind kind) {
  switch (kind) {
    case BlockKind::kInputPad:
    case BlockKind::kOutputPad: return TileType::kIo;
    case BlockKind::kMem: return TileType::kMem;
    case BlockKind::kMult: return TileType::kMult;
    case BlockKind::kClb: return TileType::kClb;
    case BlockKind::kLut:
    case BlockKind::kFf: break;
  }
  PP_CHECK_MSG(false, "block kind " << block_kind_name(kind) << " is not placeable");
  return TileType::kClb;  // unreachable
}

BlockId Netlist::add_block(BlockKind kind, std::string block_name, Index num_luts, Index num_ffs) {
  const BlockId id = num_blocks();
  blocks_.push_back(Block{id, kind, std::move(block_name), num_luts, num_ffs});
  nets_of_block_.emplace_back();
  return id;
}

NetId Netlist::add_net(std::string net_name, BlockId driver, std::vector<BlockId> sinks) {
  PP_CHECK_MSG(driver >= 0 && driver < num_blocks(), "net driver " << driver << " out of range");
  std::sort(sinks.begin(), sinks.end());
  sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());
  sinks.erase(std::remove(sinks.begin(), sinks.end(), driver), sinks.end());
  PP_CHECK_MSG(!sinks.empty(), "net " << net_name << " has no sinks besides its driver");
  for (BlockId s : sinks) {
    PP_CHECK_MSG(s >= 0 && s < num_blocks(), "net sink " << s << " out of range");
  }
  const NetId id = num_nets();
  nets_.push_back(Net{id, std::move(net_name), driver, std::move(sinks)});
  nets_of_block_[static_cast<std::size_t>(driver)].push_back(id);
  pins_.push_back(driver);
  for (BlockId s : nets_.back().sinks) {
    nets_of_block_[static_cast<std::size_t>(s)].push_back(id);
    pins_.push_back(s);
  }
  pin_begin_.push_back(pins_.size());
  return id;
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  s.num_blocks = num_blocks();
  s.num_nets = num_nets();
  for (const Block& b : blocks_) {
    switch (b.kind) {
      case BlockKind::kLut: s.num_luts += 1; break;
      case BlockKind::kFf: s.num_ffs += 1; break;
      case BlockKind::kInputPad: s.num_inputs += 1; break;
      case BlockKind::kOutputPad: s.num_outputs += 1; break;
      case BlockKind::kMem: s.num_mems += 1; break;
      case BlockKind::kMult: s.num_mults += 1; break;
      case BlockKind::kClb:
        s.num_clbs += 1;
        s.num_luts += b.num_luts;
        s.num_ffs += b.num_ffs;
        break;
    }
  }
  return s;
}

void Netlist::validate() const {
  for (const Block& b : blocks_) {
    PP_CHECK_MSG(!nets_of(b.id).empty(), "block " << b.name << " is disconnected");
  }
  for (const Net& n : nets_) {
    PP_CHECK(n.driver >= 0 && n.driver < num_blocks());
    PP_CHECK_MSG(!n.sinks.empty(), "net " << n.name << " has no sinks");
    for (BlockId s : n.sinks) {
      PP_CHECK(s >= 0 && s < num_blocks());
      PP_CHECK_MSG(s != n.driver, "net " << n.name << " lists its driver as sink");
    }
  }
}

bool Netlist::is_packed() const {
  return std::none_of(blocks_.begin(), blocks_.end(), [](const Block& b) {
    return b.kind == BlockKind::kLut || b.kind == BlockKind::kFf;
  });
}

}  // namespace paintplace::fpga
