// Netlist data model, usable at two abstraction levels (Fig. 1 of the paper):
//   * flat    — LUT / FF / IO primitives straight out of technology mapping;
//   * packed  — CLB clusters (plus IO/MEM/MULT) ready for placement,
//               produced by the packer or directly by the generator.
// Nets are hyperedges: one driver block, one or more sink blocks.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "fpga/arch.h"

namespace paintplace::fpga {

using BlockId = Index;
using NetId = Index;

enum class BlockKind : std::uint8_t {
  // Flat-level primitives.
  kLut,
  kFf,
  // Both levels.
  kInputPad,
  kOutputPad,
  kMem,
  kMult,
  // Packed level.
  kClb,
};

const char* block_kind_name(BlockKind k);

/// The tile type a block kind occupies on the fabric (packed level only).
TileType tile_type_for(BlockKind kind);

struct Block {
  BlockId id = -1;
  BlockKind kind = BlockKind::kClb;
  std::string name;
  Index num_luts = 0;  ///< for kClb: LUTs packed inside
  Index num_ffs = 0;   ///< for kClb: FFs packed inside
};

struct Net {
  NetId id = -1;
  std::string name;
  BlockId driver = -1;
  std::vector<BlockId> sinks;

  Index pin_count() const { return 1 + static_cast<Index>(sinks.size()); }
};

/// Summary statistics (the columns of Table 2).
struct NetlistStats {
  Index num_luts = 0;
  Index num_ffs = 0;
  Index num_nets = 0;
  Index num_blocks = 0;
  Index num_inputs = 0;
  Index num_outputs = 0;
  Index num_mems = 0;
  Index num_mults = 0;
  Index num_clbs = 0;
};

class Netlist {
 public:
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  BlockId add_block(BlockKind kind, std::string block_name, Index num_luts = 0,
                    Index num_ffs = 0);
  /// Sinks must be distinct from the driver; duplicate sinks are merged.
  NetId add_net(std::string net_name, BlockId driver, std::vector<BlockId> sinks);

  Index num_blocks() const { return static_cast<Index>(blocks_.size()); }
  Index num_nets() const { return static_cast<Index>(nets_.size()); }
  const Block& block(BlockId id) const {
    PP_CHECK_MSG(id >= 0 && id < num_blocks(), "bad block id " << id);
    return blocks_[static_cast<std::size_t>(id)];
  }
  const Net& net(NetId id) const {
    PP_CHECK_MSG(id >= 0 && id < num_nets(), "bad net id " << id);
    return nets_[static_cast<std::size_t>(id)];
  }
  const std::vector<Block>& blocks() const { return blocks_; }
  const std::vector<Net>& nets() const { return nets_; }

  /// Every pin of a net: its driver first, then its sinks in ascending order
  /// (the same blocks as `net(id)`), as a view into one array that holds
  /// the pins of all nets back to back. Valid until the next add_net.
  std::span<const BlockId> pins(NetId id) const {
    PP_CHECK_MSG(id >= 0 && id < num_nets(), "bad net id " << id);
    const std::size_t begin = pin_begin_[static_cast<std::size_t>(id)];
    return {pins_.data() + begin, pin_begin_[static_cast<std::size_t>(id) + 1] - begin};
  }

  /// Nets a block participates in (as driver or sink).
  const std::vector<NetId>& nets_of(BlockId id) const {
    PP_CHECK(id >= 0 && id < num_blocks());
    return nets_of_block_[static_cast<std::size_t>(id)];
  }

  NetlistStats stats() const;

  /// Structural invariants: valid ids, no self-loop-only nets, every block
  /// on at least one net. Throws CheckError on violation.
  void validate() const;

  /// True if every block kind is placeable (no flat primitives).
  bool is_packed() const;

 private:
  std::string name_;
  std::vector<Block> blocks_;
  std::vector<Net> nets_;
  std::vector<std::vector<NetId>> nets_of_block_;
  std::vector<BlockId> pins_;              // net by net: driver, then sinks
  std::vector<std::size_t> pin_begin_{0};  // net id -> offset into pins_, plus the end
};

}  // namespace paintplace::fpga
