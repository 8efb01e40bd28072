#include "place/placement.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "fpga/netgen.h"

namespace paintplace::place {
namespace {

using fpga::Arch;
using fpga::BlockKind;
using fpga::DesignSpec;
using fpga::Netlist;

DesignSpec toy_spec() {
  DesignSpec s;
  s.name = "toy";
  s.num_luts = 30;
  s.num_ffs = 10;
  s.num_nets = 60;
  s.num_inputs = 4;
  s.num_outputs = 4;
  return s;
}

struct Fixture {
  Netlist nl = fpga::generate_packed(toy_spec(), fpga::NetgenParams{}, 1);
  Arch arch = Arch::auto_sized(
      {nl.stats().num_clbs, nl.stats().num_inputs + nl.stats().num_outputs,
       nl.stats().num_mems, nl.stats().num_mults});
};

TEST(Placement, RandomInitIsLegal) {
  Fixture f;
  Placement p(f.arch, f.nl);
  Rng rng(7);
  p.random_init(rng);
  EXPECT_TRUE(p.is_placed());
  EXPECT_NO_THROW(p.validate());
}

TEST(Placement, RandomInitDeterministicPerSeed) {
  Fixture f;
  Placement a(f.arch, f.nl), b(f.arch, f.nl);
  Rng r1(5), r2(5);
  a.random_init(r1);
  b.random_init(r2);
  for (fpga::BlockId id = 0; id < f.nl.num_blocks(); ++id) {
    EXPECT_EQ(a.loc(id), b.loc(id));
  }
}

TEST(Placement, BlockAtInvertsLoc) {
  Fixture f;
  Placement p(f.arch, f.nl);
  Rng rng(9);
  p.random_init(rng);
  for (const fpga::Block& b : f.nl.blocks()) {
    EXPECT_EQ(p.block_at(p.loc(b.id)), b.id);
  }
}

TEST(Placement, MoveUpdatesOccupancy) {
  Fixture f;
  Placement p(f.arch, f.nl);
  Rng rng(11);
  p.random_init(rng);
  // Find a CLB and a free CLB slot.
  fpga::BlockId clb = -1;
  for (const fpga::Block& b : f.nl.blocks()) {
    if (b.kind == BlockKind::kClb) {
      clb = b.id;
      break;
    }
  }
  ASSERT_GE(clb, 0);
  fpga::GridLoc target{};
  for (const fpga::GridLoc& s : f.arch.slots(fpga::TileType::kClb)) {
    if (p.block_at(s) < 0) {
      target = s;
      break;
    }
  }
  ASSERT_TRUE(target.valid());
  const fpga::GridLoc old = p.loc(clb);
  p.move(clb, target);
  EXPECT_EQ(p.block_at(target), clb);
  EXPECT_EQ(p.block_at(old), -1);
  EXPECT_NO_THROW(p.validate());
}

TEST(Placement, MoveToOccupiedSlotThrows) {
  Fixture f;
  Placement p(f.arch, f.nl);
  Rng rng(13);
  p.random_init(rng);
  fpga::BlockId c0 = -1, c1 = -1;
  for (const fpga::Block& b : f.nl.blocks()) {
    if (b.kind != BlockKind::kClb) continue;
    if (c0 < 0) {
      c0 = b.id;
    } else {
      c1 = b.id;
      break;
    }
  }
  ASSERT_GE(c1, 0);
  EXPECT_THROW(p.move(c0, p.loc(c1)), CheckError);
}

TEST(Placement, SwapExchangesSlots) {
  Fixture f;
  Placement p(f.arch, f.nl);
  Rng rng(15);
  p.random_init(rng);
  fpga::BlockId c0 = -1, c1 = -1;
  for (const fpga::Block& b : f.nl.blocks()) {
    if (b.kind != BlockKind::kClb) continue;
    if (c0 < 0) {
      c0 = b.id;
    } else {
      c1 = b.id;
      break;
    }
  }
  ASSERT_GE(c1, 0);
  const fpga::GridLoc l0 = p.loc(c0), l1 = p.loc(c1);
  p.swap(c0, c1);
  EXPECT_EQ(p.loc(c0), l1);
  EXPECT_EQ(p.loc(c1), l0);
  EXPECT_NO_THROW(p.validate());
}

TEST(Placement, HpwlIsPositiveAndConsistent) {
  Fixture f;
  Placement p(f.arch, f.nl);
  Rng rng(17);
  p.random_init(rng);
  const double total = p.total_cost();
  EXPECT_GT(total, 0.0);
  double manual = 0.0;
  for (const fpga::Net& n : f.nl.nets()) manual += p.net_cost(n.id);
  EXPECT_NEAR(total, manual, 1e-9);
}

TEST(Placement, SingleTileNetHasZeroHpwl) {
  Fixture f;
  Placement p(f.arch, f.nl);
  Rng rng(19);
  p.random_init(rng);
  // Any net whose blocks share one tile contributes 0.
  for (const fpga::Net& n : f.nl.nets()) {
    const BBox bb = p.net_bbox(n.id);
    if (bb.half_perimeter() == 0) {
      EXPECT_EQ(p.net_cost(n.id), 0.0);
    }
  }
}

TEST(Placement, NetBboxAndCostRejectAnUnplacedPin) {
  Fixture f;
  Placement full(f.arch, f.nl);
  Rng rng(23);
  full.random_init(rng);
  // Leave out, in turn, a net's driver and its last sink (the pin the cost
  // loop reads last); place every other block where `full` has it.
  const fpga::Net& net = f.nl.net(0);
  for (const fpga::BlockId missing : {net.driver, net.sinks.back()}) {
    Placement p(f.arch, f.nl);
    for (const fpga::Block& b : f.nl.blocks()) {
      if (b.id != missing) p.move(b.id, full.loc(b.id));
    }
    EXPECT_FALSE(p.is_placed());
    EXPECT_THROW(p.net_bbox(net.id), CheckError);
    EXPECT_THROW(p.net_cost(net.id), CheckError);
    for (const NetId n : f.nl.nets_of(missing)) {
      EXPECT_THROW(p.net_cost(n), CheckError);
    }
    for (const fpga::Net& other : f.nl.nets()) {
      const auto& nets = f.nl.nets_of(missing);
      if (std::find(nets.begin(), nets.end(), other.id) != nets.end()) continue;
      EXPECT_EQ(p.net_cost(other.id), full.net_cost(other.id));
    }
  }
}

TEST(Placement, CrossingFactorMatchesVprTable) {
  EXPECT_DOUBLE_EQ(crossing_factor(1), 1.0);
  EXPECT_DOUBLE_EQ(crossing_factor(3), 1.0);
  EXPECT_DOUBLE_EQ(crossing_factor(4), 1.0828);
  EXPECT_DOUBLE_EQ(crossing_factor(50), 2.7933);
  EXPECT_NEAR(crossing_factor(60), 2.7933 + 0.2616, 1e-9);
  EXPECT_THROW(crossing_factor(0), CheckError);
}

TEST(Placement, CrossingFactorMonotone) {
  for (Index t = 1; t < 80; ++t) {
    EXPECT_LE(crossing_factor(t), crossing_factor(t + 1));
  }
}

TEST(Placement, RequiresPackedNetlist) {
  Netlist flat("flat");
  flat.add_block(BlockKind::kLut, "l0");
  const Arch arch(3, 3);
  EXPECT_THROW(Placement(arch, flat), CheckError);
}

TEST(Placement, TooSmallArchThrowsOnInit) {
  Fixture f;
  const Arch tiny(1, 1);  // 1 CLB capacity
  Placement p(tiny, f.nl);
  Rng rng(21);
  EXPECT_THROW(p.random_init(rng), CheckError);
}

}  // namespace
}  // namespace paintplace::place
