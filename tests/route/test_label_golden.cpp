// Golden exactness checks for the labelling path (place -> route).
//
// The placer's cost bookkeeping, the netlist's flat pin table and the
// router's tables and bucket queue are performance structures only: they
// must not change one placement, congestion map or route statistic. Both
// tests place the half-size diffeq1 netlist (35% of its nets, as perfbench's
// `label` workload does), route every placement, and fold everything
// observable into one FNV-1a hash:
//   - every block's (x, y, sub);
//   - PlacerReport: initial and final cost (bitwise), moves attempted and
//     accepted, temperature steps;
//   - every lattice node's occupancy;
//   - RouteResult: iterations, total wirelength (bitwise) and success.
// The first test sweeps placer options on the default fabric. The second
// routes on fabrics too narrow to route (channel widths 2 and 12), so every
// route runs all its negotiation rounds and also hashes each net's tree
// node by node: by the last round the present-congestion factor is
// 0.5 * 1.6^29, about 4e5, so maze distances run far past the router's
// bucket range into its overflow heap.
// Each expected value was produced by the same test body on the code before
// the fast paths it guards went in (the per-net cost cache and flat graph
// tables for the first, the bucket queue and flat pin table for the
// second). It depends on libstdc++'s random distributions and on libm, so
// it holds for a given toolchain; when it moves after a deliberate
// behaviour change, the new value is printed on failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "fpga/design_suite.h"
#include "fpga/netgen.h"
#include "place/sa_placer.h"
#include "route/router.h"

namespace paintplace::route {
namespace {

constexpr std::uint64_t kGoldenHash = 0x71623e11a6371dbcULL;
constexpr std::uint64_t kTightGoldenHash = 0x2d1a26a8f4b48b82ULL;

class Fnv1a {
 public:
  template <typename T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

fpga::Netlist golden_netlist() {
  fpga::DesignSpec spec = fpga::scale_spec(fpga::design_by_name("diffeq1"), 0.5);
  spec.num_nets = std::max<Index>(2, static_cast<Index>(static_cast<double>(spec.num_nets) * 0.35));
  return fpga::generate_packed(spec, fpga::NetgenParams{}, 0x5eed0001ULL);
}

fpga::Arch golden_arch(const fpga::Netlist& nl, fpga::ArchParams params = {}) {
  const fpga::NetlistStats st = nl.stats();
  return fpga::Arch::auto_sized(
      {st.num_clbs, st.num_inputs + st.num_outputs, st.num_mems, st.num_mults}, params);
}

void hash_placement(Fnv1a& hash, const fpga::Netlist& nl, const place::Placement& p,
                    const place::PlacerReport& rep) {
  for (const fpga::Block& b : nl.blocks()) {
    const fpga::GridLoc l = p.loc(b.id);
    hash.add(l.x);
    hash.add(l.y);
    hash.add(l.sub);
  }
  hash.add(rep.initial_cost);
  hash.add(rep.final_cost);
  hash.add(rep.moves_attempted);
  hash.add(rep.moves_accepted);
  hash.add(rep.temperature_steps);
}

void hash_route(Fnv1a& hash, const ChannelGraph& graph, const CongestionMap& congestion,
                const RouteResult& rr) {
  for (NodeId n = 0; n < graph.num_nodes(); ++n) hash.add(congestion.occupancy(n));
  hash.add(rr.iterations);
  hash.add(rr.total_wirelength);
  hash.add(rr.success);
}

TEST(LabelGolden, PlacementsAndCongestionMapsAreBitIdentical) {
  const fpga::Netlist nl = golden_netlist();
  const fpga::Arch arch = golden_arch(nl);
  const ChannelGraph graph(arch);

  Fnv1a hash;
  Index placements = 0, routed = 0;
  for (const place::PlaceAlgorithm algorithm :
       {place::PlaceAlgorithm::kAnnealing, place::PlaceAlgorithm::kGreedy}) {
    for (const double inner_num : {0.33, 1.0}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        place::PlacerOptions opt;
        opt.seed = seed;
        opt.inner_num = inner_num;
        opt.algorithm = algorithm;
        place::SaPlacer placer(arch, nl, opt);
        const place::Placement p = placer.place();
        hash_placement(hash, nl, p, placer.report());

        CongestionMap congestion(graph);
        PathFinderRouter router(graph);
        const RouteResult rr = router.route(p, congestion);
        hash_route(hash, graph, congestion, rr);
        placements += 1;
        routed += rr.success ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(placements, 16);
  EXPECT_GT(routed, 0);
  EXPECT_EQ(hash.value(), kGoldenHash)
      << "golden hash is now 0x" << std::hex << hash.value();
}

TEST(LabelGolden, TightFabricRoutesAreBitIdentical) {
  const fpga::Netlist nl = golden_netlist();
  const RouterOptions defaults;
  Fnv1a hash;
  for (const Index width : {2, 12}) {
    fpga::ArchParams params;
    params.channel_width = width;
    const fpga::Arch arch = golden_arch(nl, params);
    const ChannelGraph graph(arch);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      place::PlacerOptions opt;
      opt.seed = seed;
      opt.inner_num = 0.33;
      place::SaPlacer placer(arch, nl, opt);
      const place::Placement p = placer.place();
      hash_placement(hash, nl, p, placer.report());

      CongestionMap congestion(graph);
      PathFinderRouter router(graph);
      const RouteResult rr = router.route(p, congestion);
      EXPECT_FALSE(rr.success) << "width " << width << " seed " << seed;
      EXPECT_EQ(rr.iterations, defaults.max_iterations);
      hash_route(hash, graph, congestion, rr);
      for (fpga::NetId n = 0; n < nl.num_nets(); ++n) {
        const std::vector<NodeId>& tree = router.net_tree(n);
        hash.add(tree.size());
        for (const NodeId node : tree) hash.add(node);
      }
    }
  }
  EXPECT_EQ(hash.value(), kTightGoldenHash)
      << "golden hash is now 0x" << std::hex << hash.value();
}

}  // namespace
}  // namespace paintplace::route
