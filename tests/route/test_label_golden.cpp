// Golden exactness check for the labelling path (place -> route).
//
// The placer's cost bookkeeping and the router's tables are performance
// structures only: they must not change one placement, congestion map or
// route statistic. This test places the half-size diffeq1 netlist (35% of
// its nets, as perfbench's `label` workload does) over a grid of placer
// options and seeds, routes every placement, and folds everything observable
// into one FNV-1a hash:
//   - every block's (x, y, sub);
//   - PlacerReport: initial and final cost (bitwise), moves attempted and
//     accepted, temperature steps;
//   - every lattice node's occupancy;
//   - RouteResult: iterations, total wirelength (bitwise) and success.
// The expected value was produced by this same test body on the code before
// the per-net cost cache and the flat graph tables went in. It depends on
// libstdc++'s random distributions and on libm, so it holds for a given
// toolchain; when it moves after a deliberate behaviour change, the new
// value is printed on failure.
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

TEST(LabelGolden, PlacementsAndCongestionMapsAreBitIdentical) {
  fpga::DesignSpec spec = fpga::scale_spec(fpga::design_by_name("diffeq1"), 0.5);
  spec.num_nets = std::max<Index>(2, static_cast<Index>(static_cast<double>(spec.num_nets) * 0.35));
  const fpga::Netlist nl = fpga::generate_packed(spec, fpga::NetgenParams{}, 0x5eed0001ULL);
  const fpga::NetlistStats st = nl.stats();
  const fpga::Arch arch = fpga::Arch::auto_sized(
      {st.num_clbs, st.num_inputs + st.num_outputs, st.num_mems, st.num_mults});
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
        for (const fpga::Block& b : nl.blocks()) {
          const fpga::GridLoc l = p.loc(b.id);
          hash.add(l.x);
          hash.add(l.y);
          hash.add(l.sub);
        }
        const place::PlacerReport& rep = placer.report();
        hash.add(rep.initial_cost);
        hash.add(rep.final_cost);
        hash.add(rep.moves_attempted);
        hash.add(rep.moves_accepted);
        hash.add(rep.temperature_steps);

        CongestionMap congestion(graph);
        PathFinderRouter router(graph);
        const RouteResult rr = router.route(p, congestion);
        for (NodeId n = 0; n < graph.num_nodes(); ++n) hash.add(congestion.occupancy(n));
        hash.add(rr.iterations);
        hash.add(rr.total_wirelength);
        hash.add(rr.success);
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

}  // namespace
}  // namespace paintplace::route
