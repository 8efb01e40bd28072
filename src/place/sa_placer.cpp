#include "place/sa_placer.h"

#include <algorithm>
#include <cmath>

namespace paintplace::place {

const char* place_algorithm_name(PlaceAlgorithm a) {
  switch (a) {
    case PlaceAlgorithm::kAnnealing: return "annealing";
    case PlaceAlgorithm::kGreedy: return "greedy";
  }
  return "?";
}

SaPlacer::SaPlacer(const Arch& arch, const Netlist& netlist, PlacerOptions options)
    : arch_(&arch), netlist_(&netlist), options_(options) {
  PP_CHECK_MSG(options.alpha_t > 0.0 && options.alpha_t < 1.0, "alpha_t must be in (0,1)");
  PP_CHECK_MSG(options.inner_num > 0.0, "inner_num must be positive");
}

void SaPlacer::set_snapshot(SnapshotFn fn, Index every_accepted) {
  PP_CHECK(every_accepted > 0);
  snapshot_ = std::move(fn);
  snapshot_every_ = every_accepted;
}

Placement SaPlacer::place() {
  Rng rng(options_.seed);
  Placement p(*arch_, *netlist_);
  p.random_init(rng);
  report_ = PlacerReport{};
  report_.initial_cost = p.total_cost();

  // Movable blocks grouped by tile type so proposals stay legal.
  std::vector<BlockId> movable;
  for (const fpga::Block& b : netlist_->blocks()) movable.push_back(b.id);
  PP_CHECK_MSG(!movable.empty(), "nothing to place");

  const Index n_blocks = netlist_->num_blocks();
  const Index moves_per_temp = std::max<Index>(
      1, static_cast<Index>(options_.inner_num *
                            std::pow(static_cast<double>(n_blocks), 4.0 / 3.0)));

  double cost = report_.initial_cost;
  // Cost of every net at the current placement (VPR's net_cost). A move
  // re-costs only the nets it touches and writes them back on accept, so a
  // rejected move leaves this exactly as it was.
  std::vector<double> net_costs(static_cast<std::size_t>(netlist_->num_nets()));
  for (NetId n = 0; n < netlist_->num_nets(); ++n) {
    net_costs[static_cast<std::size_t>(n)] = p.net_cost(n);
  }
  std::vector<NetId> affected;     // sorted, unique nets touching the moved blocks
  std::vector<double> new_costs;  // their costs after the move, in `affected` order

  // Initial temperature: VPR heuristic — 20x the std-dev of the cost change
  // over a probe sweep of random moves (annealing only).
  auto propose_and_apply = [&](double rlim, double temperature) -> bool {
    // Pick a movable block and a target slot of its tile type within rlim.
    const BlockId b = movable[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<Index>(movable.size()) - 1))];
    const TileType type = fpga::tile_type_for(netlist_->block(b).kind);
    const auto& slots = arch_->slots(type);
    if (slots.size() < 2) return false;
    const GridLoc from = p.loc(b);
    // Rejection-sample a slot within the range window.
    GridLoc to{};
    bool found = false;
    for (int attempt = 0; attempt < 12; ++attempt) {
      const GridLoc cand =
          slots[static_cast<std::size_t>(rng.uniform_int(0, static_cast<Index>(slots.size()) - 1))];
      if (cand == from) continue;
      if (std::abs(cand.x - from.x) > static_cast<Index>(rlim) ||
          std::abs(cand.y - from.y) > static_cast<Index>(rlim)) {
        continue;
      }
      to = cand;
      found = true;
      break;
    }
    if (!found) return false;

    const BlockId occupant = p.block_at(to);
    affected.assign(netlist_->nets_of(b).begin(), netlist_->nets_of(b).end());
    if (occupant >= 0) {
      affected.insert(affected.end(), netlist_->nets_of(occupant).begin(),
                      netlist_->nets_of(occupant).end());
    }
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
    double before = 0.0;
    for (NetId n : affected) before += net_costs[static_cast<std::size_t>(n)];
    if (occupant >= 0) {
      p.swap(b, occupant);
    } else {
      p.move(b, to);
    }
    new_costs.clear();
    double after = 0.0;
    for (NetId n : affected) {
      new_costs.push_back(p.net_cost(n));
      after += new_costs.back();
    }
    const double delta = after - before;

    bool accept;
    if (delta <= 0.0) {
      accept = true;
    } else if (options_.algorithm == PlaceAlgorithm::kGreedy || temperature <= 0.0) {
      accept = false;
    } else {
      accept = rng.uniform() < std::exp(-delta / temperature);
    }
    if (accept) {
      cost += delta;
      for (std::size_t i = 0; i < affected.size(); ++i) {
        net_costs[static_cast<std::size_t>(affected[i])] = new_costs[i];
      }
      report_.moves_accepted += 1;
      if (snapshot_ && report_.moves_accepted % snapshot_every_ == 0) {
        snapshot_(p, report_.moves_accepted, temperature);
      }
    } else {
      // Undo.
      if (occupant >= 0) {
        p.swap(b, occupant);
      } else {
        p.move(b, from);
      }
    }
    report_.moves_attempted += 1;
    return accept;
  };

  double rlim = static_cast<double>(std::max(arch_->width(), arch_->height()));
  double temperature = 0.0;
  if (options_.algorithm == PlaceAlgorithm::kAnnealing) {
    // Probe sweep at infinite temperature to estimate the cost scale.
    double sum = 0.0, sum_sq = 0.0;
    const Index probes = std::min<Index>(n_blocks, 64);
    for (Index i = 0; i < probes; ++i) {
      const double before = cost;
      propose_and_apply(rlim, 1e30);
      const double d = cost - before;
      sum += d;
      sum_sq += d * d;
    }
    const double n = static_cast<double>(std::max<Index>(1, probes));
    const double var = std::max(0.0, sum_sq / n - (sum / n) * (sum / n));
    temperature = 20.0 * std::sqrt(var) + 1e-6;
  }

  const double exit_t =
      0.005 * std::max(1.0, cost) / static_cast<double>(std::max<Index>(1, netlist_->num_nets()));
  for (;;) {
    Index accepted_this_temp = 0;
    for (Index m = 0; m < moves_per_temp; ++m) {
      if (propose_and_apply(rlim, temperature)) accepted_this_temp += 1;
    }
    report_.temperature_steps += 1;
    const double accept_rate =
        static_cast<double>(accepted_this_temp) / static_cast<double>(moves_per_temp);
    // VPR range-limit adaptation: aim for ~44% acceptance.
    rlim = std::clamp(rlim * (1.0 - 0.44 + accept_rate), 1.0,
                      static_cast<double>(std::max(arch_->width(), arch_->height())));
    if (options_.algorithm == PlaceAlgorithm::kGreedy) {
      if (accepted_this_temp == 0) break;       // local minimum reached
      if (report_.temperature_steps >= 64) break;
    } else {
      temperature *= options_.alpha_t;
      if (temperature < exit_t) break;
      if (report_.temperature_steps >= 512) break;  // hard cap for safety
    }
  }

  report_.final_cost = p.total_cost();
  for (NetId n = 0; n < netlist_->num_nets(); ++n) {
    PP_CHECK_MSG(net_costs[static_cast<std::size_t>(n)] == p.net_cost(n),
                 "stale cached cost for net " << n);
  }
  p.validate();
  return p;
}

}  // namespace paintplace::place
