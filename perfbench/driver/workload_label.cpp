// label: data::build_dataset over seeded placement sweeps of one generated
// design — the routed ground truth the forecaster replaces (Sec. 5.1). Each
// sweep is replayed serially (place -> route -> render on this thread),
// which checks the parallel output tensor for tensor and times each layer.
#include <cstring>

#include "bench.h"
#include "common/parallel.h"
#include "data/dataset.h"
#include "place/sa_placer.h"

namespace perfbench {

namespace pp = paintplace;

namespace {

constexpr Index kSweep = 8;  ///< placements per build_dataset call (two per pool worker)

bool same_tensor(const pp::nn::Tensor& a, const pp::nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

struct Tally {
  std::vector<double> placement_ms;  ///< serial place + route + render, per placement
  std::vector<double> end_s;         ///< when each replayed placement ended (monotonic s)
  std::vector<double> sweep_s;       ///< build_dataset wall time, per sweep
  std::vector<double> route_iters;   ///< RouteResult::iterations, per placement
  double place_ms = 0, route_ms = 0, render_ms = 0, iterations = 0;
  Index routed = 0, placements = 0, mismatched = 0;
};

pp::data::DatasetConfig sweep_config(std::uint64_t base_seed, Index placements) {
  pp::data::DatasetConfig cfg;
  cfg.image_width = kImageWidth;
  cfg.render_target_width = kRenderCanvas;
  cfg.lambda_connect = kLambdaConnect;
  cfg.sweep.num_placements = placements;
  cfg.sweep.base_seed = base_seed;
  // Seeds only, one option set: the paper's option grid (inner_num 0.33..2
  // changes an anneal's length sixfold) would make the per-placement median
  // jump between modes. The short anneal leaves routing most of the work.
  cfg.sweep.alpha_ts = {0.9};
  cfg.sweep.inner_nums = {0.33};
  cfg.sweep.algorithms = {pp::place::PlaceAlgorithm::kAnnealing};
  return cfg;
}

void sweep_and_replay(const World& world, std::uint64_t base_seed, Tally& t) {
  const pp::data::DatasetConfig cfg = sweep_config(base_seed, kSweep);

  const Clock::time_point t0 = Clock::now();
  pp::data::Dataset ds;
  {
    Span span("data.build_dataset");
    ds = pp::data::build_dataset(world.netlist, world.arch, cfg);
  }
  t.sweep_s.push_back(seconds_since(t0));

  const pp::img::PixelGeometry geom(world.arch, cfg.render_target_width);
  for (Index i = 0; i < kSweep; ++i) {
    Span label_span("label.placement", static_cast<std::uint64_t>(i) + 1);
    const Clock::time_point a = Clock::now();
    pp::place::SaPlacer placer(world.arch, world.netlist, cfg.sweep.options_at(i));
    pp::place::Placement placement = [&] {
      Span span("place.SaPlacer::place", static_cast<std::uint64_t>(i) + 1);
      return placer.place();
    }();
    const Clock::time_point b = Clock::now();
    pp::route::ChannelGraph graph(world.arch);
    pp::route::CongestionMap congestion(graph);
    pp::route::PathFinderRouter router(graph, cfg.router);
    pp::route::RouteResult rr;
    {
      Span span("route.PathFinderRouter::route", static_cast<std::uint64_t>(i) + 1);
      rr = router.route(placement, congestion);
    }
    const Clock::time_point c = Clock::now();
    pp::nn::Tensor input, target;
    {
      Span span("img.render", static_cast<std::uint64_t>(i) + 1);
      input = pp::data::make_input(placement, geom, cfg.image_width, cfg.lambda_connect);
      target = pp::data::make_target(placement, congestion, geom, cfg.image_width);
    }
    const Clock::time_point d = Clock::now();
    t.placement_ms.push_back(ms_between(a, d));
    t.end_s.push_back(monotonic_s(d));
    t.place_ms += ms_between(a, b);
    t.route_ms += ms_between(b, c);
    t.render_ms += ms_between(c, d);
    t.iterations += static_cast<double>(rr.iterations);
    t.route_iters.push_back(static_cast<double>(rr.iterations));
    t.placements += 1;
    const pp::data::Sample& s = ds.samples[static_cast<std::size_t>(i)];
    if (rr.success && s.meta.route_success) t.routed += 1;
    if (!same_tensor(input, s.input) || !same_tensor(target, s.target)) t.mismatched += 1;
  }
}

}  // namespace

RunReport run_label(const Options& opt) {
  RunReport rep;
  std::unique_ptr<World> world;
  for (int s = 0; s < opt.setups; ++s) {
    world.reset();
    const Clock::time_point t0 = Clock::now();
    world = make_world(0.5);
    // Warm-up sweep (its seeds are never measured): the worker pool and the
    // allocator reach their steady state before the first timed sweep.
    pp::data::build_dataset(world->netlist, world->arch,
                            sweep_config(opt.seed * 100000 + 50000, pp::parallel_workers()));
    rep.setup_s.push_back(seconds_since(t0));
  }

  Tally untraced, traced;
  std::uint64_t round = 0;
  auto phase = [&](double seconds, Tally& t) {
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < seconds) {
      sweep_and_replay(*world, opt.seed * 100000 + round * kSweep + 1, t);
      ++round;
    }
  };
  if (!opt.trace) {
    phase(opt.seconds, untraced);
  } else {
    phase(opt.seconds / 2, untraced);
    Spans::instance().set_enabled(true);
    phase(opt.seconds / 2, traced);
    Spans::instance().set_enabled(false);
    const double n = static_cast<double>(traced.placements);
    const std::string per = "mean over " + std::to_string(traced.placements) +
                            " serially replayed placements";
    rep.layers["place.place_ms"] = {traced.place_ms / n, "ms", "SaPlacer::place, " + per,
                                    "measured"};
    rep.layers["route.route_ms"] = {traced.route_ms / n, "ms", "PathFinderRouter::route, " + per,
                                    "measured"};
    rep.layers["route.iterations_mean"] = {traced.iterations / n, "iterations",
                                           "RouteResult::iterations, " + per, "measured"};
    rep.layers["route.success_ratio"] = {static_cast<double>(traced.routed) / n, "ratio",
                                         "RouteResult::success, " + per, "measured"};
    rep.layers["img.render_ms"] = {traced.render_ms / n, "ms",
                                   "data::make_input + make_target, " + per, "measured"};
    double serial_ms = 0.0, sweep_s = 0.0;
    for (double v : traced.placement_ms) serial_ms += v;
    for (double v : traced.sweep_s) sweep_s += v;
    rep.layers["data.sweep_parallel_eff"] = {
        serial_ms * 1e-3 / (static_cast<double>(pp::parallel_workers()) * sweep_s), "ratio",
        "serial replay sum / (" + std::to_string(pp::parallel_workers()) +
            " workers x build_dataset wall)",
        "measured"};
    rep.layers["fpga.netgen_ms"] = {world->netgen_ms, "ms", "generate_packed + Arch::auto_sized",
                                    "measured"};
    // The train workload is not gated (its step time follows the host's
    // memory traffic), so its layers are measured here, on one more sweep.
    const pp::data::Dataset ds = pp::data::build_dataset(
        world->netlist, world->arch, sweep_config(opt.seed * 100000 + 70000, kSweep));
    std::vector<const pp::data::Sample*> samples;
    for (const pp::data::Sample& smp : ds.samples) samples.push_back(&smp);
    probe_train(samples, opt.seed, 1.5, rep.layers);
    const double pa = median_of(untraced.placement_ms), pb = median_of(traced.placement_ms);
    rep.layers["obs.trace_overhead_frac"] = {
        (pb - pa) / pa, "ratio",
        "traced median placement " + std::to_string(pb) + " ms vs untraced " + std::to_string(pa),
        "measured"};
    probe_disabled_span(rep.layers);
  }

  const Index placements = untraced.placements + traced.placements;
  const Index routed = untraced.routed + traced.routed;
  const Index mismatched = untraced.mismatched + traced.mismatched;
  rep.checks.add("every_placement_routed", routed == placements,
                 std::to_string(routed) + " of " + std::to_string(placements) + " routed");
  rep.checks.add("serial_replay_matches_build_dataset", mismatched == 0,
                 std::to_string(mismatched) + " of " + std::to_string(placements) +
                     " replayed samples differ");
  rep.attempted = static_cast<std::uint64_t>(placements);
  rep.failed = static_cast<std::uint64_t>(placements - routed);
  rep.raw.nums("lat_ms", untraced.placement_ms)
      .nums("end_s", untraced.end_s)
      .nums("sweep_s", untraced.sweep_s)
      .nums("route_iterations", untraced.route_iters)
      .integer("sweep_placements", kSweep);
  return rep;
}

}  // namespace perfbench
