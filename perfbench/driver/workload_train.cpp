// train: train::DataLoader feeding Pix2Pix::train_step at batch 1 over a
// seeded routed dataset. Adam, the backward GEMMs, norms and losses do the
// work; net and serve do none.
#include <cmath>
#include <cstring>

#include "bench.h"
#include "data/dataset.h"
#include "train/data_loader.h"

namespace perfbench {

namespace pp = paintplace;

namespace {

constexpr Index kPlacements = 8;
constexpr int kReplaySteps = 3;  ///< warm-up steps whose losses a fresh model must reproduce

pp::train::DataLoaderConfig loader_config(std::uint64_t seed) {
  pp::train::DataLoaderConfig cfg;
  cfg.batch_size = 1;  // pix2pix's setting
  cfg.shuffle = true;
  cfg.seed = seed;
  return cfg;
}

/// One step: the loader's next batch (rolling over epochs) and train_step.
struct Stepper {
  pp::core::Pix2Pix& model;
  pp::train::DataLoader& loader;
  Index epoch = 0;
  pp::train::Batch batch;

  pp::core::GanLosses step() {
    Span step_span("train.step");
    {
      Span span("train.DataLoader::next");
      if (!loader.next(batch)) {
        loader.start_epoch(++epoch);
        loader.next(batch);
      }
    }
    Span span("core.Pix2Pix::train_step");
    return model.train_step(batch.inputs, batch.targets);
  }
};

bool finite(const pp::core::GanLosses& l) {
  return std::isfinite(l.d_loss) && std::isfinite(l.g_gan) && std::isfinite(l.g_l1);
}

bool same_bits(const pp::core::GanLosses& a, const pp::core::GanLosses& b) {
  return std::memcmp(&a.d_loss, &b.d_loss, sizeof(double)) == 0 &&
         std::memcmp(&a.g_gan, &b.g_gan, sizeof(double)) == 0 &&
         std::memcmp(&a.g_l1, &b.g_l1, sizeof(double)) == 0;
}

/// Runs steps with the benchmark's spans on for `seconds`, appending each
/// step's ms to `step_ms`, then fills the per-layer metrics of a train step.
/// Returns whether every loss was finite.
bool traced_steps(Stepper& stepper, double seconds, std::vector<double>& step_ms,
                  Layers& layers) {
  bool all_finite = true;
  Spans::instance().set_enabled(true);
  const RegistrySnapshot before = RegistrySnapshot::take();
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < seconds) {
    const Clock::time_point t0 = Clock::now();
    all_finite = finite(stepper.step()) && all_finite;
    step_ms.push_back(seconds_since(t0) * 1e3);
  }
  const RegistrySnapshot delta = RegistrySnapshot::take().minus(before);
  Spans::instance().set_enabled(false);

  probe_adam(layers);
  const double data_ms = Spans::instance().total("train.DataLoader::next").mean_ms();
  const double step_mean = Spans::instance().total("train.step").mean_ms();
  layers["train.data_ms"] = {data_ms, "ms", "mean DataLoader::next per step", "measured"};
  layers["core.step_minus_adam_ms"] = {
      step_mean - layers["nn.adam_g_ms"].value - layers["nn.adam_d_ms"].value - data_ms, "ms",
      "mean step " + std::to_string(step_mean) + " ms minus Adam (G+D) and data", "measured"};
  const auto& flops = delta.at("gemm_flops_total");
  layers["backend.gemm_gflop_per_step"] = {
      flops.present ? flops.count / 1e9 / static_cast<double>(step_ms.size()) : 0.0, "GFLOP",
      "gemm_flops_total / " + std::to_string(step_ms.size()) + " steps",
      flops.present ? "measured" : "absent"};
  return all_finite;
}

}  // namespace

void probe_train(const std::vector<const pp::data::Sample*>& samples, std::uint64_t seed,
                 double seconds, Layers& layers) {
  pp::core::Pix2Pix model(model_config());
  pp::train::DataLoader loader(samples, loader_config(seed));
  loader.start_epoch(0);
  Stepper stepper{model, loader, 0, {}};
  for (int i = 0; i < kReplaySteps; ++i) stepper.step();
  std::vector<double> step_ms;
  traced_steps(stepper, seconds, step_ms, layers);
}

RunReport run_train(const Options& opt) {
  RunReport rep;
  std::unique_ptr<World> world;
  pp::data::Dataset dataset;
  std::vector<const pp::data::Sample*> samples;
  std::unique_ptr<pp::core::Pix2Pix> model;
  std::unique_ptr<pp::train::DataLoader> loader;
  std::unique_ptr<Stepper> stepper;
  std::vector<pp::core::GanLosses> first_losses;
  for (int s = 0; s < opt.setups; ++s) {
    stepper.reset();
    loader.reset();
    model.reset();
    first_losses.clear();
    const Clock::time_point t0 = Clock::now();
    world = make_world(0.5);
    pp::data::DatasetConfig dcfg;
    dcfg.image_width = kImageWidth;
    dcfg.render_target_width = kRenderCanvas;
    dcfg.lambda_connect = kLambdaConnect;
    dcfg.sweep.num_placements = kPlacements;
    dcfg.sweep.base_seed = opt.seed * 1000 + 1;
    dataset = pp::data::build_dataset(world->netlist, world->arch, dcfg);
    samples.clear();
    for (const pp::data::Sample& smp : dataset.samples) samples.push_back(&smp);
    model = std::make_unique<pp::core::Pix2Pix>(model_config());
    loader = std::make_unique<pp::train::DataLoader>(samples, loader_config(opt.seed));
    loader->start_epoch(0);
    stepper.reset(new Stepper{*model, *loader, 0, {}});
    for (int i = 0; i < kReplaySteps; ++i) first_losses.push_back(stepper->step());
    rep.setup_s.push_back(seconds_since(t0));
  }

  bool all_finite = true;
  for (const auto& l : first_losses) all_finite = all_finite && finite(l);
  std::uint64_t steps = 0;
  std::vector<double> end_s;  // when each untraced step ended (monotonic seconds)
  auto phase = [&](double seconds, std::vector<double>& step_ms) {
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < seconds) {
      const Clock::time_point t0 = Clock::now();
      const pp::core::GanLosses l = stepper->step();
      step_ms.push_back(seconds_since(t0) * 1e3);
      end_s.push_back(monotonic_s(Clock::now()));
      all_finite = all_finite && finite(l);
      ++steps;
    }
    return seconds_since(start);
  };

  std::vector<double> step_ms, traced_ms;
  double elapsed = 0.0;
  if (!opt.trace) {
    elapsed = phase(opt.seconds, step_ms);
  } else {
    phase(opt.seconds / 2, step_ms);
    all_finite = traced_steps(*stepper, opt.seconds / 2, traced_ms, rep.layers) && all_finite;
    steps += traced_ms.size();
    probe_disabled_span(rep.layers);
    const double pa = median_of(step_ms), pb = median_of(traced_ms);
    rep.layers["obs.trace_overhead_frac"] = {
        (pb - pa) / pa, "ratio",
        "traced median step " + std::to_string(pb) + " ms vs untraced " + std::to_string(pa),
        "measured"};
    rep.layers["fpga.netgen_ms"] = {world->netgen_ms, "ms", "generate_packed + Arch::auto_sized",
                                    "measured"};
  }

  rep.checks.add("losses_finite", all_finite, std::to_string(steps) + " measured steps");
  {
    // Replay: a fresh model and loader with the same seeds must reproduce
    // the first steps' losses bit for bit.
    pp::core::Pix2Pix fresh(model_config());
    pp::train::DataLoader fresh_loader(samples, loader_config(opt.seed));
    fresh_loader.start_epoch(0);
    Stepper replay{fresh, fresh_loader, 0, {}};
    bool same = true;
    for (int i = 0; i < kReplaySteps; ++i) {
      same = same && same_bits(replay.step(), first_losses[static_cast<std::size_t>(i)]);
    }
    rep.checks.add("replay_losses_bitwise", same,
                   "first " + std::to_string(kReplaySteps) + " steps replayed on a fresh model");
  }
  bool routed = true;
  for (const pp::data::Sample& smp : dataset.samples) routed = routed && smp.meta.route_success;
  rep.checks.add("dataset_routed", routed,
                 std::to_string(dataset.samples.size()) + " training placements routed");

  rep.attempted = steps;
  rep.failed = 0;
  rep.raw.nums("lat_ms", step_ms).nums("end_s", end_s).num("elapsed_s", elapsed);
  return rep;
}

}  // namespace perfbench
