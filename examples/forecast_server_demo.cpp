// Micro-batched forecast serving under placement traffic.
//
// Several simulated-annealing placer clients run concurrently, each
// snapshotting its in-flight placement every few hundred accepted moves,
// rendering it, and asking the ForecastServer for a congestion forecast.
// Their bursts coalesce into micro-batches, repeated snapshots of plateaued
// placements hit the result cache, and halfway through the run a fine-tuned
// checkpoint is hot-swapped in without dropping a single request.
//
// Pass a train_cgan checkpoint path as argv[1] to hot-swap that instead of
// the in-demo stand-in (it must be a 32x32, 4-channel model — e.g.
// `train_cgan --width 32 --out ckpts && forecast_server_demo ckpts/best.ckpt`).
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "backend/backend.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/forecaster.h"
#include "data/dataset.h"
#include "fpga/design_suite.h"
#include "place/sa_placer.h"
#include "serve/forecast_server.h"

using namespace paintplace;

namespace {

struct ClientFrame {
  int client = 0;
  Index moves = 0;
  double score = 0.0;
  std::uint64_t model_version = 0;
  bool from_cache = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 1 << 16);
  const char* swap_ckpt = argc > 1 ? argv[1] : nullptr;
  std::printf("== forecast_server_demo: SA placer clients vs the serving engine ==\n");
  std::printf("compute backend: %s; pool workers: %d\n\n", backend::active_backend().name(),
              parallel_workers());

  constexpr Index kWidth = 32;
  const fpga::DesignSpec spec = fpga::scale_spec(fpga::design_by_name("diffeq1"), 0.12);
  const fpga::Netlist nl = fpga::generate_packed(spec, fpga::NetgenParams{}, 31);
  const fpga::NetlistStats stats = nl.stats();
  const fpga::Arch arch = fpga::Arch::auto_sized(
      {stats.num_clbs, stats.num_inputs + stats.num_outputs, stats.num_mems, stats.num_mults});

  data::DatasetConfig dcfg;
  dcfg.image_width = kWidth;
  dcfg.sweep.num_placements = 10;
  std::printf("building dataset (%lld placements of %s) ...\n",
              static_cast<long long>(dcfg.sweep.num_placements), spec.name.c_str());
  const data::Dataset ds = data::build_dataset(nl, arch, dcfg);
  std::vector<const data::Sample*> train_set;
  for (const data::Sample& s : ds.samples) train_set.push_back(&s);

  core::Pix2PixConfig mcfg;
  mcfg.generator.image_size = kWidth;
  mcfg.generator.base_channels = 8;
  mcfg.generator.max_channels = 64;
  mcfg.disc_base_channels = 8;
  mcfg.adam.lr = 1e-3f;

  // Base checkpoint (v1) plus a fine-tuned checkpoint (v2) to hot-swap
  // mid-traffic: a train_cgan checkpoint when one was passed on the command
  // line, else a longer-trained in-demo stand-in.
  std::shared_ptr<core::CongestionForecaster> tuned;
  std::string tuned_label = "fine-tuned";
  if (swap_ckpt != nullptr) {
    try {
      const core::Pix2PixConfig ckpt_cfg = core::Pix2Pix::peek_config(swap_ckpt);
      if (ckpt_cfg.generator.image_size == kWidth &&
          ckpt_cfg.generator.in_channels == mcfg.generator.in_channels &&
          ckpt_cfg.generator.out_channels == mcfg.generator.out_channels) {
        std::printf("hot-swap candidate: %s\n", swap_ckpt);
        tuned = std::make_shared<core::CongestionForecaster>(ckpt_cfg);
        tuned->load(swap_ckpt);
        tuned_label = swap_ckpt;
      } else {
        std::printf("checkpoint %s is %lldx%lld %lld->%lld-channel, demo needs %lldx%lld "
                    "%lld->%lld — using the in-demo stand-in instead\n",
                    swap_ckpt, static_cast<long long>(ckpt_cfg.generator.image_size),
                    static_cast<long long>(ckpt_cfg.generator.image_size),
                    static_cast<long long>(ckpt_cfg.generator.in_channels),
                    static_cast<long long>(ckpt_cfg.generator.out_channels),
                    static_cast<long long>(kWidth), static_cast<long long>(kWidth),
                    static_cast<long long>(mcfg.generator.in_channels),
                    static_cast<long long>(mcfg.generator.out_channels));
      }
    } catch (const std::exception& e) {
      std::printf("could not load checkpoint %s (%s) — using the in-demo stand-in instead\n",
                  swap_ckpt, e.what());
      tuned.reset();
    }
  }
  std::printf(tuned ? "training base checkpoint ...\n\n"
                    : "training base and fine-tuned checkpoints ...\n\n");
  auto base = std::make_shared<core::CongestionForecaster>(mcfg);
  core::TrainConfig tcfg;
  tcfg.epochs = 4;
  base->train(train_set, tcfg);
  if (!tuned) {
    tuned = std::make_shared<core::CongestionForecaster>(mcfg);
    core::TrainConfig tcfg2;
    tcfg2.epochs = 10;
    tuned->train(train_set, tcfg2);
  }

  serve::ServeConfig scfg;
  scfg.max_batch = 4;
  serve::ForecastServer server(scfg, std::move(base), "base");

  const img::PixelGeometry geom(arch, dcfg.render_target_width);
  std::mutex frames_mu;
  std::vector<ClientFrame> frames;

  constexpr int kClients = 3;
  Timer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      place::PlacerOptions opt;
      opt.seed = 100 + static_cast<std::uint64_t>(c);
      place::SaPlacer placer(arch, nl, opt);
      placer.set_snapshot(
          [&](const place::Placement& p, Index moves, double /*temperature*/) {
            const nn::Tensor input = data::make_input(p, geom, kWidth, dcfg.lambda_connect);
            const serve::ForecastResult r = server.submit(input).get();
            std::lock_guard<std::mutex> lock(frames_mu);
            frames.push_back({c, moves, r.congestion_score, r.model_version, r.from_cache});
          },
          /*every_accepted=*/200);
      placer.place();
    });
  }

  // Hot-swap the fine-tuned checkpoint while the clients hammer away.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t v2 = server.publish_model(std::move(tuned), "fine-tuned");
  for (auto& t : clients) t.join();

  // Re-score the dataset's candidate placements twice, as a placement
  // explorer ranking a fixed set would — the second round is pure cache.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < 6 && i < ds.samples.size(); ++i) {
      (void)server.submit(ds.samples[i].input).get();
    }
  }
  const double elapsed = wall.seconds();

  std::printf("%-8s %-10s %-20s %-10s %-8s\n", "client", "moves", "forecast congestion",
              "model", "cached");
  for (const ClientFrame& f : frames) {
    std::printf("%-8d %-10lld %-20.4f v%-9llu %-8s\n", f.client,
                static_cast<long long>(f.moves), f.score,
                static_cast<unsigned long long>(f.model_version), f.from_cache ? "yes" : "no");
  }

  const serve::ServeStats s = server.stats();
  std::printf("\n%zu forecasts in %.2fs (%.1f req/s) — %llu batches, mean batch %.2f, "
              "max %llu, %llu cache hits, %llu coalesced\n",
              frames.size(), elapsed, static_cast<double>(frames.size()) / elapsed,
              static_cast<unsigned long long>(s.batches), s.mean_batch(),
              static_cast<unsigned long long>(s.max_batch),
              static_cast<unsigned long long>(s.cache_hits),
              static_cast<unsigned long long>(s.coalesced));
  std::printf("hot-swapped to v%llu mid-run; %zu forecasts answered by the fine-tuned model\n",
              static_cast<unsigned long long>(v2),
              static_cast<std::size_t>(std::count_if(frames.begin(), frames.end(),
                                                     [&](const ClientFrame& f) {
                                                       return f.model_version == v2;
                                                     })));
  return 0;
}
