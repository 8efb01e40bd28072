// Shared helpers for the serving-layer tests: a tiny forecaster config, a
// deliberately slow one, and deterministic random input tensors shaped for
// them. No dataset/training — the serving machinery only needs a model that
// can run forward.
#pragma once

#include <chrono>
#include <memory>

#include "common/rng.h"
#include "core/forecaster.h"

namespace paintplace::serve::testfix {

inline core::Pix2PixConfig tiny_config(Index image_size = 16) {
  core::Pix2PixConfig cfg;
  cfg.generator.in_channels = 4;
  cfg.generator.out_channels = 3;
  cfg.generator.image_size = image_size;
  cfg.generator.base_channels = 4;
  cfg.generator.max_channels = 8;
  cfg.disc_base_channels = 4;
  cfg.seed = 9;
  return cfg;
}

inline std::shared_ptr<core::CongestionForecaster> tiny_model(std::uint64_t seed = 9,
                                                              Index image_size = 16) {
  core::Pix2PixConfig cfg = tiny_config(image_size);
  cfg.seed = seed;
  return std::make_shared<core::CongestionForecaster>(cfg);
}

inline nn::Tensor random_input(std::uint64_t seed, Index image_size = 16, Index channels = 4) {
  Rng rng(seed);
  nn::Tensor t(nn::Shape{1, channels, image_size, image_size});
  for (Index i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform());
  return t;
}

/// Resolution of the slow fixture model below.
constexpr Index kSlowImageSize = 128;

/// A model whose batch-1 forward takes tens of milliseconds (about 20 ms
/// with cpu_opt on a 4-vCPU x86 VM), against microseconds for a submit.
/// Tests that need requests to stay queued or in flight get that from the
/// worker being busy with real work, not from a timer.
inline std::shared_ptr<core::CongestionForecaster> slow_model(std::uint64_t seed = 9) {
  core::Pix2PixConfig cfg = tiny_config(kSlowImageSize);
  cfg.generator.base_channels = 32;
  cfg.generator.max_channels = 64;
  cfg.seed = seed;
  return std::make_shared<core::CongestionForecaster>(cfg);
}

inline nn::Tensor slow_input(std::uint64_t seed) { return random_input(seed, kSlowImageSize); }

/// Wall time of one warm batch-1 forward of slow_model(), in milliseconds.
inline double slow_forward_ms() {
  auto model = slow_model();
  model->set_deterministic_inference(true);
  const nn::Tensor x = slow_input(1);
  (void)model->predict(x);  // warm-up: first call packs weights
  const auto start = std::chrono::steady_clock::now();
  (void)model->predict(x);
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace paintplace::serve::testfix
