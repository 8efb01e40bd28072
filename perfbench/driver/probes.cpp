// Per-layer probes for traced runs: each times one public entry point of a
// layer on its own, outside the measured phase, so the end-to-end numbers
// of the same run are untouched.
#include <algorithm>

#include "bench.h"
#include "common/rng.h"
#include "core/forecaster.h"
#include "nn/adam.h"
#include "nn/gemm.h"
#include "nn/tensor_ops.h"
#include "obs/trace.h"

namespace perfbench {

namespace pp = paintplace;
using pp::nn::Tensor;

namespace {

/// Repeats `fn` until `min_seconds` have passed (at least `min_reps` times);
/// returns mean ms per call.
template <typename Fn>
double time_mean_ms(Fn&& fn, double min_seconds, int min_reps) {
  int reps = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    fn(reps);
    ++reps;
  } while (reps < min_reps || seconds_since(t0) < min_seconds);
  return seconds_since(t0) * 1e3 / reps;
}

double gemm_flops_counter() {
  const RegistrySnapshot s = RegistrySnapshot::take();
  const auto& v = s.at("gemm_flops_total");
  return v.present ? v.count : -1.0;
}

struct GemmShape {
  bool transposed_a = false;  ///< sgemm_at (deconv) rather than sgemm (conv)
  Index M = 0, N = 0, K = 0;
  double flops() const { return 2.0 * static_cast<double>(M) * static_cast<double>(N) * K; }
};

/// The GEMMs one generator forward runs, derived from the U-Net config the
/// way its layers lower: conv -> sgemm(Cout, Ho*Wo*batch, Cin*16);
/// deconv -> sgemm_at(Cout*16, H*W*batch, Cin), all skips concatenated.
std::vector<GemmShape> unet_forward_shapes(Index batch) {
  const pp::core::GeneratorConfig g = model_config().generator;
  const Index d = g.depth();
  std::vector<GemmShape> shapes;
  for (Index i = 0; i < d; ++i) {
    const Index cin = i == 0 ? g.in_channels : g.channels_at(i - 1);
    const Index sp = g.image_size >> (i + 1);
    shapes.push_back({false, g.channels_at(i), batch * sp * sp, cin * 16});
  }
  for (Index i = d - 1; i >= 0; --i) {
    const Index cin = i == d - 1 ? g.channels_at(d - 1) : g.channels_at(i) * 2;
    const Index cout = i == 0 ? g.out_channels : g.channels_at(i - 1);
    const Index sp = g.image_size >> (i + 1);
    shapes.push_back({true, cout * 16, batch * sp * sp, cin});
  }
  return shapes;
}

}  // namespace

double probe_predict(const std::vector<Tensor>& inputs, Layers& layers, bool batch8) {
  pp::core::CongestionForecaster model(model_config());
  model.set_deterministic_inference(true);
  for (int i = 0; i < 3; ++i) model.predict(inputs[static_cast<std::size_t>(i) % inputs.size()]);
  const double before = gemm_flops_counter();
  model.predict(inputs.front());
  const double after = gemm_flops_counter();
  const double flops_per_sample = before >= 0 ? after - before : 0.0;

  const double b1 = time_mean_ms(
      [&](int r) {
        Span span("core.predict");
        model.predict(inputs[static_cast<std::size_t>(r) % inputs.size()]);
      },
      0.4, 16);
  layers["core.predict_ms"] = {b1, "ms", "mean CongestionForecaster::predict, batch 1",
                               "measured"};
  if (batch8) {
    std::vector<const Tensor*> eight;
    for (std::size_t i = 0; i < 8; ++i) eight.push_back(&inputs[i % inputs.size()]);
    const Tensor batch = pp::nn::stack_batch(eight);
    model.predict_batch(batch);
    const double b8 = time_mean_ms(
        [&](int) {
          Span span("core.predict_batch");
          model.predict_batch(batch);
        },
        0.4, 8);
    layers["core.predict_batch8_ms_per_sample"] = {
        b8 / 8.0, "ms", "mean CongestionForecaster::predict_batch at batch 8, per sample",
        "measured"};
  }
  return flops_per_sample;
}

void probe_gemm(Layers& layers, bool batch8) {
  pp::Rng rng(11);
  double all_ms = 0.0, skinny_ms = 0.0, flops = 0.0;
  for (const GemmShape& s : unet_forward_shapes(batch8 ? 8 : 1)) {
    std::vector<float> a(static_cast<std::size_t>(s.M * s.K)),
        b(static_cast<std::size_t>(s.K * s.N)), c(static_cast<std::size_t>(s.M * s.N));
    for (float& v : a) v = static_cast<float>(rng.uniform() - 0.5);
    for (float& v : b) v = static_cast<float>(rng.uniform() - 0.5);
    auto call = [&](int) {
      Span span(s.transposed_a ? "nn.sgemm_at" : "nn.sgemm");
      if (s.transposed_a) {
        pp::nn::sgemm_at(s.M, s.N, s.K, 1.0f, a.data(), b.data(), 0.0f, c.data());
      } else {
        pp::nn::sgemm(s.M, s.N, s.K, 1.0f, a.data(), b.data(), 0.0f, c.data());
      }
    };
    for (int i = 0; i < 3; ++i) call(i);  // warm: workspace and pool ready
    const double ms = time_mean_ms(call, 0.05, 8);
    all_ms += ms;
    if (s.N <= 4) skinny_ms += ms;
    flops += s.flops();
  }
  if (!batch8) {
    layers["backend.gemm_fwd_b1_ms"] = {all_ms, "ms",
                                        "sum over the U-Net forward GEMM shapes, batch 1, warm",
                                        "measured"};
    layers["backend.gemm_fwd_b1_skinny_ms"] = {skinny_ms, "ms", "the batch-1 shapes with N <= 4",
                                               "measured"};
  } else {
    layers["backend.gemm_fwd_b8_gflops"] = {flops / (all_ms * 1e-3) / 1e9, "GFLOP/s",
                                            "U-Net forward GEMM flops / time, batch 8, warm",
                                            "measured"};
  }
}

void probe_disabled_span(Layers& layers) {
  if (pp::obs::Tracer::instance().enabled()) {
    layers["obs.disabled_span_ns"] = {0.0, "ns", "tracer enabled in this process", "absent"};
    return;
  }
  constexpr int kSpans = 2'000'000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    pp::obs::Span span("perfbench.disabled", "bench");
  }
  layers["obs.disabled_span_ns"] = {seconds_since(t0) * 1e9 / kSpans, "ns",
                                    "mean obs::Span construct+destruct, tracer off", "measured"};
}

void probe_adam(Layers& layers) {
  // A second model: the one under test keeps its own optimizer state.
  pp::core::Pix2Pix other(model_config());
  pp::Rng rng(23);
  auto fill = [&](std::vector<pp::nn::Parameter*> params) {
    for (pp::nn::Parameter* p : params) {
      for (Index i = 0; i < p->grad.numel(); ++i) p->grad[i] = static_cast<float>(rng.uniform() - 0.5) * 1e-2f;
    }
    return params;
  };
  pp::nn::Adam opt_g(fill(other.generator().parameters()), model_config().adam);
  pp::nn::Adam opt_d(fill(other.discriminator().parameters()), model_config().adam);
  opt_g.step();
  opt_d.step();
  const double g = time_mean_ms(
      [&](int) {
        Span span("nn.Adam::step");
        opt_g.step();
      },
      0.3, 3);
  const double d = time_mean_ms(
      [&](int) {
        Span span("nn.Adam::step");
        opt_d.step();
      },
      0.1, 3);
  layers["nn.adam_g_ms"] = {g, "ms", "mean nn::Adam::step over a generator's parameters",
                            "measured"};
  layers["nn.adam_d_ms"] = {d, "ms", "mean nn::Adam::step over a discriminator's parameters",
                            "measured"};
}

}  // namespace perfbench
