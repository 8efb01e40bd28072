// Shared pieces of the perfbench driver: options, the raw report it prints,
// benchmark-side spans, registry readers and the seeded input pipeline.
//
// The driver only calls the library's public API. It never reads
// core::StepTimings, net::Metrics or the flat metrics exposition, never sets
// ServeConfig::max_wait, and looks registry instruments up by name at run
// time (a missing one is reported as absent, not as an error), so the
// planned reshaping of those pieces does not break the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pix2pix.h"
#include "data/dataset.h"
#include "fpga/arch.h"
#include "fpga/netlist.h"
#include "nn/tensor.h"

namespace perfbench {

using paintplace::Index;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
/// Seconds on the system's monotonic clock (steady_clock is CLOCK_MONOTONIC),
/// the clock run.py's /proc/stat sampler stamps its readings with.
inline double monotonic_s(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

// ---- Options -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int setups = 3;                 ///< set-up repetitions; setup_s is their median
  std::vector<double> rates;      ///< swarm rate ladder (requests/s)
  std::vector<double> shares;     ///< swarm: share of the run each rung takes
  int cycles = 1;                 ///< swarm: times the ladder is played
  double hot_fraction = 1.0 / 3;  ///< swarm: share of requests from the hot set
  Index hot_set = 12;             ///< swarm: distinct hot placements
  double heatmap_every = 32;      ///< one request in this many asks for the heat map
  double tolerance = 0.0;         ///< max |served - direct predict| per pixel
  std::string spans_path;         ///< where the traced run writes its spans
};

// ---- Raw report -------------------------------------------------------------
// A flat JSON object assembled field by field; run.py turns it into metrics.

class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::int64_t v);
  Json& boolean(const std::string& key, bool v);
  Json& str(const std::string& key, const std::string& v);
  Json& nums(const std::string& key, const std::vector<double>& v);
  Json& obj(const std::string& key, const Json& v);
  Json& objs(const std::string& key, const std::vector<Json>& v);
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Named pass/fail output checks. A failed check fails the run.
class Checks {
 public:
  void add(const std::string& name, bool ok, const std::string& detail);
  bool all_ok() const;
  std::vector<Json> to_json() const;

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks_;
};

/// One per-layer metric of the traced run. status: "measured", "absent"
/// (the program does not export what it needs) or "not_run" (this workload
/// does not exercise the layer).
struct LayerMetric {
  double value = 0.0;
  std::string unit;
  std::string base;
  std::string status = "measured";
};
using Layers = std::map<std::string, LayerMetric>;

Json layers_json(const Layers& layers);

/// Everything one workload run reports back to main.
struct RunReport {
  std::vector<double> setup_s;
  Json raw;  ///< workload-specific samples and tallies
  Checks checks;
  Layers layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// ---- Benchmark-side spans ----------------------------------------------------
// Recorded only in traced runs, around the benchmark's own calls into the
// library. Kept in memory, written out once at the end.

class Spans {
 public:
  static Spans& instance();
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void write(const std::string& path) const;

  /// Total duration (ms) and count of spans named `name`.
  struct Total {
    double ms = 0.0;
    std::uint64_t count = 0;
    double mean_ms() const { return count == 0 ? 0.0 : ms / static_cast<double>(count); }
  };
  Total total(const std::string& name) const;

 private:
  friend class Span;
  struct Event {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  ///< index into events_, -1 for a root
    std::uint64_t request;
  };
  std::int64_t open(const char* name, std::uint64_t request, std::int64_t parent);
  void close(std::int64_t index);

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// RAII span: name, start, end, parent (the enclosing span on this thread)
/// and a request id shared by every span of one request (0 = none).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
  std::int64_t parent_ = -1;
};

// ---- Registry readers ---------------------------------------------------------

/// Snapshot of the registry instruments the per-layer table needs, looked up
/// by name. Absent instruments stay absent in deltas.
struct RegistrySnapshot {
  struct Value {
    bool present = false;
    double count = 0.0;  ///< counter value, or histogram sample count
    double sum = 0.0;    ///< histogram sum (recorded units)
  };
  std::map<std::string, Value> values;
  static RegistrySnapshot take();
  /// this - earlier, per instrument; absent if absent in either.
  RegistrySnapshot minus(const RegistrySnapshot& earlier) const;
  const Value& at(const std::string& name) const;
};

// ---- Model and inputs -----------------------------------------------------------

/// The serving-scale model: 32x32 input, base 32, max 256 channels.
paintplace::core::Pix2PixConfig model_config();

/// A generated design on an auto-sized fabric. The netlist is referenced by
/// placements, so a World is never copied or moved after construction.
struct World {
  paintplace::fpga::Netlist netlist;
  paintplace::fpga::Arch arch;
  double netgen_ms = 0.0;  ///< generate_packed + Arch::auto_sized
};

/// diffeq1's Table 2 block counts scaled by `lut_scale`, with 35% of its nets
/// (the full count does not route on the default fabric). The design is the
/// same for every benchmark seed: seeds vary the anneals, sweeps and request
/// schedules run on it, so runs with different seeds do comparable work.
std::unique_ptr<World> make_world(double lut_scale);

/// Canvas width placements are rendered at before resizing to the model's 32.
constexpr Index kRenderCanvas = 64;
constexpr Index kImageWidth = 32;
constexpr double kLambdaConnect = 0.1;

/// `count` distinct model inputs (1,4,32,32) rendered with data::make_input
/// from snapshots of seeded simulated-annealing runs — the live-forecast
/// stream of Sec. 5.4. No two returned tensors are equal. `render_ms`
/// accumulates the time spent in make_input (summed over workers).
std::vector<paintplace::nn::Tensor> anneal_inputs(const World& world, std::uint64_t seed,
                                                  Index count, double* render_ms);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

double median_of(std::vector<double> values);  ///< 0 for no values
double mean_of(const std::vector<double>& values);  ///< 0 for no values

// ---- Workloads -----------------------------------------------------------------

RunReport run_interactive(const Options& opt);
RunReport run_swarm(const Options& opt);
RunReport run_train(const Options& opt);
RunReport run_label(const Options& opt);

// ---- Per-layer probes (probes.cpp) ----------------------------------------------

/// Mean ms of CongestionForecaster::predict on `inputs` (batch 1), and of
/// predict_batch at batch 8 per sample, on a fresh deterministic model.
/// Returns the GEMM flops one sample's forward issues (gemm_flops_total
/// delta of one predict; 0 when the counter is absent).
double probe_predict(const std::vector<paintplace::nn::Tensor>& inputs, Layers& layers,
                     bool batch8);
/// Warm nn::sgemm / nn::sgemm_at over the U-Net forward shapes.
void probe_gemm(Layers& layers, bool batch8);
/// Cost of a disabled obs::Span.
void probe_disabled_span(Layers& layers);
/// Adam::step over a second model's generator and discriminator parameters.
void probe_adam(Layers& layers);
/// Traced train steps of a fresh model at batch 1 over `samples` for about
/// `seconds` after warm-up, and the Adam probes: train.data_ms,
/// core.step_minus_adam_ms, backend.gemm_gflop_per_step, nn.adam_*_ms.
/// Defined in workload_train.cpp, beside the workload whose steps it runs.
void probe_train(const std::vector<const paintplace::data::Sample*>& samples,
                 std::uint64_t seed, double seconds, Layers& layers);

}  // namespace perfbench
