#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string_view>
#include <unordered_set>

#include "bench.h"
#include "common/parallel.h"
#include "data/dataset.h"
#include "fpga/design_suite.h"
#include "fpga/netgen.h"
#include "obs/metrics_registry.h"
#include "place/sa_placer.h"

namespace perfbench {

namespace pp = paintplace;

// ---- Json ---------------------------------------------------------------------

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Json& Json::num(const std::string& key, double v) {
  fields_.emplace_back(key, number(v));
  return *this;
}
Json& Json::integer(const std::string& key, std::int64_t v) {
  fields_.emplace_back(key, std::to_string(v));
  return *this;
}
Json& Json::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}
Json& Json::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, quote(v));
  return *this;
}
Json& Json::nums(const std::string& key, const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += number(v[i]);
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}
Json& Json::obj(const std::string& key, const Json& v) {
  fields_.emplace_back(key, v.render());
  return *this;
}
Json& Json::objs(const std::string& key, const std::vector<Json>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += v[i].render();
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}
std::string Json::render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) out += ',';
    out += quote(fields_[i].first);
    out += ':';
    out += fields_[i].second;
  }
  return out + "}";
}

void Checks::add(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
  if (!ok) std::fprintf(stderr, "perfbench: CHECK FAILED %s: %s\n", name.c_str(), detail.c_str());
}
bool Checks::all_ok() const {
  return std::all_of(checks_.begin(), checks_.end(), [](const Check& c) { return c.ok; });
}
std::vector<Json> Checks::to_json() const {
  std::vector<Json> out;
  for (const Check& c : checks_) {
    Json j;
    j.str("name", c.name).boolean("ok", c.ok).str("detail", c.detail);
    out.push_back(j);
  }
  return out;
}

Json layers_json(const Layers& layers) {
  Json out;
  for (const auto& [name, m] : layers) {
    Json j;
    j.num("value", m.value).str("unit", m.unit).str("base", m.base).str("status", m.status);
    out.obj(name, j);
  }
  return out;
}

// ---- Spans ----------------------------------------------------------------------

namespace {
thread_local std::int64_t t_open_span = -1;
}

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

std::int64_t Spans::open(const char* name, std::uint64_t request, std::int64_t parent) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({name, now, -1, parent, request});
  return static_cast<std::int64_t>(events_.size()) - 1;
}

void Spans::close(std::int64_t index) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  events_[static_cast<std::size_t>(index)].end_ns = now;
}

Span::Span(const char* name, std::uint64_t request) {
  Spans& spans = Spans::instance();
  if (!spans.enabled()) return;
  parent_ = t_open_span;
  index_ = spans.open(name, request, parent_);
  t_open_span = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  Spans::instance().close(index_);
  t_open_span = parent_;
}

Spans::Total Spans::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Total t;
  for (const Event& e : events_) {
    if (e.end_ns >= 0 && name == e.name) {
      t.ms += static_cast<double>(e.end_ns - e.start_ns) * 1e-6;
      t.count += 1;
    }
  }
  return t;
}

void Spans::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":" << quote(e.name)
        << ",\"start_ns\":" << e.start_ns << ",\"end_ns\":" << e.end_ns
        << ",\"parent\":" << e.parent << ",\"request\":" << e.request << "}";
  }
  out << "\n]}\n";
  if (!out) std::fprintf(stderr, "perfbench: could not write spans to %s\n", path.c_str());
}

// ---- Registry -------------------------------------------------------------------

namespace {
const char* const kCounters[] = {
    "serve_batches_total",           "serve_coalesced_total",
    "serve_cache_hits_total",        "serve_cache_misses_total",
    "gemm_calls_total",              "gemm_flops_total",
    "backend_pack_cache_hits_total", "backend_pack_cache_misses_total",
};
const char* const kHistograms[] = {"serve_batch_wait_seconds", "serve_batch_exec_seconds"};
}  // namespace

RegistrySnapshot RegistrySnapshot::take() {
  const pp::obs::MetricsRegistry& reg = pp::obs::MetricsRegistry::global();
  RegistrySnapshot s;
  for (const char* name : kCounters) {
    Value& v = s.values[name];
    if (const pp::obs::Counter* c = reg.find_counter(name)) {
      v.present = true;
      v.count = static_cast<double>(c->load());
    }
  }
  for (const char* name : kHistograms) {
    Value& v = s.values[name];
    if (const pp::obs::Histogram* h = reg.find_histogram(name)) {
      v.present = true;
      v.count = static_cast<double>(h->count());
      v.sum = h->sum();
    }
  }
  return s;
}

RegistrySnapshot RegistrySnapshot::minus(const RegistrySnapshot& earlier) const {
  RegistrySnapshot d;
  for (const auto& [name, v] : values) {
    const Value& e = earlier.at(name);
    Value& out = d.values[name];
    out.present = v.present && e.present;
    if (out.present) {
      out.count = v.count - e.count;
      out.sum = v.sum - e.sum;
    }
  }
  return d;
}

const RegistrySnapshot::Value& RegistrySnapshot::at(const std::string& name) const {
  static const Value absent;
  const auto it = values.find(name);
  return it == values.end() ? absent : it->second;
}

// ---- Model, design and inputs -------------------------------------------------------

pp::core::Pix2PixConfig model_config() {
  pp::core::Pix2PixConfig cfg;
  cfg.generator.in_channels = 4;
  cfg.generator.out_channels = 3;
  cfg.generator.image_size = kImageWidth;
  cfg.generator.base_channels = 32;
  cfg.generator.max_channels = 256;
  cfg.disc_base_channels = 32;
  cfg.seed = 1;
  return cfg;
}

std::unique_ptr<World> make_world(double lut_scale) {
  constexpr double kNetScale = 0.35;
  constexpr std::uint64_t kDesignSeed = 0x5eed0001ULL;
  const Clock::time_point t0 = Clock::now();
  pp::fpga::DesignSpec spec =
      pp::fpga::scale_spec(pp::fpga::design_by_name("diffeq1"), lut_scale);
  spec.num_nets =
      std::max<Index>(2, static_cast<Index>(static_cast<double>(spec.num_nets) * kNetScale));
  pp::fpga::Netlist netlist = pp::fpga::generate_packed(spec, pp::fpga::NetgenParams{}, kDesignSeed);
  const pp::fpga::NetlistStats st = netlist.stats();
  pp::fpga::Arch arch = pp::fpga::Arch::auto_sized(
      {st.num_clbs, st.num_inputs + st.num_outputs, st.num_mems, st.num_mults});
  auto world = std::unique_ptr<World>(new World{std::move(netlist), std::move(arch), 0.0});
  world->netgen_ms = seconds_since(t0) * 1e3;
  return world;
}

std::vector<pp::nn::Tensor> anneal_inputs(const World& world, std::uint64_t seed, Index count,
                                          double* render_ms) {
  const pp::img::PixelGeometry geom(world.arch, kRenderCanvas);
  std::vector<pp::nn::Tensor> out;
  std::unordered_set<std::size_t> seen;  // hashes of the tensors already returned
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t run = 0; static_cast<Index>(out.size()) < count; ++run) {
    PP_CHECK_MSG(run < 64, "perfbench: annealing yields too few distinct snapshots");
    // Keep a snapshot every few dozen accepted moves of one anneal (an anneal
    // accepts tens of thousands), then render them across the worker pool.
    std::vector<pp::place::Placement> snaps;
    pp::place::PlacerOptions popt;
    popt.seed = seed * 7919 + run;
    pp::place::SaPlacer placer(world.arch, world.netlist, popt);
    placer.set_snapshot(
        [&](const pp::place::Placement& p, Index, double) { snaps.push_back(p); }, 40);
    snaps.push_back(placer.place());
    // Render no more than the remaining need plus slack for duplicates.
    const std::size_t need = static_cast<std::size_t>(count) - out.size();
    snaps.resize(std::min(snaps.size(), need + need / 8 + 8), snaps.back());
    // Rendered in chunks, so only one chunk's tensors exist twice at once.
    constexpr std::size_t kChunk = 512;
    for (std::size_t lo = 0; lo < snaps.size() && static_cast<Index>(out.size()) < count;
         lo += kChunk) {
      const std::size_t n = std::min(kChunk, snaps.size() - lo);
      std::vector<pp::nn::Tensor> rendered(n);
      std::vector<double> took(n);
      pp::parallel_for_each(static_cast<Index>(n), [&](Index i) {
        const Clock::time_point t0 = Clock::now();
        rendered[static_cast<std::size_t>(i)] = pp::data::make_input(
            snaps[lo + static_cast<std::size_t>(i)], geom, kImageWidth, kLambdaConnect);
        took[static_cast<std::size_t>(i)] = seconds_since(t0) * 1e3;
      });
      for (std::size_t i = 0; i < n && static_cast<Index>(out.size()) < count; ++i) {
        if (render_ms != nullptr) *render_ms += took[i];
        const pp::nn::Tensor& t = rendered[i];
        const std::size_t key = std::hash<std::string_view>{}(
            std::string_view(reinterpret_cast<const char*>(t.data()),
                             static_cast<std::size_t>(t.numel()) * sizeof(float)));
        if (!seen.insert(key).second) continue;
        out.push_back(t);
      }
    }
  }
  return out;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean_of(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
