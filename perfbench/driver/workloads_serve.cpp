// interactive and swarm: PPN1 forecasting against an in-process NetServer.
//
// Both configure the server through its defaults plus the model shape, so a
// change to the defaults (batching, cache, admission) shows up here.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/rng.h"
#include "core/forecaster.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace perfbench {

namespace pp = paintplace;
using pp::nn::Tensor;

namespace {

constexpr Index kWarmup = 16;  ///< distinct warm-up requests, enough to reach both replicas

pp::net::ModelFactory model_factory() {
  return [] { return std::make_shared<pp::core::CongestionForecaster>(model_config()); };
}

pp::net::NetServerConfig server_config() {
  // Defaults only: the model shape is all the benchmark decides.
  return pp::net::NetServerConfig{};
}

/// Direct predictions on an identically seeded model under deterministic
/// inference, compared with what the server returned.
void check_heatmaps(const std::vector<std::pair<Tensor, Tensor>>& served, double tolerance,
                    Checks& checks) {
  pp::core::CongestionForecaster reference(model_config());
  reference.set_deterministic_inference(true);
  double worst = 0.0;
  bool shapes_ok = true;
  for (const auto& [input, heatmap] : served) {
    const Tensor direct = reference.predict(input);
    if (direct.numel() != heatmap.numel()) {
      shapes_ok = false;
      continue;
    }
    for (Index i = 0; i < direct.numel(); ++i) {
      worst = std::max(worst, std::fabs(static_cast<double>(direct[i]) - heatmap[i]));
    }
  }
  checks.add("heatmap_matches_direct_predict",
             shapes_ok && !served.empty() && worst <= tolerance,
             std::to_string(served.size()) + " heat maps, max abs diff " + std::to_string(worst) +
                 " (tolerance " + std::to_string(tolerance) + ")");
}

std::string count(double v) { return std::to_string(static_cast<long long>(v)); }

/// Registry-derived serving metrics over one measured phase.
void serve_layers(const RegistrySnapshot& d, double rtt_p50_ms, std::uint64_t attempted,
                  std::uint64_t shed, std::uint64_t ok, double flops_per_sample,
                  Layers& layers) {
  const auto& wait = d.at("serve_batch_wait_seconds");
  const auto& exec = d.at("serve_batch_exec_seconds");
  const auto& batches = d.at("serve_batches_total");
  const auto& hits = d.at("serve_cache_hits_total");
  const auto& misses = d.at("serve_cache_misses_total");
  const auto& flops = d.at("gemm_flops_total");
  const auto& pk_hits = d.at("backend_pack_cache_hits_total");
  const auto& pk_misses = d.at("backend_pack_cache_misses_total");
  auto put = [&](const char* name, bool present, double value, const char* unit,
                 const std::string& base) {
    layers[name] = present ? LayerMetric{value, unit, base, "measured"}
                           : LayerMetric{0.0, unit, base, "absent"};
  };
  const double admitted = static_cast<double>(attempted - shed);
  const double wait_ms = wait.count > 0 ? 1e3 * wait.sum / wait.count : 0.0;
  const double exec_ms = exec.count > 0 ? 1e3 * exec.sum / exec.count : 0.0;
  const double samples = flops_per_sample > 0 ? flops.count / flops_per_sample : 0.0;
  put("serve.queue_wait_ms", wait.present, wait_ms, "ms",
      "mean of serve_batch_wait_seconds over " + count(wait.count) + " requests");
  put("serve.exec_ms", exec.present, exec_ms, "ms",
      "mean of serve_batch_exec_seconds over " + count(exec.count) + " batches");
  put("net.self_ms", wait.present && exec.present, rtt_p50_ms - wait_ms - exec_ms, "ms",
      "median client RTT " + std::to_string(rtt_p50_ms) + " ms minus queue wait and exec");
  layers["net.shed_frac"] = {static_cast<double>(shed) / static_cast<double>(attempted), "ratio",
                             "shed responses / " + std::to_string(attempted) + " attempted",
                             "measured"};
  put("serve.batch_mean", batches.present && flops.present && batches.count > 0,
      batches.count > 0 ? samples / batches.count : 0.0, "samples",
      "model samples (gemm_flops_total / flops per sample) / " +
          count(batches.count) + " serve_batches_total");
  put("serve.cache_hit_ratio", hits.present && misses.present,
      hits.count + misses.count > 0 ? hits.count / (hits.count + misses.count) : 0.0, "ratio",
      "serve_cache_hits_total / " + count(hits.count + misses.count) + " lookups");
  put("serve.model_sample_ratio", flops.present, admitted > 0 ? samples / admitted : 0.0,
      "ratio", "model samples / " + count(admitted) + " requests admitted");
  put("backend.gemm_gflop_per_request", flops.present,
      ok > 0 ? flops.count / 1e9 / static_cast<double>(ok) : 0.0, "GFLOP",
      "gemm_flops_total / " + std::to_string(ok) + " OK responses");
  put("backend.pack_cache_hit_ratio", pk_hits.present && pk_misses.present,
      pk_hits.count + pk_misses.count > 0 ? pk_hits.count / (pk_hits.count + pk_misses.count)
                                          : 0.0,
      "ratio", "backend_pack_cache hits / " + count(pk_hits.count + pk_misses.count) + " lookups");
}

/// Client tallies and registry deltas of the traced phase.
struct TracedPhase {
  RegistrySnapshot delta;
  double rtt_p50_ms = 0.0;
  std::uint64_t attempted = 0, shed = 0, ok = 0;
};

/// Common tail of both serving workloads' traced runs.
void finish_traced(const TracedPhase& phase, const std::vector<double>& untraced_ms,
                   const std::vector<double>& traced_ms, const std::vector<Tensor>& inputs,
                   bool batch8, const World& world, double render_ms_per_input, Layers& layers) {
  const double a = median_of(untraced_ms), b = median_of(traced_ms);
  layers["obs.trace_overhead_frac"] = {
      a > 0 ? (b - a) / a : 0.0, "ratio",
      "traced p50 " + std::to_string(b) + " ms vs untraced p50 " + std::to_string(a) + " ms",
      "measured"};
  layers["img.render_ms"] = {render_ms_per_input, "ms", "data::make_input per rendered input",
                             "measured"};
  layers["fpga.netgen_ms"] = {world.netgen_ms, "ms", "generate_packed + Arch::auto_sized",
                              "measured"};
  const double flops_per_sample = probe_predict(inputs, layers, batch8);
  serve_layers(phase.delta, phase.rtt_p50_ms, phase.attempted, phase.shed, phase.ok,
               flops_per_sample, layers);
  probe_gemm(layers, batch8);
  probe_disabled_span(layers);
}

// ---- A pipelined PPN1 connection that never blocks past a deadline ------------
// net::Client reads block, which would make an open-loop generator late; this
// speaks the same wire codec over a socket it can poll.

class PollConn {
 public:
  explicit PollConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect: " + std::string(std::strerror(errno)));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~PollConn() { ::close(fd_); }
  PollConn(const PollConn&) = delete;
  PollConn& operator=(const PollConn&) = delete;

  void send(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send: " + std::string(std::strerror(errno)));
      off += static_cast<std::size_t>(n);
    }
  }

  /// Waits until readable or `deadline`; reads what is there. Returns frames.
  std::vector<pp::net::Frame> poll_frames(Clock::time_point deadline) {
    const auto wait = std::max(Clock::duration::zero(), deadline - Clock::now());
    const timespec ts{
        static_cast<time_t>(std::chrono::duration_cast<std::chrono::seconds>(wait).count()),
        static_cast<long>((std::chrono::duration_cast<std::chrono::nanoseconds>(wait) %
                           std::chrono::seconds(1))
                              .count())};
    pollfd p{fd_, POLLIN, 0};
    std::vector<pp::net::Frame> frames;
    const int r = ::ppoll(&p, 1, &ts, nullptr);
    if (r < 0 && errno != EINTR) throw std::runtime_error("poll: " + std::string(std::strerror(errno)));
    if (r > 0) {
      std::uint8_t buf[1 << 16];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n == 0) throw std::runtime_error("server closed the connection");
      if (n > 0) reader_.feed(buf, static_cast<std::size_t>(n));
      while (auto f = reader_.next()) frames.push_back(std::move(*f));
    }
    return frames;
  }

 private:
  int fd_ = -1;
  pp::net::FrameReader reader_;
};

// ---- swarm schedule ------------------------------------------------------------

struct Request {
  double due_s = 0.0;  ///< offset from the rung start
  int conn = 0;
  Index input = 0;     ///< index into the request-input table
  bool hot = false;
  bool want_heatmap = false;
};

struct Rung {
  int cycle = 0;
  double rate = 0.0;
  double duration_s = 0.0;
  std::vector<Request> requests;
};

constexpr int kSwarmConns = 4;

/// Poisson arrivals at each ladder rate, the ladder played `opt.cycles`
/// times. Cold requests take fresh inputs in order (never repeated); hot
/// ones draw from a small hot set.
std::vector<Rung> make_schedule(const Options& opt, std::uint64_t seed, double seconds,
                                Index* cold_count) {
  pp::Rng rng(seed);
  std::vector<Rung> rungs;
  for (int cycle = 0; cycle < opt.cycles; ++cycle) {
  for (std::size_t k = 0; k < opt.rates.size(); ++k) {
    const double rate = opt.rates[k];
    const double rung_seconds = seconds * opt.shares[k] / opt.cycles;
    Rung rung{cycle, rate, rung_seconds, {}};
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      if (t >= rung_seconds) break;
      Request r;
      r.due_s = t;
      r.conn = static_cast<int>(rung.requests.size() % kSwarmConns);
      r.hot = rng.uniform() < opt.hot_fraction;
      r.input = r.hot ? static_cast<Index>(rng.uniform() * static_cast<double>(opt.hot_set)) %
                            opt.hot_set
                      : (*cold_count)++;
      r.want_heatmap = rng.uniform() * opt.heatmap_every < 1.0;
      rung.requests.push_back(r);
    }
    rungs.push_back(std::move(rung));
  }
  }
  return rungs;
}

struct RungResult {
  std::uint64_t sent = 0, ok = 0, shed = 0, failed = 0, bad_score = 0;
  std::vector<double> lat_ms;  ///< OK responses, due -> decoded, in due order
  std::vector<double> due_s;   ///< their due offsets
  std::vector<double> lag_ms;  ///< send time - due time, every request
  std::vector<std::pair<Index, Tensor>> heatmaps;  ///< (request index, served map)
};

/// Drives one rung: kSwarmConns threads, each sending its share of the
/// schedule when due and reading responses in between.
RungResult run_rung(const Rung& rung, std::vector<std::unique_ptr<PollConn>>& conns,
                    const std::vector<const Tensor*>& table) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<RungResult> parts(kSwarmConns);
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kSwarmConns);
  for (int c = 0; c < kSwarmConns; ++c) {
    threads.emplace_back([&, c] {
      try {
        RungResult& out = parts[static_cast<std::size_t>(c)];
        std::vector<Index> mine;
        for (Index i = 0; i < static_cast<Index>(rung.requests.size()); ++i) {
          if (rung.requests[static_cast<std::size_t>(i)].conn == c) mine.push_back(i);
        }
        struct Pending {
          Index index;
          Clock::time_point due;
        };
        std::unordered_map<std::uint64_t, Pending> pending;
        std::vector<std::pair<Index, double>> done;  // (schedule index, latency ms)
        std::size_t next = 0;
        const Clock::time_point drain_limit =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(rung.duration_s + 30.0));
        while (next < mine.size() || !pending.empty()) {
          const Clock::time_point now = Clock::now();
          if (now > drain_limit) break;
          if (next < mine.size()) {
            const Request& r = rung.requests[static_cast<std::size_t>(mine[next])];
            const Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(r.due_s));
            if (due <= now) {
              pp::net::ForecastRequest req;
              req.request_id = static_cast<std::uint64_t>(mine[next]) + 1;
              req.want_heatmap = r.want_heatmap;
              req.input = *table[static_cast<std::size_t>(mine[next])];
              Span span("net.send_forecast", req.request_id);
              conns[static_cast<std::size_t>(c)]->send(pp::net::encode_forecast_request(req));
              out.lag_ms.push_back(ms_between(due, now));
              pending[req.request_id] = {mine[next], due};
              out.sent += 1;
              next += 1;
              continue;
            }
          }
          Clock::time_point until = drain_limit;
          if (next < mine.size()) {
            until = start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                                rung.requests[static_cast<std::size_t>(mine[next])].due_s));
          }
          for (pp::net::Frame& f : conns[static_cast<std::size_t>(c)]->poll_frames(until)) {
            const Clock::time_point got = Clock::now();
            const pp::net::ForecastResponse resp = pp::net::decode_forecast_response(f);
            const auto it = pending.find(resp.request_id);
            if (it == pending.end()) throw std::runtime_error("response for unknown request");
            const Index idx = it->second.index;
            const double lat = ms_between(it->second.due, got);
            pending.erase(it);
            if (resp.status == pp::net::Status::kShed) {
              out.shed += 1;
            } else if (resp.status != pp::net::Status::kOk) {
              out.failed += 1;
            } else if (!std::isfinite(resp.congestion_score)) {
              out.bad_score += 1;
            } else {
              out.ok += 1;
              done.emplace_back(idx, lat);
              if (!resp.heatmap.empty()) out.heatmaps.emplace_back(idx, resp.heatmap);
            }
          }
        }
        out.failed += pending.size();  // never answered within the drain limit
        std::sort(done.begin(), done.end());
        for (const auto& [idx, lat] : done) {
          out.lat_ms.push_back(lat);
          out.due_s.push_back(rung.requests[static_cast<std::size_t>(idx)].due_s);
        }
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("swarm connection: " + e);
  }
  // Merge the connections' parts back into due order.
  RungResult all;
  std::vector<std::pair<double, double>> merged;
  for (RungResult& p : parts) {
    all.sent += p.sent, all.ok += p.ok, all.shed += p.shed, all.failed += p.failed;
    all.bad_score += p.bad_score;
    for (std::size_t i = 0; i < p.lat_ms.size(); ++i) merged.emplace_back(p.due_s[i], p.lat_ms[i]);
    all.lag_ms.insert(all.lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
    for (auto& h : p.heatmaps) all.heatmaps.push_back(std::move(h));
  }
  std::sort(merged.begin(), merged.end());
  for (const auto& [due, lat] : merged) {
    all.due_s.push_back(due);
    all.lat_ms.push_back(lat);
  }
  return all;
}

}  // namespace

// ---- interactive ---------------------------------------------------------------

RunReport run_interactive(const Options& opt) {
  RunReport rep;
  // One distinct input per request the run can make at 300 round trips a
  // second (about 230 today), plus the warm-up ones. A faster server uses
  // them up early and the run ends short, which the report notes.
  const Index pool = static_cast<Index>(std::ceil(opt.seconds * 300.0));
  std::unique_ptr<World> world;
  std::vector<Tensor> inputs;
  std::unique_ptr<pp::net::NetServer> server;
  std::unique_ptr<pp::net::Client> client;
  double render_ms = 0.0;
  for (int s = 0; s < opt.setups; ++s) {
    client.reset();
    server.reset();
    inputs.clear();
    world.reset();
    render_ms = 0.0;
    const Clock::time_point t0 = Clock::now();
    world = make_world(1.0);
    inputs = anneal_inputs(*world, opt.seed, pool + kWarmup, &render_ms);
    server = std::make_unique<pp::net::NetServer>(server_config(), model_factory());
    client = std::make_unique<pp::net::Client>("127.0.0.1", server->port());
    for (Index i = 0; i < kWarmup; ++i) client->forecast(inputs[static_cast<std::size_t>(pool + i)]);
    rep.setup_s.push_back(seconds_since(t0));
  }

  // Closed loop: one request in flight, the next sent when the last returns.
  std::uint64_t ok = 0, bad = 0, attempted = 0;
  std::vector<std::pair<Tensor, Tensor>> served;
  Index next = 0;
  std::vector<double> end_s;  // when each untraced answer arrived (monotonic seconds)
  auto phase = [&](double seconds, std::vector<double>& lat) {
    const Clock::time_point end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                     std::chrono::duration<double>(seconds));
    const Clock::time_point t_start = Clock::now();
    while (next < pool && Clock::now() < end) {
      const Tensor& x = inputs[static_cast<std::size_t>(next)];
      const bool want = static_cast<double>(next % static_cast<Index>(opt.heatmap_every)) == 0;
      const std::uint64_t id = static_cast<std::uint64_t>(next) + 1;
      ++next;
      ++attempted;
      const Clock::time_point t0 = Clock::now();
      pp::net::ForecastResponse resp;
      {
        Span span("net.Client::forecast", id);
        resp = client->forecast(x, want);
      }
      const Clock::time_point t1 = Clock::now();
      if (resp.status != pp::net::Status::kOk || !std::isfinite(resp.congestion_score)) {
        ++bad;
        continue;
      }
      ++ok;
      lat.push_back(ms_between(t0, t1));
      if (!Spans::instance().enabled()) end_s.push_back(monotonic_s(t1));
      if (want) served.emplace_back(x, resp.heatmap);
    }
    return seconds_since(t_start);
  };

  std::vector<double> lat, traced_lat;
  TracedPhase traced;
  double elapsed = 0.0;
  if (!opt.trace) {
    elapsed = phase(opt.seconds, lat);
  } else {
    // Half untraced (the overhead baseline), half traced.
    phase(opt.seconds / 2, lat);
    Spans::instance().set_enabled(true);
    const RegistrySnapshot before = RegistrySnapshot::take();
    const std::uint64_t ok_before = ok, attempted_before = attempted;
    phase(opt.seconds / 2, traced_lat);
    traced.delta = RegistrySnapshot::take().minus(before);
    Spans::instance().set_enabled(false);
    traced.rtt_p50_ms = median_of(traced_lat);
    traced.attempted = attempted - attempted_before;
    traced.ok = ok - ok_before;
  }
  client.reset();
  server->shutdown();

  if (opt.trace) {
    std::vector<Tensor> sample(inputs.begin(), inputs.begin() + std::min<Index>(64, next));
    finish_traced(traced, lat, traced_lat, sample, false, *world,
                  render_ms / static_cast<double>(inputs.size()), rep.layers);
  }

  rep.checks.add("responses_ok", bad == 0 && ok > 0,
                 std::to_string(ok) + " OK with finite score, " + std::to_string(bad) +
                     " not OK or non-finite");
  check_heatmaps(served, opt.tolerance, rep.checks);
  rep.attempted = attempted;
  rep.failed = bad;
  rep.raw.nums("lat_ms", lat)
      .nums("end_s", end_s)
      .nums("traced_lat_ms", traced_lat)
      .num("elapsed_s", elapsed)
      .integer("pool", pool)
      .boolean("exhausted", next >= pool);
  return rep;
}

// ---- swarm -------------------------------------------------------------------------

RunReport run_swarm(const Options& opt) {
  RunReport rep;
  // The traced run plays the ladder twice at half the rung length: untraced
  // (overhead baseline), then traced.
  const int passes = opt.trace ? 2 : 1;
  Index cold = 0;
  std::vector<std::vector<Rung>> schedule;
  for (int p = 0; p < passes; ++p) {
    schedule.push_back(make_schedule(opt, opt.seed * 1000003 + static_cast<std::uint64_t>(p),
                                     opt.seconds / passes, &cold));
  }

  std::unique_ptr<World> world;
  std::vector<Tensor> hot, cold_inputs;
  std::unique_ptr<pp::net::NetServer> server;
  std::vector<std::unique_ptr<PollConn>> conns;
  double render_ms = 0.0;
  for (int s = 0; s < opt.setups; ++s) {
    conns.clear();
    server.reset();
    hot.clear();
    cold_inputs.clear();
    world.reset();
    render_ms = 0.0;
    const Clock::time_point t0 = Clock::now();
    world = make_world(1.0);
    std::vector<Tensor> all = anneal_inputs(*world, opt.seed, cold + opt.hot_set + kWarmup, &render_ms);
    hot.assign(all.begin(), all.begin() + opt.hot_set);
    cold_inputs.assign(all.begin() + opt.hot_set, all.end());
    server = std::make_unique<pp::net::NetServer>(server_config(), model_factory());
    for (int c = 0; c < kSwarmConns; ++c) conns.push_back(std::make_unique<PollConn>(server->port()));
    pp::net::Client warm("127.0.0.1", server->port());
    for (Index i = 0; i < kWarmup; ++i) warm.forecast(cold_inputs[static_cast<std::size_t>(cold + i)]);
    rep.setup_s.push_back(seconds_since(t0));
  }

  std::vector<Json> rung_json;
  std::vector<std::pair<Tensor, Tensor>> served;
  std::uint64_t attempted = 0, failed = 0, bad_score = 0;
  // Latencies of the first (lowest) ladder rate, per pass: the traced run's
  // overhead is judged where queueing does not dominate.
  std::vector<std::vector<double>> pass_lat(2);
  TracedPhase traced;
  for (int p = 0; p < passes; ++p) {
    const bool is_traced = opt.trace && p == 1;
    Spans::instance().set_enabled(is_traced);
    const RegistrySnapshot before = RegistrySnapshot::take();
    std::uint64_t sent = 0, shed = 0, ok = 0;
    std::vector<double> lags, lats;
    for (const Rung& rung : schedule[static_cast<std::size_t>(p)]) {
      std::vector<const Tensor*> table;
      for (const Request& r : rung.requests) {
        table.push_back(r.hot ? &hot[static_cast<std::size_t>(r.input)]
                              : &cold_inputs[static_cast<std::size_t>(r.input)]);
      }
      RungResult res = run_rung(rung, conns, table);
      attempted += rung.requests.size();
      failed += res.failed + (rung.requests.size() - res.sent);
      bad_score += res.bad_score;
      sent += res.sent, shed += res.shed, ok += res.ok;
      lags.insert(lags.end(), res.lag_ms.begin(), res.lag_ms.end());
      lats.insert(lats.end(), res.lat_ms.begin(), res.lat_ms.end());
      if (rung.rate == opt.rates.front()) {
        auto& low = pass_lat[static_cast<std::size_t>(p)];
        low.insert(low.end(), res.lat_ms.begin(), res.lat_ms.end());
      }
      for (auto& [idx, map] : res.heatmaps) {
        if (served.size() < 64) served.emplace_back(*table[static_cast<std::size_t>(idx)], map);
      }
      if (p == passes - 1 || !opt.trace) {
        Json j;
        j.integer("cycle", rung.cycle)
            .num("rate", rung.rate)
            .num("duration_s", rung.duration_s)
            .integer("scheduled", static_cast<std::int64_t>(rung.requests.size()))
            .integer("sent", static_cast<std::int64_t>(res.sent))
            .integer("ok", static_cast<std::int64_t>(res.ok))
            .integer("shed", static_cast<std::int64_t>(res.shed))
            .integer("failed", static_cast<std::int64_t>(res.failed + res.bad_score))
            .nums("lat_ms", res.lat_ms)
            .nums("due_s", res.due_s)
            .nums("lag_ms", res.lag_ms);
        rung_json.push_back(j);
      }
    }
    if (is_traced) {
      traced.delta = RegistrySnapshot::take().minus(before);
      Spans::instance().set_enabled(false);
      traced.rtt_p50_ms = median_of(lats);
      traced.attempted = sent;
      traced.shed = shed;
      traced.ok = ok;
      rep.layers["gen_lag_ms"] = {mean_of(lags), "ms",
                                  "mean send time minus due time over " +
                                      std::to_string(lags.size()) + " requests",
                                  "measured"};
    }
  }
  conns.clear();
  server->shutdown();
  if (opt.trace) {
    std::vector<Tensor> sample(cold_inputs.begin(),
                               cold_inputs.begin() + std::min<std::size_t>(64, cold_inputs.size()));
    finish_traced(traced, pass_lat[0], pass_lat[1], sample, true, *world,
                  render_ms / static_cast<double>(cold + opt.hot_set + kWarmup), rep.layers);
  }

  rep.checks.add("responses_ok_or_shed", failed == 0 && bad_score == 0,
                 std::to_string(failed) + " failed or unanswered, " + std::to_string(bad_score) +
                     " OK with a non-finite score");
  check_heatmaps(served, opt.tolerance, rep.checks);
  rep.attempted = attempted;
  rep.failed = failed + bad_score;
  rep.raw.objs("rungs", rung_json);
  return rep;
}

}  // namespace perfbench
