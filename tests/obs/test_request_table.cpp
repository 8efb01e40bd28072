// Request-table tests. Sampling: deterministic head decisions across reset,
// retain-on-slow and retain-on-shed/error commits, the discard path,
// head-sampled finish semantics (recorded live, no retained_error bump),
// bypass for ids begin() never saw, and the trace-size reduction the swarm
// relies on. Stalls: deterministic tick() detection (reported exactly once,
// oldest-age gauge, off = silent), the force-retain that commits a stalled
// request's buffered spans, the live loopback case where a busy replica's
// stall reaches the PPN1 health frame, and the server's monitor tick that
// keeps the post-mortem's metrics fresh with stall detection off.
#include "obs/request_table.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::obs {
namespace {

RequestTable& table() { return RequestTable::instance(); }

/// Counter snapshots around a test body; the decision counters live in the
/// global registry and the test binary shares them across TESTs.
struct CounterDeltas {
  CounterDeltas()
      : sampled(MetricsRegistry::global().counter("obs_trace_sampled_total")),
        retained_slow(MetricsRegistry::global().counter("obs_trace_retained_slow_total")),
        retained_error(MetricsRegistry::global().counter("obs_trace_retained_error_total")),
        discarded(MetricsRegistry::global().counter("obs_trace_discarded_total")) {
    base_sampled = sampled.load();
    base_slow = retained_slow.load();
    base_error = retained_error.load();
    base_discarded = discarded.load();
  }
  std::uint64_t d_sampled() const { return sampled.load() - base_sampled; }
  std::uint64_t d_slow() const { return retained_slow.load() - base_slow; }
  std::uint64_t d_error() const { return retained_error.load() - base_error; }
  std::uint64_t d_discarded() const { return discarded.load() - base_discarded; }

  Counter& sampled;
  Counter& retained_slow;
  Counter& retained_error;
  Counter& discarded;
  std::uint64_t base_sampled, base_slow, base_error, base_discarded;
};

/// Every test drives the process tracer and request table; the fixture
/// restores the record-everything default afterwards so test_trace keeps
/// passing in the same binary.
class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tracer().disable();
    tracer().clear();
    table().disable_sampling();
    table().reset();
  }
  void TearDown() override {
    table().disable_sampling();
    table().reset();
    tracer().disable();
    tracer().clear();
  }

  static Tracer& tracer() { return Tracer::instance(); }

  /// Runs one request: begin, record `spans` spans under its trace id, then
  /// finish with the given latency/outcome.
  static void run_request(std::uint64_t id, double latency_s, RequestOutcome outcome,
                          int spans = 1) {
    table().begin(id);
    {
      ScopedTraceId scope(id);
      for (int i = 0; i < spans; ++i) {
        Span span("sampler.test.span", "test");
      }
    }
    table().finish(id, latency_s, outcome);
  }

  static SamplerConfig config(std::uint64_t every, double slow_s = 10.0) {
    SamplerConfig cfg;
    cfg.sample_every = every;
    cfg.slow_threshold_s = slow_s;
    return cfg;
  }
};

/// The head decision is observable through offer(): false = head-sampled
/// (record live), true = buffered provisionally.
std::vector<bool> head_decisions(int n, std::uint64_t first_id) {
  std::vector<bool> heads;
  SpanEvent event{};
  std::strncpy(event.name, "probe", sizeof(event.name) - 1);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t id = first_id + static_cast<std::uint64_t>(i);
    table().begin(id);
    event.trace_id = id;
    heads.push_back(!table().offer(event, nullptr));
    table().finish(id, 0.0, RequestOutcome::kOk);  // fast + ok: buffered ones discard
  }
  return heads;
}

TEST_F(SamplerTest, HeadDecisionsAreDeterministicAcrossReset) {
  table().configure_sampling(config(4));
  const std::vector<bool> first = head_decisions(64, 1000);
  table().reset();
  const std::vector<bool> second = head_decisions(64, 5000);
  EXPECT_EQ(first, second);  // same sequence position, ids irrelevant

  int heads = 0;
  for (bool h : first) heads += h ? 1 : 0;
  // 1-in-4 sampling over 64 requests: the deterministic hash keeps the rate
  // near the target (exact shape depends on the hash, not on luck).
  EXPECT_GE(heads, 8);
  EXPECT_LE(heads, 32);
}

TEST_F(SamplerTest, SlowRequestIsAlwaysCommitted) {
  CounterDeltas deltas;
  tracer().enable();
  table().configure_sampling(config(1U << 30, /*slow_s=*/0.5));  // head-sample ~never

  run_request(1, /*latency_s=*/2.0, RequestOutcome::kOk, /*spans=*/3);
  EXPECT_EQ(deltas.d_slow(), 1u);
  EXPECT_EQ(deltas.d_discarded(), 0u);
  EXPECT_EQ(tracer().recorded(), 3u);  // all three spans committed
  EXPECT_NE(tracer().dump_json().find("sampler.test.span"), std::string::npos);
}

TEST_F(SamplerTest, ShedAndErrorOutcomesAreRetained) {
  CounterDeltas deltas;
  tracer().enable();
  table().configure_sampling(config(1U << 30));

  run_request(2, 0.001, RequestOutcome::kShed);
  run_request(3, 0.001, RequestOutcome::kError);
  EXPECT_EQ(deltas.d_error(), 2u);
  EXPECT_EQ(tracer().recorded(), 2u);
}

TEST_F(SamplerTest, FastHealthyRequestIsDiscarded) {
  CounterDeltas deltas;
  tracer().enable();
  table().configure_sampling(config(1U << 30));

  table().begin(4);
  {
    ScopedTraceId scope(4);
    for (int i = 0; i < 5; ++i) Span span("sampler.test.span", "test");
  }
  EXPECT_FALSE(table().finish(4, 0.001, RequestOutcome::kOk));  // no exemplar for it
  EXPECT_EQ(deltas.d_discarded(), 1u);
  EXPECT_EQ(tracer().recorded(), 0u);  // nothing committed
  EXPECT_EQ(table().size(), 0u);       // and nothing left buffered
}

TEST_F(SamplerTest, HeadSampledRequestsCommitLiveEvenWhenShed) {
  CounterDeltas deltas;
  tracer().enable();
  table().configure_sampling(config(1));  // sample_every=1: everything head-sampled

  run_request(5, 0.001, RequestOutcome::kShed);
  // Counted at begin() as head-sampled; finish() must not double-count it
  // as a tail retention — the coverage invariant the swarm bench asserts is
  // retained_error + head_sampled >= sheds.
  EXPECT_EQ(deltas.d_sampled(), 1u);
  EXPECT_EQ(deltas.d_error(), 0u);
  EXPECT_EQ(tracer().recorded(), 1u);  // recorded live, not via commit
}

TEST_F(SamplerTest, UnknownTraceIdsBypassTheSampler) {
  tracer().enable();
  table().configure_sampling(config(1U << 30));

  // Id 0 (non-request instrumentation) and an id begin() never saw both
  // record directly even while sampling is active.
  { Span span("sampler.test.free", "test"); }
  {
    ScopedTraceId scope(777777);
    Span span("sampler.test.foreign", "test");
  }
  EXPECT_EQ(tracer().recorded(), 2u);
}

TEST_F(SamplerTest, SamplingShrinksTheTraceAtLeastTenfold) {
  tracer().enable();

  // Full tracing: every request's spans land in the rings.
  for (int i = 0; i < 400; ++i) {
    ScopedTraceId scope(static_cast<std::uint64_t>(10000 + i));
    Span a("sampler.test.outer", "test");
    Span b("sampler.test.inner", "test");
  }
  const std::size_t full_events = tracer().recorded();
  const std::size_t full_bytes = tracer().dump_json().size();
  tracer().clear();

  table().configure_sampling(config(100));
  for (int i = 0; i < 400; ++i) {
    run_request(static_cast<std::uint64_t>(20000 + i), 0.001, RequestOutcome::kOk,
                /*spans=*/2);
  }
  const std::size_t sampled_events = tracer().recorded();
  const std::size_t sampled_bytes = tracer().dump_json().size();

  EXPECT_EQ(full_events, 800u);
  EXPECT_GT(sampled_events, 0u);  // the head-sampled steady state survives
  EXPECT_GE(full_events, 10 * sampled_events);
  EXPECT_GE(full_bytes, 10 * sampled_bytes);
}

/// Captures every structured line and silences rate limiting so the stall
/// report is always observable; restores the process logger, the stall
/// threshold and an empty table afterwards.
class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = Log::instance().config();
    LogConfig cfg = saved_;
    cfg.min_level = LogLevel::kDebug;
    cfg.format = LogFormat::kKeyValue;
    cfg.rate_limit_per_key = 0;
    Log::instance().configure(cfg);
    Log::instance().reset_rate_limits();
    // The sink runs on whatever thread emits (the monitor, the net log
    // loop, this test) — the capture buffer needs its own lock.
    Log::instance().set_sink([this](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mu_);
      lines_.push_back(line);
    });
    table().reset();
  }
  void TearDown() override {
    table().configure_stalls(WatchdogConfig{});
    table().reset();
    Log::instance().set_sink(nullptr);
    Log::instance().configure(saved_);
  }

  bool logged(const std::string& needle) const {
    std::lock_guard<std::mutex> lock(lines_mu_);
    for (const std::string& line : lines_) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  static WatchdogConfig stall_config(double stall_ms) {
    WatchdogConfig cfg;
    cfg.stall_ms = stall_ms;
    return cfg;
  }

  LogConfig saved_;
  mutable std::mutex lines_mu_;
  std::vector<std::string> lines_;
};

TEST_F(WatchdogTest, ReportsAStalledRequestExactlyOnce) {
  table().configure_stalls(stall_config(50.0));
  const std::uint64_t base = table().stalls();

  table().begin(41);
  table().admit(41, /*replica=*/1);
  table().begin(42);
  table().admit(42, /*replica=*/1);
  table().begin(43);  // begun, never admitted: not aged
  ASSERT_EQ(table().size(), 3u);
  const double t0 = table().now_s();

  table().tick(t0 + 0.010);  // 10ms old: under threshold
  EXPECT_EQ(table().stalls() - base, 0u);

  table().finish(41, 0.01, RequestOutcome::kOk);
  table().tick(t0 + 0.200);  // 200ms old: stalled
  EXPECT_EQ(table().stalls() - base, 1u);
  EXPECT_GE(table().oldest_request_ms(), 200.0);
  EXPECT_TRUE(logged("watchdog.stall"));
  EXPECT_TRUE(logged("trace=42"));
  EXPECT_TRUE(logged("replica=1"));
  EXPECT_TRUE(logged("replica_in_flight=0,1"));

  table().tick(t0 + 0.400);  // still stuck: no duplicate report
  EXPECT_EQ(table().stalls() - base, 1u);
  EXPECT_GE(MetricsRegistry::global().gauge("obs_watchdog_stalls").value(), 1.0);

  table().finish(42, 0.4, RequestOutcome::kOk);
  table().finish(43, 0.4, RequestOutcome::kOk);
  EXPECT_EQ(table().size(), 0u);
  table().tick(t0 + 0.500);
  EXPECT_EQ(table().oldest_request_ms(), 0.0);  // nothing in flight
}

TEST_F(WatchdogTest, DisabledWatchdogTracksAndReportsNothing) {
  table().configure_stalls(WatchdogConfig{});  // stall_ms defaults to 0
  const std::uint64_t base = table().stalls();
  table().begin(7);
  table().admit(7, 0);
  // A record exists only while a consumer is on (here: at most the flight
  // recorder, which an earlier test in this binary may have enabled).
  EXPECT_EQ(table().size(), FlightRecorder::instance().enabled() ? 1u : 0u);
  table().tick(table().now_s() + 10.0);
  EXPECT_EQ(table().stalls(), base);
  EXPECT_EQ(table().oldest_request_ms(), 0.0);
  table().finish(7, 10.0, RequestOutcome::kOk);
  table().finish(8, 0.0, RequestOutcome::kOk);  // unknown id: harmless
}

TEST_F(WatchdogTest, UntracedRequestsAreIgnored) {
  table().configure_stalls(stall_config(50.0));
  table().begin(0);  // trace id 0 = untraced; nothing to force-retain or name
  table().admit(0, 0);
  EXPECT_EQ(table().size(), 0u);
}

TEST_F(WatchdogTest, StallForceRetainsTheBufferedTrace) {
  Tracer& tracer = Tracer::instance();
  tracer.disable();
  tracer.clear();
  tracer.enable();
  SamplerConfig scfg;
  scfg.sample_every = 1U << 30;  // head-sample ~never: spans buffer provisionally
  scfg.slow_threshold_s = 10.0;
  table().configure_sampling(scfg);
  Counter& retained_stall = MetricsRegistry::global().counter("obs_trace_retained_stall_total");
  const std::uint64_t base_retained = retained_stall.load();
  const std::uint64_t base_stalls = table().stalls();

  table().begin(99);
  {
    ScopedTraceId scope(99);
    Span span("watchdog.test.span", "test");
  }
  EXPECT_EQ(tracer.recorded(), 0u);  // buffered, not committed

  table().configure_stalls(stall_config(50.0));
  table().admit(99, 0);
  table().tick(table().now_s() + 0.200);
  EXPECT_EQ(table().stalls() - base_stalls, 1u);

  // The stall committed the buffered span through the tail path …
  EXPECT_EQ(tracer.recorded(), 1u);
  EXPECT_EQ(retained_stall.load() - base_retained, 1u);
  EXPECT_NE(tracer.dump_json().find("watchdog.test.span"), std::string::npos);
  // … and the eventual finish() sees an already-retained trace (kept).
  EXPECT_TRUE(table().finish(99, 0.001, RequestOutcome::kOk));

  table().disable_sampling();
  tracer.disable();
  tracer.clear();
}

TEST_F(WatchdogTest, WedgedReplicaStallReachesTheHealthFrame) {
  // Four requests queued on a replica that runs one per forward stay in
  // flight for about four slow forwards. The stall threshold is a quarter of
  // one measured forward; while the requests are in flight the test ticks
  // the table itself, one forward ahead of now (the monitor thread's own
  // ticks may report stalls too).
  const double forward_ms = serve::testfix::slow_forward_ms();
  net::NetServerConfig cfg;
  cfg.pool.replicas = 1;
  cfg.pool.serve.max_batch = 1;
  cfg.watchdog.stall_ms = forward_ms / 4.0;
  net::NetServer server(cfg, [] { return serve::testfix::slow_model(); });
  ASSERT_GT(server.port(), 0);
  const std::uint64_t base = table().stalls();

  net::Client client("127.0.0.1", server.port());
  constexpr int kQueued = 4;
  for (std::uint64_t id = 1; id <= kQueued; ++id) {
    client.send_forecast(id, serve::testfix::slow_input(id));
  }
  while (server.metrics().requests_accepted.load() == 0) std::this_thread::yield();
  table().tick(table().now_s() + forward_ms * 1e-3);
  for (int i = 0; i < kQueued; ++i) {
    EXPECT_EQ(client.read_forecast_response().status, net::Status::kOk);
  }
  // Every record finishes just after its response is written; once they
  // are gone no further stall can be filed.
  while (table().size() != 0) std::this_thread::yield();

  EXPECT_GE(table().stalls() - base, 1u);
  const net::HealthInfo health = client.health();
  EXPECT_GE(health.watchdog_stalls, 1u);
  EXPECT_EQ(health.watchdog_stalls, table().stalls());
  EXPECT_TRUE(logged("watchdog.stall"));
}

TEST_F(WatchdogTest, MonitorRefreshesPostmortemMetricsWithStallDetectionOff) {
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.enable();
  const std::string path = ::testing::TempDir() + "monitor_postmortem.json";
  auto dump = [&] {
    EXPECT_TRUE(recorder.dump(path));
    std::string out;
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
      char buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
      std::fclose(f);
    }
    return out;
  };
  // The snapshot embeds the exposition JSON-escaped: newline is "\n".
  constexpr int kRequests = 5;
  const std::string needle = "net_requests_completed " + std::to_string(kRequests) + "\\n";

  net::NetServerConfig cfg;
  cfg.pool.replicas = 1;  // stall_ms stays 0: no stall detection
  net::NetServer server(cfg, [] { return serve::testfix::tiny_model(); });
  ASSERT_EQ(dump().find(needle), std::string::npos);

  net::Client client("127.0.0.1", server.port());
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(client.forecast(serve::testfix::random_input(600 + i)).status, net::Status::kOk);
  }
  while (server.metrics().requests_completed.load() < kRequests) std::this_thread::yield();

  // The server's monitor ticks every NetServer::kTickPeriodS; allow many
  // periods.
  bool refreshed = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!refreshed && std::chrono::steady_clock::now() < deadline) {
    refreshed = dump().find(needle) != std::string::npos;
    if (!refreshed) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(refreshed) << "post-mortem metrics never showed the served requests";
}

}  // namespace
}  // namespace paintplace::obs
