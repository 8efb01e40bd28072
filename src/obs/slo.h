// paintplace::obs — rolling-window SLO monitor.
//
// Watches the serving objectives — p99 latency and error rate — over a
// sliding window, computed from the net front-end's instruments already in
// the MetricsRegistry (no second recording path on the request flow: the
// monitor only *reads*, on its own cadence). Each tick snapshots the
// net_request_latency_seconds bucket counts and the net_requests_completed,
// net_requests_failed and net_shed_* counters; the windowed view is the
// delta between the newest snapshot and the one just outside the window, so
// the p99 is a true windowed quantile, not a since-boot cumulative one.
//
// Burn rate is observed/objective: 1.0 means the window is exactly at the
// objective, 2.0 means twice over it. The state is breached above 1 and
// warning above kWarningBurn. Both rates are exported as gauges —
// slo_latency_burn_rate, slo_error_burn_rate, plus slo_window_p99_seconds,
// slo_window_error_rate and slo_state (0 healthy / 1 warning / 2 breached)
// — and reported in the PPN1 health frame (net/wire.h kHealthResponse).
//
// The monitor owns no thread: the net server's monitor thread calls tick()
// every NetServer::kTickPeriodS. tick(double) takes an explicit timestamp
// so tests can drive the window edge deterministically.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>

#include "obs/metrics_registry.h"

namespace paintplace::obs {

struct SloConfig {
  double window_s = 60.0;
  double latency_objective_s = 0.250;  ///< windowed p99 budget
  double error_rate_objective = 0.01;  ///< (failed+shed)/total budget
};

enum class SloState : std::uint8_t { kHealthy = 0, kWarning = 1, kBreached = 2 };

const char* to_string(SloState state);

class SloMonitor {
 public:
  /// Burn rate above which the state degrades to kWarning (kBreached at 1).
  static constexpr double kWarningBurn = 0.5;

  explicit SloMonitor(const SloConfig& config,
                      MetricsRegistry& registry = MetricsRegistry::global());

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  /// One snapshot + recompute at an explicit time (seconds on the
  /// monitor's own axis; tests pass synthetic times, ticks pass a steady
  /// clock). Times must be non-decreasing.
  void tick(double now_s);
  /// tick() at the wall (steady) clock.
  void tick();

  struct Status {
    double window_p99_s = 0.0;
    double window_error_rate = 0.0;
    double latency_burn_rate = 0.0;
    double error_burn_rate = 0.0;
    std::uint64_t window_requests = 0;  ///< completed + shed inside the window
    SloState state = SloState::kHealthy;
  };
  Status status() const;

  const SloConfig& config() const { return config_; }

 private:
  struct Snapshot {
    double t = 0.0;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
  };

  Snapshot read_instruments(double now_s) const;
  void recompute_locked();

  SloConfig config_;
  MetricsRegistry& registry_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::deque<Snapshot> snaps_;
  Status status_;

  Gauge& window_p99_gauge_;
  Gauge& window_error_rate_gauge_;
  Gauge& latency_burn_gauge_;
  Gauge& error_burn_gauge_;
  Gauge& state_gauge_;
};

}  // namespace paintplace::obs
