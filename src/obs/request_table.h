// paintplace::obs — the request table: one record per in-flight request.
//
// Every observability view of a request — whether its trace is kept, whether
// it is wedged, what the flight recorder says about it — reads one record,
// keyed by trace id, that the request front-end drives through three steps:
//
//   begin(trace_id, client)  when the id is minted; takes the head-sampling
//                            decision,
//   admit(trace_id, replica) when a replica accepts it; starts the stall
//                            clock and records a kRequest flight event,
//   finish(trace_id, ...)    with its latency and outcome; commits or drops
//                            its buffered spans, records a kShed flight event
//                            for a shed, and erases the record.
//
// Tail-based sampling. Full tracing records every span of every request;
// under a production swarm that is unaffordable and mostly uninteresting.
// While sampling is on, a deterministic 1-in-N of requests (head sampling)
// records live; every other request's spans buffer in its record (tagged
// with the per-thread slot whose ring they would have landed in, so a
// commit keeps thread attribution) until finish() decides: a request that
// ended shed or failed, or ran slower than the threshold, is committed; the
// rest are discarded.
// Spans with trace id 0, or with an id begin() never saw (in-process
// ForecastServer traffic), bypass the table and record live.
//
// Stall detection. The net server's monitor thread calls tick() every
// NetServer::kTickPeriodS, which checks each admitted record's age against
// the stall threshold. Past it, the request is reported exactly once: a
// `watchdog.stall` log line (trace id, age, replica, in-flight count per
// replica), a kStall flight event, and a force-retain that commits its
// buffered spans however head sampling decided.
//
// Registry instruments:
//   obs_trace_sampled_total        head-sampled requests (recorded live)
//   obs_trace_retained_slow_total  tail-retained: latency over threshold
//   obs_trace_retained_error_total tail-retained: shed or error outcome
//   obs_trace_retained_stall_total tail-retained: stall report
//   obs_trace_discarded_total      requests whose spans were dropped
//   obs_watchdog_stalls            stall reports filed (gauge)
//   obs_watchdog_oldest_request_ms age of the oldest admitted request at
//                                  the last tick (gauge)
//
// Records exist only while a consumer is on: sampling, stall detection, or
// the flight recorder. With all three off, each step is one relaxed load.
//
// Knobs: ServeConfig::{trace_sample,trace_slow_ms}, forecast_serve
// --trace-sample/--trace-slow-ms, PAINTPLACE_TRACE_SAMPLE /
// PAINTPLACE_TRACE_SLOW_MS (sampling); NetServerConfig::watchdog,
// forecast_serve --stall-ms (stalls).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace paintplace::obs {

class Counter;
class Gauge;

struct SamplerConfig {
  /// Head-sample 1 in this many requests (1 keeps everything); >= 1.
  std::uint64_t sample_every = 100;
  /// Requests at least this slow commit regardless of the head decision.
  double slow_threshold_s = 0.100;
};

struct WatchdogConfig {
  /// An admitted request in flight longer than this is reported as
  /// stalled. 0 turns stall detection off.
  double stall_ms = 0.0;
};

/// How a request ended, from the layer that owns its lifecycle (the net
/// front-end: writer resolution, shed decision, or decode/forward failure).
enum class RequestOutcome : std::uint8_t { kOk = 0, kShed = 1, kError = 2 };

class RequestTable {
 public:
  /// Spans buffered per request beyond which the newest are dropped.
  static constexpr std::size_t kMaxBufferedSpans = 512;

  /// Process-wide table. First use reads PAINTPLACE_TRACE_SAMPLE /
  /// PAINTPLACE_TRACE_SLOW_MS and turns sampling on when set.
  static RequestTable& instance();

  RequestTable(const RequestTable&) = delete;
  RequestTable& operator=(const RequestTable&) = delete;

  /// Sampling on with the given policy; restarts the head-decision sequence.
  void configure_sampling(const SamplerConfig& config);
  /// Back to record-everything. Buffered spans are dropped.
  void disable_sampling();
  bool sampling() const { return (mode_.load(std::memory_order_relaxed) & kSample) != 0; }

  /// Sets the stall threshold (0 = off).
  void configure_stalls(const WatchdogConfig& config);
  /// Keeps records for the flight recorder's request/shed events
  /// (FlightRecorder::enable calls this; it stays on).
  void record_flight_events();

  void begin(std::uint64_t trace_id, std::int64_t client = 0);
  void admit(std::uint64_t trace_id, int replica);
  /// Ends the request. `detail` names a shed reason for the flight event.
  /// Returns false only when the request's buffered spans were discarded:
  /// true means its spans are in the trace if the tracer is on, which is
  /// what exemplar attachment wants to know.
  bool finish(std::uint64_t trace_id, double latency_s, RequestOutcome outcome,
              const char* detail = nullptr);

  /// Offers a completed span (Tracer::record) from the thread of `slot`.
  /// True when the table buffered it; false when the caller should record
  /// it live.
  bool offer(const SpanEvent& event, ThreadSlot* slot);

  /// One stall-detection pass at `now_s` on the table's clock (tests pass
  /// synthetic times).
  void tick(double now_s);
  /// Seconds since the table was created: the clock admit() stamps.
  double now_s() const;

  std::uint64_t stalls() const { return stalls_.load(std::memory_order_relaxed); }
  double oldest_request_ms() const;
  /// Open records (tests).
  std::size_t size() const;
  /// Drops every record and restarts the head-decision sequence (tests).
  void reset();

 private:
  static constexpr std::uint8_t kSample = 0x1;
  static constexpr std::uint8_t kStall = 0x2;
  static constexpr std::uint8_t kEvents = 0x4;

  struct Record {
    std::int64_t client = 0;
    int replica = -1;
    double admitted_s = -1.0;  ///< < 0 until admit()
    bool live = true;          ///< spans record live (head-sampled or retained)
    bool stalled = false;      ///< stall already reported
    std::vector<std::pair<ThreadSlot*, SpanEvent>> spans;
  };

  RequestTable();
  void set_mode(std::uint8_t bit, bool on);

  std::atomic<std::uint8_t> mode_{0};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  SamplerConfig sampling_;
  double stall_ms_ = 0.0;
  std::uint64_t decisions_ = 0;  ///< requests begun since configure/reset
  std::unordered_map<std::uint64_t, Record> records_;

  Counter* sampled_ = nullptr;
  Counter* retained_slow_ = nullptr;
  Counter* retained_error_ = nullptr;
  Counter* retained_stall_ = nullptr;
  Counter* discarded_ = nullptr;
  std::atomic<std::uint64_t> stalls_{0};
  Gauge* stalls_gauge_ = nullptr;
  Gauge* oldest_gauge_ = nullptr;
};

}  // namespace paintplace::obs
