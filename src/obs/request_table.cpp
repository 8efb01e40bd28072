#include "obs/request_table.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/check.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics_registry.h"

namespace paintplace::obs {

namespace {

/// Seed of the head-sampling hash: the same request sequence always takes
/// the same decisions.
constexpr std::uint64_t kSampleSeed = 0;

/// splitmix64 — a cheap, well-mixed hash of the request index, so head
/// sampling is deterministic but uncorrelated with request order (a plain
/// modulo would strobe against periodic workloads).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

RequestTable& RequestTable::instance() {
  // Leaked: Tracer::record may reach it during exit.
  static RequestTable* table = new RequestTable();
  return *table;
}

RequestTable::RequestTable() : epoch_(std::chrono::steady_clock::now()) {
  auto& reg = MetricsRegistry::global();
  sampled_ = &reg.counter("obs_trace_sampled_total",
                          "requests head-sampled into the trace (1-in-N)");
  retained_slow_ = &reg.counter("obs_trace_retained_slow_total",
                                "requests tail-retained: latency over threshold");
  retained_error_ = &reg.counter("obs_trace_retained_error_total",
                                 "requests tail-retained: shed or error outcome");
  retained_stall_ = &reg.counter("obs_trace_retained_stall_total",
                                 "requests tail-retained: stall report");
  discarded_ = &reg.counter("obs_trace_discarded_total",
                            "requests whose buffered spans were discarded");
  // The gauges exist from construction so scrapes and the health frame
  // always carry them, reading 0 until a stall happens.
  stalls_gauge_ = &reg.gauge("obs_watchdog_stalls", "Stall reports filed by the request watchdog");
  oldest_gauge_ = &reg.gauge("obs_watchdog_oldest_request_ms",
                             "Age of the oldest in-flight request at the last watchdog tick");

  if (const char* every = std::getenv("PAINTPLACE_TRACE_SAMPLE");
      every != nullptr && every[0] != '\0') {
    SamplerConfig cfg;
    cfg.sample_every = std::max<std::uint64_t>(1, std::strtoull(every, nullptr, 10));
    if (const char* slow = std::getenv("PAINTPLACE_TRACE_SLOW_MS");
        slow != nullptr && slow[0] != '\0') {
      cfg.slow_threshold_s = std::atof(slow) * 1e-3;
    }
    configure_sampling(cfg);
  }
}

void RequestTable::set_mode(std::uint8_t bit, bool on) {
  if (on) {
    mode_.fetch_or(bit, std::memory_order_relaxed);
  } else {
    mode_.fetch_and(static_cast<std::uint8_t>(~bit), std::memory_order_relaxed);
  }
}

void RequestTable::configure_sampling(const SamplerConfig& config) {
  PP_CHECK_MSG(config.sample_every >= 1, "trace sample_every must be >= 1");
  std::lock_guard<std::mutex> lock(mu_);
  sampling_ = config;
  decisions_ = 0;
  set_mode(kSample, true);
}

void RequestTable::disable_sampling() {
  std::lock_guard<std::mutex> lock(mu_);
  set_mode(kSample, false);
  for (auto& [id, rec] : records_) {
    rec.live = true;
    rec.spans.clear();
  }
}

void RequestTable::configure_stalls(const WatchdogConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  stall_ms_ = config.stall_ms;
  set_mode(kStall, config.stall_ms > 0.0);
}

void RequestTable::record_flight_events() { set_mode(kEvents, true); }

void RequestTable::begin(std::uint64_t trace_id, std::int64_t client) {
  const std::uint8_t mode = mode_.load(std::memory_order_relaxed);
  if (mode == 0 || trace_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Record& rec = records_[trace_id];
  rec.client = client;
  if ((mode & kSample) != 0) {
    rec.live = splitmix64(kSampleSeed ^ decisions_++) % sampling_.sample_every == 0;
    if (rec.live) sampled_->fetch_add(1);
  }
}

void RequestTable::admit(std::uint64_t trace_id, int replica) {
  if (mode_.load(std::memory_order_relaxed) == 0 || trace_id == 0) return;
  const double now = now_s();
  std::int64_t client = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = records_.find(trace_id);
    if (it == records_.end()) return;
    it->second.replica = replica;
    it->second.admitted_s = now;
    client = it->second.client;
  }
  FlightRecorder::record(EventKind::kRequest, trace_id, "admitted", replica, client);
}

bool RequestTable::finish(std::uint64_t trace_id, double latency_s, RequestOutcome outcome,
                          const char* detail) {
  if (mode_.load(std::memory_order_relaxed) == 0 || trace_id == 0) return true;
  Record rec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = records_.find(trace_id);
    if (it == records_.end()) return true;
    rec = std::move(it->second);
    records_.erase(it);
    if (!rec.live) {
      if (outcome != RequestOutcome::kOk) {
        retained_error_->fetch_add(1);
      } else if (latency_s >= sampling_.slow_threshold_s) {
        retained_slow_->fetch_add(1);
      } else {
        discarded_->fetch_add(1);
        return false;
      }
    }
  }
  if (outcome == RequestOutcome::kShed) {
    FlightRecorder::record(EventKind::kShed, trace_id, detail, rec.client, 0);
  }
  if (rec.live) return true;
  // Commit outside the table lock: a ring write takes the ring's own mutex,
  // and holding both across many spans would stall offer().
  for (const auto& [slot, event] : rec.spans) Tracer::commit(slot, event);
  return true;
}

bool RequestTable::offer(const SpanEvent& event, ThreadSlot* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(event.trace_id);
  if (it == records_.end() || it->second.live) return false;
  if (it->second.spans.size() < kMaxBufferedSpans) it->second.spans.emplace_back(slot, event);
  return true;
}

double RequestTable::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

double RequestTable::oldest_request_ms() const { return oldest_gauge_->value(); }

std::size_t RequestTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void RequestTable::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  decisions_ = 0;
}

void RequestTable::tick(double now) {
  struct Stall {
    std::uint64_t trace_id;
    double age_ms;
    int replica;
    std::vector<std::pair<ThreadSlot*, SpanEvent>> spans;  ///< force-retained
  };
  std::vector<Stall> stalls;
  std::vector<std::int64_t> in_flight;  ///< admitted records per replica
  std::int64_t admitted = 0;
  double oldest_ms = 0.0;
  double stall_ms = 0.0;
  if ((mode_.load(std::memory_order_relaxed) & kStall) != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stall_ms = stall_ms_;
    for (auto& [trace_id, rec] : records_) {
      if (rec.admitted_s < 0.0) continue;
      admitted += 1;
      if (rec.replica >= 0) {
        in_flight.resize(std::max(in_flight.size(), static_cast<std::size_t>(rec.replica) + 1));
        in_flight[static_cast<std::size_t>(rec.replica)] += 1;
      }
      const double age_ms = (now - rec.admitted_s) * 1e3;
      oldest_ms = std::max(oldest_ms, age_ms);
      if (age_ms <= stall_ms || rec.stalled) continue;
      rec.stalled = true;
      Stall s{trace_id, age_ms, rec.replica, {}};
      // Whatever head sampling decided, the stuck request's spans must reach
      // the trace: commit what is buffered, record the rest live.
      if (!rec.live) {
        rec.live = true;
        s.spans = std::move(rec.spans);
        rec.spans.clear();
        retained_stall_->fetch_add(1);
      }
      stalls.push_back(std::move(s));
    }
  }
  oldest_gauge_->set(oldest_ms);

  std::string in_flight_list;
  for (std::size_t i = 0; i < in_flight.size(); ++i) {
    if (i > 0) in_flight_list.push_back(',');
    in_flight_list += std::to_string(in_flight[i]);
  }
  for (const Stall& s : stalls) {
    const std::uint64_t total = stalls_.fetch_add(1, std::memory_order_relaxed) + 1;
    stalls_gauge_->set(static_cast<double>(total));
    Log::instance()
        .warn("watchdog", "stall")
        .kv("trace", s.trace_id)
        .kv("age_ms", s.age_ms)
        .kv("stall_ms", stall_ms)
        .kv("replica", s.replica)
        .kv("in_flight", admitted)
        .kv("replica_in_flight", in_flight_list);
    FlightRecorder::record(EventKind::kStall, s.trace_id, "request stalled",
                           static_cast<std::int64_t>(s.age_ms), s.replica);
    for (const auto& [slot, event] : s.spans) Tracer::commit(slot, event);
  }
}

}  // namespace paintplace::obs
