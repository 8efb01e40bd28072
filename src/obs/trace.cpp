#include "obs/trace.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/request_table.h"

namespace paintplace::obs {

namespace detail {
std::atomic<std::uint8_t> g_span_mask{0};

void set_span_stack_user(std::uint8_t user, bool on) {
  static std::mutex mu;
  static std::uint8_t users = 0;
  std::lock_guard<std::mutex> lock(mu);
  users = on ? static_cast<std::uint8_t>(users | user) : static_cast<std::uint8_t>(users & ~user);
  if (users != 0) {
    g_span_mask.fetch_or(kSpanMaskStack, std::memory_order_relaxed);
  } else {
    g_span_mask.fetch_and(static_cast<std::uint8_t>(~kSpanMaskStack), std::memory_order_relaxed);
  }
}
}  // namespace detail

namespace {

void copy_str(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  for (; i + 1 < cap && src[i] != '\0'; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

thread_local std::uint64_t t_current_trace_id = 0;

}  // namespace

// ---- Ring buffers -----------------------------------------------------------

/// One thread's fixed-capacity event ring, owned by its slot in the
/// per-thread table. The mutex is only ever contended by dump/clear and by
/// commits of held-back spans (the slot's thread is the only live writer),
/// so record() is effectively an uncontended lock plus a struct copy. A
/// reused slot keeps its ring and chrome tid, so one tid row can show
/// several (non-overlapping-in-time) OS threads.
struct TraceRing {
  std::mutex mu;
  std::vector<SpanEvent> events = std::vector<SpanEvent>(Tracer::kRingCapacity);
  std::size_t size = 0;  ///< valid events (<= capacity)
  std::size_t head = 0;  ///< next write slot
  std::uint64_t overwritten = 0;

  void record(const SpanEvent& event) {
    std::lock_guard<std::mutex> lock(mu);
    events[head] = event;
    head = (head + 1) % events.size();
    if (size < events.size()) {
      size += 1;
    } else {
      overwritten += 1;
    }
  }
};

namespace {

/// Calls fn(tid, ring) with the ring locked, for every slot that has one.
template <class Fn>
void for_each_ring(Fn&& fn) {
  for (std::size_t s = 0, n = FlightRecorder::slot_count(); s < n; ++s) {
    const ThreadSlot* slot = FlightRecorder::slot(s);
    TraceRing* ring = slot == nullptr ? nullptr : slot->trace.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    std::lock_guard<std::mutex> lock(ring->mu);
    fn(static_cast<int>(s) + 1, *ring);
  }
}

}  // namespace

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  if (const char* path = std::getenv("PAINTPLACE_TRACE"); path != nullptr && path[0] != '\0') {
    dump_path_ = path;
    enable();
  }
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::configure(const std::string& dump_path) {
  {
    std::lock_guard<std::mutex> lock(path_mu_);
    dump_path_ = dump_path;
  }
  enable();
}

bool Tracer::dump_configured() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(path_mu_);
    path = dump_path_;
  }
  if (path.empty()) return false;
  return dump_json(path);
}

void Tracer::record(const SpanEvent& event) {
  ThreadSlot* slot = FlightRecorder::this_thread_slot();
  if (slot == nullptr) {
    unslotted_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Only the slot's own thread allocates its ring; a reused slot has one.
  if (slot->trace.load(std::memory_order_relaxed) == nullptr) {
    slot->trace.store(new TraceRing(), std::memory_order_release);
  }
  // Request-tied spans route through the request table while sampling is
  // on: buffered in the request's record, committed to this same slot's
  // ring (or dropped) when the request finishes. Untied spans and
  // head-sampled requests record directly, so non-request instrumentation
  // is never lost.
  if (event.trace_id != 0) {
    RequestTable& requests = RequestTable::instance();
    if (requests.sampling() && requests.offer(event, slot)) return;
  }
  commit(slot, event);
}

void Tracer::commit(ThreadSlot* slot, const SpanEvent& event) {
  slot->trace.load(std::memory_order_acquire)->record(event);
}

std::string Tracer::dump_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[128];
  for_each_ring([&](int tid, const TraceRing& ring) {
    // Oldest-first: with a full ring, `head` is also the oldest slot.
    const std::size_t capacity = ring.events.size();
    const std::size_t start = ring.size < capacity ? 0 : ring.head;
    for (std::size_t i = 0; i < ring.size; ++i) {
      const SpanEvent& ev = ring.events[(start + i) % capacity];
      out += first ? "\n" : ",\n";
      first = false;
      out += "{\"name\":\"";
      json_escape_into(out, ev.name);
      out += "\",\"cat\":\"";
      json_escape_into(out, ev.category);
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%llu,\"dur\":%llu,\"args\":{",
                    tid, static_cast<unsigned long long>(ev.start_us),
                    static_cast<unsigned long long>(ev.dur_us));
      out += buf;
      bool first_arg = true;
      if (ev.trace_id != 0) {
        std::snprintf(buf, sizeof(buf), "\"trace\":%llu",
                      static_cast<unsigned long long>(ev.trace_id));
        out += buf;
        first_arg = false;
      }
      for (int a = 0; a < ev.num_args; ++a) {
        const TraceArg& arg = ev.args[a];
        if (!first_arg) out += ",";
        first_arg = false;
        out += "\"";
        json_escape_into(out, arg.key);
        out += "\":";
        switch (arg.kind) {
          case TraceArg::Kind::kInt:
            out += std::to_string(arg.i);
            break;
          case TraceArg::Kind::kDouble:
            std::snprintf(buf, sizeof(buf), "%.6g", arg.d);
            out += std::isfinite(arg.d) ? buf : "null";
            break;
          case TraceArg::Kind::kString:
            out += "\"";
            json_escape_into(out, arg.s);
            out += "\"";
            break;
        }
      }
      out += "}}";
    }
  });
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

bool Tracer::dump_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    Log::instance().error("obs", "trace_write_failed").kv("path", path);
    return false;
  }
  const std::string body = dump_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

void Tracer::clear() {
  for_each_ring([](int, TraceRing& ring) {
    ring.size = 0;
    ring.head = 0;
    ring.overwritten = 0;
  });
  unslotted_.store(0, std::memory_order_relaxed);
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = unslotted_.load(std::memory_order_relaxed);
  for_each_ring([&](int, const TraceRing& ring) { total += ring.overwritten; });
  return total;
}

std::size_t Tracer::recorded() const {
  std::size_t total = 0;
  for_each_ring([&](int, const TraceRing& ring) { total += ring.size; });
  return total;
}

// ---- TraceContext -----------------------------------------------------------

std::uint64_t TraceContext::current() { return t_current_trace_id; }

void TraceContext::set_current(std::uint64_t id) { t_current_trace_id = id; }

std::uint64_t TraceContext::next_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

ScopedTraceId::ScopedTraceId(std::uint64_t id) : prev_(t_current_trace_id) {
  t_current_trace_id = id;
}

ScopedTraceId::~ScopedTraceId() { t_current_trace_id = prev_; }

// ---- Span -------------------------------------------------------------------

void Span::start(const char* name, const char* category, std::uint8_t mask) {
  if ((mask & detail::kSpanMaskStack) != 0) {
    stacked_ = true;
    FlightRecorder::push_span(name);  // copies the name
  }
  if ((mask & detail::kSpanMaskTrace) != 0) {
    active_ = true;
    copy_str(event_.name, sizeof(event_.name), name);
    copy_str(event_.category, sizeof(event_.category), category);
    event_.trace_id = t_current_trace_id;
    start_us_ = Tracer::instance().now_us();
  }
}

Span::Span(const char* name, const char* category) {
  const std::uint8_t mask = detail::g_span_mask.load(std::memory_order_relaxed);
  if (mask == 0) return;
  start(name, category, mask);
}

Span::Span(const std::string& name, const char* category) {
  const std::uint8_t mask = detail::g_span_mask.load(std::memory_order_relaxed);
  if (mask == 0) return;
  start(name.c_str(), category, mask);
}

Span::~Span() {
  if (stacked_) FlightRecorder::pop_span();
  if (!active_) return;
  Tracer& tracer = Tracer::instance();
  event_.start_us = start_us_;
  event_.dur_us = tracer.now_us() - start_us_;
  if (flops_ > 0.0) {
    const double seconds = static_cast<double>(event_.dur_us) * 1e-6;
    arg("gflop_per_s", seconds > 0.0 ? flops_ / seconds * 1e-9
                                     : 0.0);
  }
  tracer.record(event_);
}

void Span::arg(const char* key, std::int64_t value) {
  if (!active_ || event_.num_args >= SpanEvent::kMaxArgs) return;
  TraceArg& a = event_.args[event_.num_args++];
  a.key = key;
  a.kind = TraceArg::Kind::kInt;
  a.i = value;
}

void Span::arg(const char* key, double value) {
  if (!active_ || event_.num_args >= SpanEvent::kMaxArgs) return;
  TraceArg& a = event_.args[event_.num_args++];
  a.key = key;
  a.kind = TraceArg::Kind::kDouble;
  a.d = value;
}

void Span::arg(const char* key, const char* value) {
  if (!active_ || event_.num_args >= SpanEvent::kMaxArgs) return;
  TraceArg& a = event_.args[event_.num_args++];
  a.key = key;
  a.kind = TraceArg::Kind::kString;
  copy_str(a.s, sizeof(a.s), value);
}

}  // namespace paintplace::obs
