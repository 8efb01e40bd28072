#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <mutex>

#include "obs/build_info.h"
#include "obs/metrics_registry.h"
#include "obs/request_table.h"
#include "obs/trace.h"

namespace paintplace::obs {
namespace {

std::uint64_t steady_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Copies `src` into dst[cap], truncating, replacing anything that would
/// need JSON escaping (quotes, backslashes, control/non-ASCII bytes) with
/// '_'. Done at record time so the signal handler emits bytes verbatim.
void sanitize_into(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  if (src != nullptr) {
    for (; src[i] != '\0' && i + 1 < cap; ++i) {
      const unsigned char c = static_cast<unsigned char>(src[i]);
      dst[i] = (c >= 0x20 && c <= 0x7e && c != '"' && c != '\\')
                   ? static_cast<char>(c)
                   : '_';
    }
  }
  dst[i] = '\0';
}

// ---------------------------------------------------------------------------
// Async-signal-safe append helpers. All formatting in the handler path goes
// through these: bounds-checked byte copies and hand-rolled integer
// conversion, nothing else.

struct Appender {
  char* buf;
  std::size_t cap;
  std::size_t len = 0;

  void raw(const char* s, std::size_t n) {
    if (len + n > cap) n = cap - len;
    std::memcpy(buf + len, s, n);
    len += n;
  }
  void str(const char* s) { raw(s, std::strlen(s)); }
  void ch(char c) {
    if (len < cap) buf[len++] = c;
  }
  void u64(std::uint64_t v) {
    char tmp[24];
    int n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) ch(tmp[--n]);
  }
  void i64(std::int64_t v) {
    if (v < 0) {
      ch('-');
      // Negate via uint64 so INT64_MIN does not overflow.
      u64(~static_cast<std::uint64_t>(v) + 1);
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }
};

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kLog: return "log";
    case EventKind::kRequest: return "request";
    case EventKind::kShed: return "shed";
    case EventKind::kSwap: return "swap";
    case EventKind::kDrain: return "drain";
    case EventKind::kStall: return "stall";
    case EventKind::kSignal: return "signal";
    case EventKind::kMark: return "mark";
  }
  return "mark";
}

namespace {

static_assert(FlightRecorder::kSpanNameLen % 8 == 0, "span names are stored as 8-byte words");
constexpr std::size_t kSpanNameWords = FlightRecorder::kSpanNameLen / 8;

void store_name(std::atomic<std::uint64_t>* words, const char* name) {
  char buf[FlightRecorder::kSpanNameLen] = {0};
  sanitize_into(buf, sizeof(buf), name);
  for (std::size_t w = 0; w < kSpanNameWords; ++w) {
    std::uint64_t v;
    std::memcpy(&v, buf + 8 * w, 8);
    words[w].store(v, std::memory_order_relaxed);
  }
}

/// Copies a stored name out; `out` holds kSpanNameLen bytes, NUL-terminated.
void load_name(const std::atomic<std::uint64_t>* words, char* out) {
  for (std::size_t w = 0; w < kSpanNameWords; ++w) {
    const std::uint64_t v = words[w].load(std::memory_order_relaxed);
    std::memcpy(out + 8 * w, &v, 8);
  }
  out[FlightRecorder::kSpanNameLen - 1] = '\0';
}

std::atomic<ThreadSlot*> g_slots[FlightRecorder::kMaxThreads];
std::atomic<std::uint32_t> g_slot_count{0};  ///< slots ever published (may overshoot)

// Metrics snapshot the handler embeds verbatim: pre-escaped as JSON string
// content at refresh time (off the signal path).
constexpr std::size_t kMetricsSnapshotCap = 256 * 1024;
char g_metrics_snapshot[kMetricsSnapshotCap];
std::atomic<std::size_t> g_metrics_snapshot_len{0};
/// Serializes snapshot refreshes with programmatic dumps (which share the
/// dump buffer too). The signal handler never takes it.
std::mutex g_snapshot_mu;

// The dump is rendered into static storage: the handler cannot malloc, and
// untouched BSS pages cost nothing until a crash actually happens.
constexpr std::size_t kDumpBufCap = 8 * 1024 * 1024;
char g_dump_buf[kDumpBufCap];

thread_local ThreadSlot* t_slot = nullptr;
/// Set when the table was full, and once the thread starts exiting: from
/// then on this thread records nothing.
thread_local bool t_slot_unavailable = false;

/// Gives the thread's slot back at thread exit.
struct SlotRelease {
  ~SlotRelease() {
    t_slot_unavailable = true;
    if (t_slot == nullptr) return;
    t_slot->span_depth.store(0, std::memory_order_release);
    t_slot->owned.store(false, std::memory_order_release);
    t_slot = nullptr;
  }
};

struct sigaction g_prev_actions[32];

/// Writes the first n bytes of the dump buffer to `path` (AS-safe: open,
/// write, close). False when the file could not be written in full.
bool write_dump(const char* path, std::size_t n) {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, g_dump_buf + off, n - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  ::close(fd);
  return off == n;
}

}  // namespace

void flight_recorder_signal_handler(int signo) {
  FlightRecorder& rec = FlightRecorder::instance();
  FlightRecorder::record(EventKind::kSignal, 0, "fatal signal", signo, 0);
  write_dump(rec.dump_path(), rec.render_dump(g_dump_buf, kDumpBufCap, signo));
  // Restore the default disposition and re-raise so the process still dies
  // with the original signal (exit status / core dump preserved).
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* rec = new FlightRecorder();
  return *rec;
}

FlightRecorder::FlightRecorder() : epoch_us_(steady_us()) {}

void FlightRecorder::enable() {
  enabled_.store(true, std::memory_order_relaxed);
  // Spans now also maintain the per-thread live stack (one extra copy per
  // span while enabled; still a single relaxed load when not), and the
  // request table keeps records for the request/shed/stall events.
  detail::set_span_stack_user(detail::kStackUserRecorder, true);
  RequestTable::instance().record_flight_events();
}

void FlightRecorder::install(const std::string& dir) {
  enable();
  refresh_metrics_snapshot();

  char pid_buf[16];
  Appender path{dump_path_, sizeof(dump_path_) - 1};
  path.str(dir.c_str());
  if (!dir.empty() && dir.back() != '/') path.ch('/');
  path.str("postmortem.");
  Appender pid{pid_buf, sizeof(pid_buf) - 1};
  pid.u64(static_cast<std::uint64_t>(::getpid()));
  pid_buf[pid.len] = '\0';
  path.str(pid_buf);
  path.str(".json");
  dump_path_[path.len] = '\0';

  bool expected = false;
  if (!installed_.compare_exchange_strong(expected, true)) return;

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = flight_recorder_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  for (int signo : {SIGSEGV, SIGABRT, SIGBUS}) {
    ::sigaction(signo, &action, &g_prev_actions[signo]);
  }
}

std::size_t FlightRecorder::slot_count() {
  const std::uint32_t n = g_slot_count.load(std::memory_order_acquire);
  return n < kMaxThreads ? n : kMaxThreads;
}

ThreadSlot* FlightRecorder::slot(std::size_t i) {
  return g_slots[i].load(std::memory_order_acquire);
}

ThreadSlot* FlightRecorder::this_thread_slot() {
  if (t_slot != nullptr) return t_slot;
  if (t_slot_unavailable) return nullptr;
  thread_local SlotRelease release;  // hands the slot back at thread exit
  const auto os_tid = static_cast<std::uint64_t>(::syscall(SYS_gettid));
  // An exited thread's slot first: its old events give way to ours.
  for (std::size_t s = 0, n = slot_count(); s < n; ++s) {
    ThreadSlot* slot = FlightRecorder::slot(s);
    bool expected = false;
    if (slot == nullptr ||
        !slot->owned.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
      continue;
    }
    slot->os_tid.store(os_tid, std::memory_order_relaxed);
    slot->head.store(0, std::memory_order_release);
    slot->span_depth.store(0, std::memory_order_release);
    t_slot = slot;
    return slot;
  }
  const std::uint32_t idx = g_slot_count.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kMaxThreads) {
    t_slot_unavailable = true;  // every slot is held by a live thread
    return nullptr;
  }
  auto* slot = new ThreadSlot();
  slot->os_tid.store(os_tid, std::memory_order_relaxed);
  slot->owned.store(true, std::memory_order_relaxed);
  g_slots[idx].store(slot, std::memory_order_release);
  t_slot = slot;
  return slot;
}

void FlightRecorder::record(EventKind kind, std::uint64_t trace_id, const char* msg,
                            std::int64_t a, std::int64_t b) {
  FlightRecorder& rec = instance();
  if (!rec.enabled_.load(std::memory_order_relaxed)) return;
  ThreadSlot* slot = this_thread_slot();
  if (slot == nullptr) return;
  const std::uint64_t head = slot->head.load(std::memory_order_relaxed);
  FlightEvent& e = slot->events[head % kEventsPerThread];
  e.t_us = steady_us() - rec.epoch_us_;
  e.trace_id = trace_id;
  e.kind = kind;
  sanitize_into(e.msg, sizeof(e.msg), msg);
  e.a = a;
  e.b = b;
  slot->head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::push_span(const char* name) {
  ThreadSlot* slot = this_thread_slot();
  if (slot == nullptr) return;
  const std::uint32_t depth = slot->span_depth.load(std::memory_order_relaxed);
  if (depth < kMaxSpanDepth) {
    const std::uint32_t seq = slot->span_seq.load(std::memory_order_relaxed);
    slot->span_seq.store(seq + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    store_name(slot->span_names[depth], name);
    slot->span_seq.store(seq + 2, std::memory_order_release);
  }
  // Depth grows past the table when spans nest absurdly deep; pops below
  // shrink it back and the overflow frames are simply not named.
  slot->span_depth.store(depth + 1, std::memory_order_release);
}

void FlightRecorder::pop_span() {
  ThreadSlot* slot = t_slot;  // a pop always follows this thread's push
  if (slot == nullptr) return;
  const std::uint32_t depth = slot->span_depth.load(std::memory_order_relaxed);
  if (depth > 0) slot->span_depth.store(depth - 1, std::memory_order_release);
}

void FlightRecorder::fold_span_stacks(std::vector<std::string>& out) {
  char name[kSpanNameLen];
  for (std::size_t s = 0, n = slot_count(); s < n; ++s) {
    const ThreadSlot* slot = FlightRecorder::slot(s);
    if (slot == nullptr) continue;
    // Retry while a push rewrites a name under us; a thread that keeps
    // pushing is simply skipped this sample.
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint32_t seq = slot->span_seq.load(std::memory_order_acquire);
      if ((seq & 1) != 0) continue;
      std::uint32_t depth = slot->span_depth.load(std::memory_order_acquire);
      if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
      std::string folded;
      for (std::uint32_t d = 0; d < depth; ++d) {
        load_name(slot->span_names[d], name);
        if (d > 0) folded += ';';
        folded += name;
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot->span_seq.load(std::memory_order_relaxed) != seq) continue;
      if (!folded.empty()) out.push_back(std::move(folded));
      break;
    }
  }
}

void FlightRecorder::refresh_metrics_snapshot() {
  const std::string text = MetricsRegistry::global().render_prometheus();
  std::lock_guard<std::mutex> lock(g_snapshot_mu);
  std::size_t n = 0;
  for (char raw : text) {
    if (n + 8 >= kMetricsSnapshotCap) break;  // worst-case escape is 6 bytes
    const unsigned char c = static_cast<unsigned char>(raw);
    if (c == '"' || c == '\\') {
      g_metrics_snapshot[n++] = '\\';
      g_metrics_snapshot[n++] = static_cast<char>(c);
    } else if (c == '\n') {
      g_metrics_snapshot[n++] = '\\';
      g_metrics_snapshot[n++] = 'n';
    } else if (c < 0x20 || c > 0x7e) {
      g_metrics_snapshot[n++] = '_';
    } else {
      g_metrics_snapshot[n++] = static_cast<char>(c);
    }
  }
  g_metrics_snapshot_len.store(n, std::memory_order_release);
}

std::size_t FlightRecorder::render_dump(char* buf, std::size_t cap,
                                        int signal_number) const {
  Appender out{buf, cap};
  out.str("{\"schema\":\"paintplace-postmortem-v1\",\"signal\":");
  out.i64(signal_number);
  out.str(",\"pid\":");
  out.u64(static_cast<std::uint64_t>(::getpid()));

  const BuildInfo& build = build_info();
  out.str(",\"build\":{\"git_sha\":\"");
  out.str(build.git_sha);  // configure-time constants: already plain ASCII
  out.str("\",\"compiler\":\"");
  // __VERSION__ can contain anything; escape the two JSON-breaking bytes.
  for (const char* p = build.compiler; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"' || c == '\\' || c < 0x20 || c > 0x7e) {
      out.ch('_');
    } else {
      out.ch(static_cast<char>(c));
    }
  }
  out.str("\",\"native_kernel\":");
  out.str(build.native_kernel ? "true" : "false");
  out.str("},\"threads\":[");

  bool first_thread = true;
  char name[kSpanNameLen];
  for (std::size_t s = 0, n = slot_count(); s < n; ++s) {
    const ThreadSlot* slot = FlightRecorder::slot(s);
    if (slot == nullptr) continue;
    if (!first_thread) out.ch(',');
    first_thread = false;

    out.str("{\"tid\":");
    out.u64(slot->os_tid.load(std::memory_order_relaxed));

    out.str(",\"span_stack\":[");
    std::uint32_t depth = slot->span_depth.load(std::memory_order_acquire);
    if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
    for (std::uint32_t d = 0; d < depth; ++d) {
      if (d > 0) out.ch(',');
      out.ch('"');
      load_name(slot->span_names[d], name);
      out.str(name);
      out.ch('"');
    }
    out.str("],\"events\":[");

    const std::uint64_t head = slot->head.load(std::memory_order_acquire);
    const std::uint64_t start = head > kEventsPerThread ? head - kEventsPerThread : 0;
    for (std::uint64_t i = start; i < head; ++i) {
      const FlightEvent& e = slot->events[i % kEventsPerThread];
      if (i != start) out.ch(',');
      out.str("{\"t_us\":");
      out.u64(e.t_us);
      out.str(",\"kind\":\"");
      out.str(to_string(e.kind));
      out.str("\",\"trace\":");
      out.u64(e.trace_id);
      out.str(",\"msg\":\"");
      out.str(e.msg);  // sanitized at record time
      out.str("\",\"a\":");
      out.i64(e.a);
      out.str(",\"b\":");
      out.i64(e.b);
      out.ch('}');
    }
    out.str("]}");
  }

  out.str("],\"metrics\":\"");
  out.raw(g_metrics_snapshot, g_metrics_snapshot_len.load(std::memory_order_acquire));
  out.str("\"}\n");
  return out.len;
}

bool FlightRecorder::dump(const std::string& path, int signal_number) {
  std::lock_guard<std::mutex> lock(g_snapshot_mu);
  return write_dump(path.c_str(), render_dump(g_dump_buf, kDumpBufCap, signal_number));
}

std::size_t FlightRecorder::recorded() const {
  std::size_t total = 0;
  for (std::size_t s = 0, n = slot_count(); s < n; ++s) {
    const ThreadSlot* slot = FlightRecorder::slot(s);
    if (slot == nullptr) continue;
    const std::uint64_t head = slot->head.load(std::memory_order_acquire);
    total += static_cast<std::size_t>(head < kEventsPerThread ? head : kEventsPerThread);
  }
  return total;
}

void FlightRecorder::clear() {
  for (std::size_t s = 0, n = slot_count(); s < n; ++s) {
    ThreadSlot* slot = FlightRecorder::slot(s);
    if (slot == nullptr) continue;
    slot->head.store(0, std::memory_order_release);
    slot->span_depth.store(0, std::memory_order_release);
  }
}

}  // namespace paintplace::obs
