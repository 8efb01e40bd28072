// paintplace::obs — flight recorder: post-mortem forensics for crashes.
//
// A black box for the serving process. Every thread that touches a request
// appends fixed-size structured events (request admitted, shed decision,
// model swap, drain, stall, last log lines) into its own lock-free ring;
// when the process dies on SIGSEGV/SIGABRT/SIGBUS, an async-signal-safe
// handler walks every ring and writes a JSON post-mortem file containing:
//
//   - the fatal signal number,
//   - build identity (git sha, compiler, kernel flavour — obs/build_info.h),
//   - per-thread active span stacks (what each thread was *inside* when the
//     process died — span names are copied into recorder-owned buffers at
//     push time, so the handler never chases pointers into dead stack
//     frames),
//   - per-thread event rings, oldest to newest,
//   - the most recent metrics-registry snapshot (refreshed off the signal
//     path by the request table's monitor tick — the handler only copies
//     bytes).
//
// The per-thread span stack is the process's only live-span stack: the
// Profiler samples it too (fold_span_stacks), so it is kept whenever
// either consumer is on. Names are stored as relaxed atomic words under a
// per-thread sequence count, so a sampler on another thread never folds a
// half-written name.
//
// A thread's slot returns to the table when the thread exits and is handed
// to the next new thread; until then the exited thread's last events stay
// in the dump. Thread-per-connection servers churn threads, and the fixed
// table must not fill up with the dead. The same slot holds the thread's
// tracer ring (trace.h), so the process keeps one per-thread table.
//
// Async-signal-safety contract for the handler path: no malloc, no locks,
// no stdio — only open/write/close on a pre-computed path, formatting into
// a preallocated buffer with hand-rolled integer conversion. Everything the
// dump needs (thread table, rings, span stacks, metrics snapshot, build
// strings) lives in fixed storage written before the signal, readable with
// plain loads.
//
// Recording cost when disabled: one relaxed atomic load per record() call
// (and span-stack maintenance is gated behind the kSpanMaskStack bit in
// obs::detail::g_span_mask, so an inert Span still costs exactly one load —
// bench_serve guards this).
//
// enable() turns on recording only (tests, programmatic use); install(dir)
// additionally registers the signal handlers and fixes the dump path to
// `<dir>/postmortem.<pid>.json` — wired to `forecast_serve --postmortem`.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace paintplace::obs {

enum class EventKind : std::uint8_t {
  kLog = 0,      ///< a structured log line was emitted (msg = subsystem.event)
  kRequest = 1,  ///< request admitted to a replica (a = replica, b = client)
  kShed = 2,     ///< request shed (msg = reason, a = client)
  kSwap = 3,     ///< model hot-swap (a = new version)
  kDrain = 4,    ///< server drain started
  kStall = 5,    ///< stall report (a = age ms, b = replica)
  kSignal = 6,   ///< fatal signal entered the handler (a = signo)
  kMark = 7,     ///< free-form marker (tests, tools)
};

const char* to_string(EventKind kind);

/// One ring slot. Fixed-size POD: recording is bounded-time and the signal
/// handler can read it with plain loads. msg is sanitized (printable ASCII,
/// no quotes/backslashes) at record time so dumping needs no escaping.
struct FlightEvent {
  std::uint64_t t_us = 0;      ///< microseconds since recorder start
  std::uint64_t trace_id = 0;  ///< 0 = not tied to a request
  EventKind kind = EventKind::kMark;
  char msg[55] = {0};
  std::int64_t a = 0;
  std::int64_t b = 0;
};

struct ThreadSlot;
struct TraceRing;  ///< the tracer's per-thread event ring (trace.cpp)

class FlightRecorder {
 public:
  static constexpr std::size_t kEventsPerThread = 128;
  /// Slots in the per-thread table: 8 KiB of pointers, enough for a server
  /// with a few hundred connections (two threads each).
  static constexpr std::size_t kMaxThreads = 1024;
  static constexpr std::size_t kMaxSpanDepth = 32;
  static constexpr std::size_t kSpanNameLen = 48;

  static FlightRecorder& instance();

  /// Starts recording (rings fill; no signal handlers). Idempotent.
  void enable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// enable() + install SIGSEGV/SIGABRT/SIGBUS handlers that dump to
  /// `<dir>/postmortem.<pid>.json` and re-raise. Call once, from main,
  /// before serving traffic.
  void install(const std::string& dir);
  const char* dump_path() const { return dump_path_; }

  /// Appends one event to the calling thread's ring. No-op (one relaxed
  /// load) when disabled. `msg` is truncated and sanitized into the slot.
  static void record(EventKind kind, std::uint64_t trace_id, const char* msg,
                     std::int64_t a = 0, std::int64_t b = 0);

  /// Span-stack hooks, driven by obs::Span when kSpanMaskStack is set.
  /// The name is copied into recorder-owned storage at push time.
  static void push_span(const char* name);
  static void pop_span();

  /// Appends every thread's live span stack, folded "outer;inner;leaf",
  /// for each thread inside at least one span (the Profiler's sample).
  static void fold_span_stacks(std::vector<std::string>& out);

  /// Copies the global metrics registry's Prometheus text into the
  /// preallocated snapshot buffer the signal handler embeds in the dump.
  /// Called off the signal path (monitor tick, install time).
  void refresh_metrics_snapshot();

  /// Writes the post-mortem JSON to `path` programmatically (tests, drain
  /// diagnostics). Uses the same formatting core as the signal handler.
  /// Returns false when the file could not be opened.
  bool dump(const std::string& path, int signal_number = 0);

  /// Events currently recorded across all thread rings (tests).
  std::size_t recorded() const;
  /// Drops all ring contents and span stacks (tests). Not thread-safe
  /// against concurrent recording.
  void clear();

  /// The calling thread's slot, claimed on first use (one an exited thread
  /// gave back, when there is one); nullptr once every slot is held by a
  /// live thread.
  static ThreadSlot* this_thread_slot();
  /// Slots published so far, and slot `i` of them (nullptr while it is
  /// being published). Plain loads: safe from the signal handler.
  static std::size_t slot_count();
  static ThreadSlot* slot(std::size_t i);

 private:
  FlightRecorder();

  /// Builds the dump into buf (AS-safe: no allocation, no locks) and
  /// returns the byte length.
  std::size_t render_dump(char* buf, std::size_t cap, int signal_number) const;

  friend void flight_recorder_signal_handler(int);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> installed_{false};
  char dump_path_[512] = {0};

  std::uint64_t epoch_us_ = 0;
};

/// One thread's fixed storage: the process's only per-thread table, shared
/// by the recorder (event ring, live-span stack) and the tracer (its event
/// ring). Slots are heap-allocated on a thread's first use and published
/// into a fixed pointer table; they are never freed, so the signal handler
/// can walk the table with plain loads. A slot has one writer at a time
/// (the thread that owns it); an exiting thread gives it back, and the next
/// new thread takes it over. Readers synchronize on the head/depth release
/// stores.
struct ThreadSlot {
  std::atomic<std::uint64_t> os_tid{0};
  std::atomic<bool> owned{false};  ///< a live thread records here

  // Event ring: head counts events ever recorded; slot = head % capacity.
  std::atomic<std::uint64_t> head{0};
  FlightEvent events[FlightRecorder::kEventsPerThread];

  // Live span stack: names are copied in at push time (no pointers into
  // stack frames) as atomic words; span_seq is odd while a push writes a
  // name, and depth is published with release, so every reader sees a
  // consistent prefix.
  std::atomic<std::uint32_t> span_depth{0};
  std::atomic<std::uint32_t> span_seq{0};
  std::atomic<std::uint64_t> span_names[FlightRecorder::kMaxSpanDepth]
                                       [FlightRecorder::kSpanNameLen / 8];

  /// The tracer's ring, allocated at the first traced span of the slot's
  /// thread. A reused slot keeps it, events and all.
  std::atomic<TraceRing*> trace{nullptr};
};

}  // namespace paintplace::obs
