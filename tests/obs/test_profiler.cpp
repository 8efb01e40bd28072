// Span-stack profiler tests: deterministic folded-stack aggregation driven
// by sample_once(), multi-threaded stack attribution, collapsed-stack export
// format, and the disabled-by-default contract (an off profiler takes no
// samples, whatever the live-span stacks hold).
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "obs/trace.h"

namespace paintplace::obs {
namespace {

/// Runs the profiler with a sampler period no test outlives, so tests
/// control exactly how many samples are taken via sample_once().
class ProfilerScope {
 public:
  ProfilerScope() { Profiler::instance().start(std::chrono::hours(1)); }
  ~ProfilerScope() { Profiler::instance().stop(); }
};

std::uint64_t count_of(const Profiler& prof, const std::string& stack) {
  for (const auto& [key, count] : prof.top_k(64)) {
    if (key == stack) return count;
  }
  return 0;
}

TEST(Profiler, FoldsNestedSpansDeterministically) {
  Profiler& prof = Profiler::instance();
  prof.clear();
  ProfilerScope on;

  Span outer("prof.outer", "test");
  {
    Span inner("prof.inner", "test");
    for (int i = 0; i < 5; ++i) prof.sample_once();
  }
  prof.sample_once();  // inner popped: only the outer frame remains

  EXPECT_EQ(count_of(prof, "prof.outer;prof.inner"), 5u);
  EXPECT_EQ(count_of(prof, "prof.outer"), 1u);
  EXPECT_EQ(prof.samples(), 6u);
  prof.clear();
}

TEST(Profiler, AttributesStacksPerThread) {
  Profiler& prof = Profiler::instance();
  prof.clear();
  ProfilerScope on;

  // Two workers park with distinct nested stacks; the main thread samples a
  // fixed number of times while both are provably inside their spans.
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool release = false;
  auto worker = [&](const char* leaf) {
    Span outer("prof.worker", "test");
    Span inner(leaf, "test");
    std::unique_lock<std::mutex> lock(mu);
    parked += 1;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  std::thread a(worker, "prof.leaf_a");
  std::thread b(worker, "prof.leaf_b");
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == 2; });
  }
  constexpr int kSamples = 7;
  for (int i = 0; i < kSamples; ++i) prof.sample_once();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  a.join();
  b.join();

  EXPECT_EQ(count_of(prof, "prof.worker;prof.leaf_a"), kSamples);
  EXPECT_EQ(count_of(prof, "prof.worker;prof.leaf_b"), kSamples);
  prof.clear();
}

TEST(Profiler, CollapsedExportIsOneStackPerLine) {
  Profiler& prof = Profiler::instance();
  prof.clear();
  ProfilerScope on;

  Span outer("prof.export", "test");
  prof.sample_once();
  prof.sample_once();

  const std::string collapsed = prof.collapsed();
  std::istringstream lines(collapsed);
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    ASSERT_NE(line.find(' '), std::string::npos) << "line without count: " << line;
    if (line == "prof.export 2") found = true;
  }
  EXPECT_TRUE(found) << collapsed;
  prof.clear();
}

TEST(Profiler, DisabledSpansNeverReachTheAggregate) {
  Profiler& prof = Profiler::instance();
  prof.clear();
  ASSERT_FALSE(prof.enabled());

  Span span("prof.should_not_appear", "test");
  prof.sample_once();
  EXPECT_EQ(prof.samples(), 0u);
  prof.clear();
}

}  // namespace
}  // namespace paintplace::obs
