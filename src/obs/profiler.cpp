#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace paintplace::obs {

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

void Profiler::start(std::chrono::microseconds period) {
  if (on_.exchange(true)) return;
  detail::set_span_stack_user(detail::kStackUserProfiler, true);
  sampler_ = std::thread([this, period] {
    std::unique_lock<std::mutex> lock(run_mu_);
    while (!run_cv_.wait_for(lock, period, [this] { return !enabled(); })) {
      lock.unlock();
      sample_once();
      lock.lock();
    }
  });
}

void Profiler::stop() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    if (!on_.exchange(false)) return;
  }
  detail::set_span_stack_user(detail::kStackUserProfiler, false);
  run_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

void Profiler::sample_once() {
  if (!enabled()) return;
  // Fold each non-idle stack outside the aggregate lock, then merge.
  std::vector<std::string> folded;
  FlightRecorder::fold_span_stacks(folded);
  if (folded.empty()) return;
  std::lock_guard<std::mutex> lock(agg_mu_);
  for (auto& key : folded) {
    aggregate_[std::move(key)] += 1;
    samples_ += 1;
  }
}

void Profiler::clear() {
  std::lock_guard<std::mutex> lock(agg_mu_);
  aggregate_.clear();
  samples_ = 0;
}

std::uint64_t Profiler::samples() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return samples_;
}

std::string Profiler::collapsed() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  std::string out;
  for (const auto& [stack, count] : aggregate_) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

bool Profiler::write_collapsed(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    Log::instance().error("obs", "profile_write_failed").kv("path", path);
    return false;
  }
  const std::string body = collapsed();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

std::vector<std::pair<std::string, std::uint64_t>> Profiler::top_k(std::size_t k) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  {
    std::lock_guard<std::mutex> lock(agg_mu_);
    out.assign(aggregate_.begin(), aggregate_.end());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace paintplace::obs
