#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace paintplace {
namespace {

/// Long-lived worker pool. Workers park on a condition variable between
/// parallel_for calls; the pool is created lazily on first use and torn down
/// at process exit.
class Pool {
 public:
  explicit Pool(int workers) : job_fn_(nullptr) {
    PP_CHECK(workers >= 1);
    workers_.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
    total_workers_ = workers;
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_start_.notify_all();
    for (auto& t : workers_) t.join();
  }

  int size() const { return total_workers_; }

  void run(Index n, const std::function<void(Index, Index)>& fn) {
    if (n <= 0) return;
    // Nested parallel_for (a worker body itself calling parallel_for) runs
    // serially: the single-slot job state cannot host two jobs at once, and
    // the outer call already saturates the pool.
    if (in_parallel_region) {
      fn(0, n);
      return;
    }
    const int nw = total_workers_;
    if (nw == 1 || n == 1) {
      fn(0, n);
      return;
    }
    // Concurrent top-level calls from different user threads queue here —
    // the job slot below holds exactly one job at a time.
    std::lock_guard<std::mutex> run_lock(run_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_fn_ = &fn;
      job_n_ = n;
      job_epoch_ += 1;
      pending_ = nw - 1;
      first_error_ = nullptr;
    }
    cv_start_.notify_all();
    // The calling thread executes partition 0.
    std::exception_ptr local_error = nullptr;
    try {
      in_parallel_region = true;
      auto [b, e] = partition(n, 0, nw);
      if (b < e) fn(b, e);
      in_parallel_region = false;
    } catch (...) {
      in_parallel_region = false;
      local_error = std::current_exception();
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return pending_ == 0; });
    job_fn_ = nullptr;
    if (local_error) std::rethrow_exception(local_error);
    if (first_error_) {
      auto err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }

  static thread_local bool in_parallel_region;

 private:
  static std::pair<Index, Index> partition(Index n, int part, int parts) {
    const Index chunk = (n + parts - 1) / parts;
    const Index b = std::min<Index>(n, chunk * part);
    const Index e = std::min<Index>(n, b + chunk);
    return {b, e};
  }

  void worker_loop(int my_id) {
    std::uint64_t seen_epoch = 0;
    for (;;) {
      const std::function<void(Index, Index)>* fn = nullptr;
      Index n = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_start_.wait(lock, [&] { return shutdown_ || job_epoch_ > seen_epoch; });
        if (shutdown_) return;
        seen_epoch = job_epoch_;
        fn = job_fn_;
        n = job_n_;
      }
      std::exception_ptr err = nullptr;
      try {
        in_parallel_region = true;
        auto [b, e] = partition(n, my_id, total_workers_);
        if (b < e) (*fn)(b, e);
        in_parallel_region = false;
      } catch (...) {
        in_parallel_region = false;
        err = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (err && !first_error_) first_error_ = err;
        pending_ -= 1;
        if (pending_ == 0) cv_done_.notify_one();
      }
    }
  }

  std::mutex run_mu_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  int total_workers_ = 1;
  const std::function<void(Index, Index)>* job_fn_;
  Index job_n_ = 0;
  std::uint64_t job_epoch_ = 0;
  int pending_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_ = nullptr;
};

thread_local bool Pool::in_parallel_region = false;

int g_requested_workers = 0;  // 0 = hardware default
std::unique_ptr<Pool>& pool_slot() {
  static std::unique_ptr<Pool> pool;
  return pool;
}
std::mutex g_pool_mu;

Pool& pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  auto& slot = pool_slot();
  if (!slot) {
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw <= 0) hw = 4;
    const int workers = g_requested_workers > 0 ? g_requested_workers : hw;
    slot = std::make_unique<Pool>(workers);
  }
  return *slot;
}

}  // namespace

int parallel_workers() { return pool().size(); }

void set_parallel_workers(int workers) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_requested_workers = workers;
  pool_slot().reset();  // rebuilt lazily with the new count
}

void parallel_for(Index n, const std::function<void(Index, Index)>& fn) {
  pool().run(n, fn);
}

void parallel_for_each(Index n, const std::function<void(Index)>& fn) {
  parallel_for(n, [&fn](Index b, Index e) {
    for (Index i = b; i < e; ++i) fn(i);
  });
}

}  // namespace paintplace
