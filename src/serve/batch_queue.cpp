#include "serve/batch_queue.h"

namespace paintplace::serve {

bool BatchQueue::push(PendingRequest& req) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    queue_.push_back(std::move(req));
  }
  cv_.notify_one();
  return true;
}

std::vector<PendingRequest> BatchQueue::pop_batch() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  const std::size_t take = std::min<std::size_t>(queue_.size(), static_cast<std::size_t>(max_batch_));
  std::vector<PendingRequest> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

void BatchQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool BatchQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t BatchQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace paintplace::serve
