// Micro-batch request queue: the heart of the serving engine's coalescing.
//
// Producers push single requests; the consumer pops whole batches. Batching
// is worker-driven: pop_batch waits only for the queue to be non-empty, then
// takes everything queued, up to max_batch. It never holds a request back in
// the hope of a partner, so a lone request pays no coalescing wait, while
// under load a batch is whatever arrived during the previous forward pass.
// close() stops intake but lets the consumer drain what is queued; pop_batch
// returns an empty vector once the queue is closed and empty.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "serve/forecast_types.h"
#include "serve/tensor_key.h"

namespace paintplace::serve {

/// One queued forecast request: the rendered placement, its content hash,
/// and the promise the client's future is waiting on.
struct PendingRequest {
  nn::Tensor input;  ///< (1,C,w,w) in [0,1]
  TensorKey key;
  std::promise<ForecastResult> promise;
  std::chrono::steady_clock::time_point enqueued_at;
  /// Trace id captured at submit (0 = untraced): the batch worker adopts it
  /// so the spans of a cross-thread request stitch together in the trace.
  std::uint64_t trace_id = 0;
};

class BatchQueue {
 public:
  explicit BatchQueue(Index max_batch) : max_batch_(max_batch) {
    PP_CHECK_MSG(max_batch >= 1, "BatchQueue max_batch must be >= 1");
  }

  /// Enqueues a request. Returns false (leaving `req` untouched) after close().
  bool push(PendingRequest& req);

  /// Blocks until a request is queued, then returns everything queued, up to
  /// max_batch requests (oldest first). Empty vector = closed and drained.
  std::vector<PendingRequest> pop_batch();

  /// Stops intake; queued requests remain poppable. Idempotent.
  void close();

  bool closed() const;
  std::size_t pending() const;

 private:
  const Index max_batch_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool closed_ = false;
};

}  // namespace paintplace::serve
