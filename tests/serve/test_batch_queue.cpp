#include "serve/batch_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/timer.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::serve {
namespace {

using namespace std::chrono_literals;

PendingRequest make_request(std::uint64_t seed) {
  PendingRequest req;
  req.input = testfix::random_input(seed, 4);
  req.key = TensorKey::of(req.input);
  req.enqueued_at = std::chrono::steady_clock::now();
  return req;
}

TEST(BatchQueue, FullBatchFlushesWithoutWaiting) {
  BatchQueue q(/*max_batch=*/4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    PendingRequest r = make_request(i);
    ASSERT_TRUE(q.push(r));
  }
  Timer t;
  const auto batch = q.pop_batch();
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(BatchQueue, OverfullQueueSplitsIntoMaxBatchChunks) {
  BatchQueue q(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    PendingRequest r = make_request(i);
    ASSERT_TRUE(q.push(r));
  }
  EXPECT_EQ(q.pop_batch().size(), 4u);
  EXPECT_EQ(q.pop_batch().size(), 4u);
  EXPECT_EQ(q.pop_batch().size(), 2u);  // the partial remainder pops as is
  q.close();
  EXPECT_TRUE(q.pop_batch().empty());
}

TEST(BatchQueue, LoneRequestPopsAtOnceAsABatchOfOne) {
  BatchQueue q(8);
  PendingRequest r = make_request(1);
  ASSERT_TRUE(q.push(r));
  Timer t;
  const auto batch = q.pop_batch();  // never waits for a partner
  EXPECT_LT(t.seconds(), 1.0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].key, TensorKey::of(testfix::random_input(1, 4)));
}

TEST(BatchQueue, BatchesPreserveFifoOrder) {
  BatchQueue q(3);
  for (std::uint64_t i = 0; i < 3; ++i) {
    PendingRequest r = make_request(i);
    ASSERT_TRUE(q.push(r));
  }
  const auto batch = q.pop_batch();
  ASSERT_EQ(batch.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batch[i].key, TensorKey::of(testfix::random_input(i, 4)));
  }
}

TEST(BatchQueue, CloseDrainsThenSignalsEmpty) {
  BatchQueue q(4);
  PendingRequest a = make_request(1), b = make_request(2);
  ASSERT_TRUE(q.push(a));
  ASSERT_TRUE(q.push(b));
  q.close();
  EXPECT_EQ(q.pop_batch().size(), 2u);  // drained despite not being full
  EXPECT_TRUE(q.pop_batch().empty());   // then the shutdown signal
  PendingRequest c = make_request(3);
  EXPECT_FALSE(q.push(c));  // intake refused after close
}

TEST(BatchQueue, PopBlocksUntilPushArrives) {
  BatchQueue q(8);
  std::vector<PendingRequest> got;
  std::thread consumer([&] { got = q.pop_batch(); });
  std::this_thread::sleep_for(10ms);  // let the consumer block on the empty queue
  PendingRequest r = make_request(5);
  ASSERT_TRUE(q.push(r));
  consumer.join();  // woke and returned a batch of one, far short of max_batch
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].key, TensorKey::of(testfix::random_input(5, 4)));
}

TEST(BatchQueue, CloseWakesBlockedConsumer) {
  BatchQueue q(4);
  std::thread consumer([&] { EXPECT_TRUE(q.pop_batch().empty()); });
  std::this_thread::sleep_for(10ms);
  q.close();
  consumer.join();
}

TEST(BatchQueue, TwoConsumersSplitTheWorkWithoutLoss) {
  BatchQueue q(2);
  constexpr int kRequests = 40;
  std::atomic<int> served{0};
  auto consume = [&] {
    for (;;) {
      const auto batch = q.pop_batch();
      if (batch.empty()) return;
      served += static_cast<int>(batch.size());
    }
  };
  std::thread c1(consume), c2(consume);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    PendingRequest r = make_request(i);
    ASSERT_TRUE(q.push(r));
  }
  while (q.pending() > 0) std::this_thread::sleep_for(1ms);
  q.close();
  c1.join();
  c2.join();
  EXPECT_EQ(served.load(), kRequests);
}

}  // namespace
}  // namespace paintplace::serve
