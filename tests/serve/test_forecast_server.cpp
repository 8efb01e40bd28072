#include "serve/forecast_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "nn/tensor_ops.h"
#include "obs/metrics_registry.h"
#include "tests/serve/serve_fixtures.h"

namespace paintplace::serve {
namespace {

using namespace std::chrono_literals;

ServeConfig quick_config() {
  ServeConfig cfg;
  cfg.max_batch = 4;
  return cfg;
}

/// Requests the batch worker has started executing so far, process-wide:
/// run_batch records one batch-wait sample per request as a batch starts.
std::uint64_t requests_started() {
  return obs::MetricsRegistry::global().histogram("serve_batch_wait_seconds").count();
}

TEST(ForecastServer, ResultMatchesDirectPredict) {
  ForecastServer server(quick_config(), testfix::tiny_model());
  const nn::Tensor x = testfix::random_input(1);
  const ForecastResult r = server.submit(x).get();

  // Reference from an identically-seeded standalone model.
  auto reference = testfix::tiny_model();
  reference->set_deterministic_inference(true);
  const nn::Tensor expected = reference->predict(x);
  EXPECT_EQ(r.heatmap.max_abs_diff(expected), 0.0f);
  EXPECT_DOUBLE_EQ(r.congestion_score, reference->congestion_score(expected));
  EXPECT_EQ(r.model_version, 1u);
  EXPECT_FALSE(r.from_cache);
}

TEST(ForecastServer, IdenticalPlacementHitsCacheBitIdentically) {
  ForecastServer server(quick_config(), testfix::tiny_model());
  const nn::Tensor x = testfix::random_input(7);
  const ForecastResult first = server.submit(x).get();
  ASSERT_FALSE(first.from_cache);
  const ForecastResult second = server.submit(x).get();
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.heatmap.max_abs_diff(first.heatmap), 0.0f);
  EXPECT_DOUBLE_EQ(second.congestion_score, first.congestion_score);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.model_samples, 1u);  // the model ran exactly once
}

TEST(ForecastServer, DuplicatesInsideOneBatchRunOnce) {
  ServeConfig cfg = quick_config();
  cfg.max_batch = 8;
  ForecastServer server(cfg, testfix::slow_model());
  // Once the worker has taken the blocker it is busy with a slow forward; the
  // four duplicates queue up behind it and pop together as the next batch.
  const std::uint64_t started = requests_started();
  std::future<ForecastResult> blocker = server.submit(testfix::slow_input(2));
  while (requests_started() == started) std::this_thread::yield();
  const nn::Tensor x = testfix::slow_input(1);
  std::vector<std::future<ForecastResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(server.submit(x));
  (void)blocker.get();
  std::vector<ForecastResult> results;
  for (auto& f : futures) results.push_back(f.get());
  for (const ForecastResult& r : results) {
    EXPECT_EQ(r.heatmap.max_abs_diff(results[0].heatmap), 0.0f);
  }
  const ServeStats stats = server.stats();
  // The duplicate input ran once: three of its four requests were folded
  // into the first one's forward inside a single batch.
  EXPECT_EQ(stats.model_samples, 2u);  // the blocker + x
  EXPECT_EQ(stats.coalesced, 3u);
  EXPECT_EQ(stats.requests, 5u);
}

TEST(ForecastServer, CoalescesConcurrentSubmitsIntoBatches) {
  ServeConfig cfg = quick_config();
  cfg.max_batch = 4;
  // Each slow forward leaves the other clients time to queue their next
  // request, so later batches carry more than one.
  ForecastServer server(cfg, testfix::slow_model());
  constexpr int kClients = 3, kPerClient = 8;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ok, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const nn::Tensor x = testfix::slow_input(static_cast<std::uint64_t>(c * 1000 + i));
        const ForecastResult r = server.submit(x).get();
        if (r.heatmap.shape() ==
            nn::Shape{1, 3, testfix::kSlowImageSize, testfix::kSlowImageSize}) {
          ok += 1;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.model_samples, stats.requests - stats.cache_hits - stats.coalesced);
  EXPECT_GE(stats.max_batch, 2u);
  EXPECT_LE(stats.max_batch, 4u);
}

TEST(ForecastServer, ShutdownDrainsPendingRequests) {
  auto server = std::make_unique<ForecastServer>(quick_config(), testfix::slow_model());
  std::vector<std::future<ForecastResult>> futures;
  for (std::uint64_t i = 0; i < 5; ++i) futures.push_back(server->submit(testfix::slow_input(i)));
  // The worker is still inside the first slow forward: the rest are queued.
  EXPECT_EQ(futures.back().wait_for(0s), std::future_status::timeout);
  server->shutdown();  // must serve all 5 requests before returning
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(f.get().heatmap.shape(),
              (nn::Shape{1, 3, testfix::kSlowImageSize, testfix::kSlowImageSize}));
  }
}

TEST(ForecastServer, SubmitAfterShutdownThrows) {
  ForecastServer server(quick_config(), testfix::tiny_model());
  server.shutdown();
  EXPECT_THROW(server.submit(testfix::random_input(1)), CheckError);
}

TEST(ForecastServer, ShutdownIsIdempotentAndRunsOnDestruction) {
  auto server = std::make_unique<ForecastServer>(quick_config(), testfix::tiny_model());
  (void)server->submit(testfix::random_input(1)).get();
  server->shutdown();
  server->shutdown();
  server.reset();  // destructor after explicit shutdown must not hang/throw
}

TEST(ForecastServer, ConcurrentSubmitAndShutdownEitherServesOrRefuses) {
  for (int round = 0; round < 5; ++round) {
    ForecastServer server(quick_config(), testfix::tiny_model());
    std::atomic<int> served{0}, refused{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < 6; ++i) {
          try {
            auto f = server.submit(
                testfix::random_input(static_cast<std::uint64_t>(round * 100 + c * 10 + i)));
            f.get();  // accepted submissions must always resolve
            served += 1;
          } catch (const CheckError&) {
            refused += 1;  // raced with shutdown — a clean refusal
          }
        }
      });
    }
    std::this_thread::sleep_for(1ms);
    server.shutdown();
    for (auto& t : clients) t.join();
    EXPECT_EQ(served.load() + refused.load(), 18);
  }
}

TEST(ForecastServer, HotSwapKeepsServingAndBumpsVersion) {
  ServeConfig cfg = quick_config();
  ForecastServer server(cfg, testfix::tiny_model(/*seed=*/9), "base");
  const nn::Tensor x = testfix::random_input(1);
  const ForecastResult before = server.submit(x).get();
  EXPECT_EQ(before.model_version, 1u);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread hammer([&] {
    std::uint64_t i = 100;
    while (!stop) {
      try {
        server.submit(testfix::random_input(i++)).get();
      } catch (...) {
        failures += 1;
      }
    }
  });
  const std::uint64_t v2 = server.publish_model(testfix::tiny_model(/*seed=*/31), "fine-tuned");
  EXPECT_EQ(v2, 2u);
  stop = true;
  hammer.join();
  EXPECT_EQ(failures.load(), 0);  // swap never failed an in-flight request

  // Same input now answered by the new checkpoint (not the stale cache).
  const ForecastResult after = server.submit(x).get();
  EXPECT_EQ(after.model_version, 2u);
  EXPECT_FALSE(after.from_cache);
  EXPECT_GT(after.heatmap.max_abs_diff(before.heatmap), 0.0f);
  const auto hist = server.registry().history();
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[1].second, "fine-tuned");
}

TEST(ForecastServer, RejectsUnsoundConfigurations) {
  ServeConfig stochastic_with_cache = quick_config();
  stochastic_with_cache.deterministic = false;
  EXPECT_THROW(ForecastServer(stochastic_with_cache, testfix::tiny_model()), CheckError);
  stochastic_with_cache.cache_capacity = 0;  // stochastic serving is fine uncached
  EXPECT_NO_THROW(ForecastServer(stochastic_with_cache, testfix::tiny_model()));

  EXPECT_THROW(ForecastServer(quick_config(), nullptr), CheckError);
}

TEST(ForecastServer, WrongShapeSubmitFailsFast) {
  ForecastServer server(quick_config(), testfix::tiny_model());
  EXPECT_THROW(server.submit(nn::Tensor(nn::Shape{1, 4, 8, 8})), CheckError);
  EXPECT_THROW(server.submit(nn::Tensor(nn::Shape{2, 4, 16, 16})), CheckError);
  // The failure did not poison the server.
  EXPECT_NO_THROW(server.submit(testfix::random_input(1)).get());
}

}  // namespace
}  // namespace paintplace::serve
