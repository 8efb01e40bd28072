// ReplicaPool — N sharded ForecastServer replicas behind admission control.
//
// Scale-out for the in-process serving engine: each replica owns an
// independent model instance (forward passes are stateful, so replicas never
// share one), its own micro-batch queue, and its own result cache. Requests
// shard by the placement tensor's content hash, so resubmissions of the same
// placement always land on the same replica and its cache locality survives
// scale-out — the property a round-robin front-end would destroy.
//
// Admission control happens here, before a request touches a replica:
//   * per-replica in-flight bound — a replica that cannot keep up sheds new
//     work instead of growing an unbounded queue (tail latency stays sane
//     under overload, and the shed response is immediate);
//   * per-client in-flight fairness cap — one client pipelining thousands of
//     requests cannot starve the others.
// Both report a typed ShedReason the wire layer forwards to the client.
//
// hot_swap() publishes a fresh model instance on every replica; in-flight
// batches finish on the model they started with (ForecastServer semantics),
// so accepted requests never fail across a swap.
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "serve/forecast_server.h"

namespace paintplace::net {

/// Builds one independent forecaster instance per call — the pool needs
/// `replicas` of them at construction and per hot_swap (models are stateful;
/// replicas cannot share one).
using ModelFactory = std::function<std::shared_ptr<core::CongestionForecaster>()>;

struct ReplicaPoolConfig {
  int replicas = 2;
  serve::ServeConfig serve;  ///< applied to every replica
  /// Admitted-but-unanswered bound per replica; above it new requests shed
  /// with kReplicaQueueFull. 0 disables the bound.
  Index max_replica_depth = 64;
  /// Per-client in-flight cap (kClientCapExceeded above it). 0 disables.
  Index max_client_inflight = 16;
};

/// Aggregated view across replicas for metrics and benches.
struct PoolStats {
  serve::ServeStats serve;           ///< summed over replicas
  std::uint64_t cache_hits = 0;      ///< summed ResultCache hits
  std::uint64_t cache_requests = 0;  ///< summed submits
  std::uint64_t queue_depth = 0;     ///< current admitted-but-unreleased total
  std::uint64_t max_replica_depth = 0;  ///< deepest replica right now
  std::uint64_t model_version = 0;   ///< current version (identical across replicas)
};

/// Outcome of ReplicaPool::submit. When admitted, `future` resolves with the
/// forecast and `slot` holds the admission slots (replica depth + client
/// in-flight); drop it once the future has resolved, before writing the
/// response — that is the release admission control meters on.
struct Admission {
  ShedReason shed = ShedReason::kNone;
  int replica = -1;
  std::future<serve::ForecastResult> future;
  std::shared_ptr<void> slot;

  bool admitted() const { return shed == ShedReason::kNone; }
};

class ReplicaPool {
 public:
  ReplicaPool(const ReplicaPoolConfig& config, const ModelFactory& make_model);
  ~ReplicaPool();

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;

  /// Shard of a given placement key (stable for the pool's lifetime).
  int replica_of(const serve::TensorKey& key) const;

  /// Admission check + shard + submit. `client_id` scopes the fairness cap
  /// (the net layer passes one id per connection). Throws CheckError on a
  /// bad input shape — that is the caller's bug, not load.
  Admission submit(std::uint64_t client_id, const nn::Tensor& input01);

  /// Publishes a fresh model on every replica. Returns the new (common)
  /// version. Caches clear per ForecastServer::publish_model semantics.
  std::uint64_t hot_swap(const ModelFactory& make_model, const std::string& label);

  /// Stops intake and drains every replica: all admitted futures resolve.
  void shutdown();

  PoolStats stats() const;
  /// Current admitted-but-unreleased depth per replica (health reporting).
  std::vector<Index> replica_depths() const;
  int replicas() const { return static_cast<int>(replicas_.size()); }
  serve::ForecastServer& replica(int i) { return *replicas_.at(static_cast<std::size_t>(i)); }

 private:
  ReplicaPoolConfig config_;
  std::vector<std::unique_ptr<serve::ForecastServer>> replicas_;

  // Admission bookkeeping. One mutex across all replicas is fine: the
  // critical section is a few integer ops against ~ms-scale forwards.
  mutable std::mutex admission_mu_;
  std::vector<Index> replica_depth_;
  std::unordered_map<std::uint64_t, Index> client_inflight_;
  bool shut_down_ = false;

  void release(int replica, std::uint64_t client_id);
};

}  // namespace paintplace::net
