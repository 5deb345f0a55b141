// Async inference server: request queue, dynamic cross-request batching,
// priority-weighted scheduling, worker affinity, backpressure, autoscaling,
// multi-network serving.
//
// This is the serving layer production traffic actually needs: individual
// requests arrive one at a time at unpredictable rates against many compiled
// models, and the server — not the caller — forms batches. Architecture:
//
//   submit(model, image[, class]) ─> per-model bounded queue ──┐
//   submit(model, image[, class]) ─> per-model bounded queue ──┤ scheduler
//                                                              │  thread
//   register_model(...)  adds a queue + priority weight        │
//                                                              ▼
//                        pick model: weighted deficit round-robin
//                        (up to ModelConfig::weight batches per cycle),
//                        max_batch/deadline
//                                                              │
//                        pick worker: prefer one whose executor
//                        cache is already warm for the model   │
//                                                              ▼
//                        per-worker dispatch slot ──> N live workers out of
//                        `max_workers` threads; the autoscaler moves the
//                        live count with queue-depth/latency signals
//
// Batching: a model's batch closes when `max_batch` requests are queued or
// the oldest has waited `max_delay`, whichever is first. Ready models are
// drained by weighted deficit round-robin, where ModelConfig::weight is the
// model's batch-credit grant per scheduling cycle, so a hot model gets
// proportionally more dispatch slots while a weight-1 model still dispatches
// every cycle (never starves). Within one model's queue, RequestClass::kHigh
// requests dispatch before kNormal ones. The scheduler only dispatches while
// a live worker is free — when all are busy, requests back up in the bounded
// per-model queues, which is where backpressure
// (QueuePolicy::{kBlock, kReject, kShedOldest}) engages and what the
// autoscaler reads as its grow signal.
//
// Every one of those decisions is made by runtime::Scheduler
// (scheduler.h), a single-threaded state machine that owns all scheduling
// state and takes the time as an argument. This class is the shell around
// it: the scheduler thread, the worker threads, the lock and condition
// variables, the per-worker executor caches, CancelToken arming, promise
// fulfilment and the latency windows. Under its lock it calls the
// Scheduler and applies what comes back.
//
// Results: submit() returns a std::future<QTensor> fulfilled with logits
// bit-identical to Session::run / Executor::run for the same image (the
// kernels are deterministic integer code and each request runs on one arena
// executor). A request that fails (bad shape, rejected, shed, shutdown)
// fulfills its future with an exception — ServerRejected for admission
// failures — and never disturbs its batch neighbours.
//
// Shutdown: shutdown() (and the destructor) stops admission, flushes every
// queue ignoring batching deadlines, waits for in-flight work, then joins
// the threads — no submitted request is ever silently dropped. drain()
// does the same flush-and-wait while keeping the server accepting.
//
// docs/serving.md documents the semantics precisely (with a tuning
// cookbook); docs/architecture.md places this layer in the full pipeline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/compressed_network.h"
#include "runtime/server/options.h"
#include "runtime/server/scheduler.h"
#include "runtime/server/stats.h"

namespace bswp::runtime {

/// Delivered through a request's future when admission control refuses it:
/// a kReject overflow, a kShedOldest eviction, a shutdown-time refusal, a
/// SubmitOptions::deadline that elapsed in queue, or — through the cluster
/// front door — a kFailFast route to an unhealthy shard.
class ServerRejected : public std::runtime_error {
 public:
  enum class Reason { kQueueFull, kShed, kShutdown, kUnhealthy, kDeadlineExpired };
  ServerRejected(Reason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  Reason reason() const { return reason_; }

 private:
  Reason reason_;
};

class InferenceServer {
 public:
  /// Starts the scheduler and worker threads immediately (`workers` threads,
  /// or `autoscaler.max_workers` when autoscaling is enabled — scaling only
  /// changes how many are dispatch-eligible). Per-model arena executors are
  /// built lazily, the first time a worker serves that model.
  explicit InferenceServer(const ServerOptions& options = ServerOptions{});
  /// shutdown(): drains every accepted request, then joins the threads.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Register a compiled network under `model_id` with the server-default
  /// (or an explicit) batching/queue/weight config. `net` is borrowed and
  /// must outlive the server. Throws std::invalid_argument on a duplicate
  /// id. Models may be registered while the server is running.
  void register_model(const std::string& model_id, const CompiledNetwork& net);
  void register_model(const std::string& model_id, const CompiledNetwork& net,
                      const ModelConfig& config);

  /// Submit one request. Returns immediately (kBlock: after space frees)
  /// with a future for the quantized logits. RequestClass::kHigh requests
  /// dispatch before queued kNormal requests of the same model and are shed
  /// last. Throws std::invalid_argument for an unknown model id; admission
  /// failures are delivered through the future as ServerRejected. Safe from
  /// any number of threads.
  std::future<QTensor> submit(const std::string& model_id, Tensor image,
                              RequestClass cls = RequestClass::kNormal);
  /// Submit with the full per-request option set: priority class plus an
  /// optional session-affinity key (sticky worker placement for stateful
  /// sequences) and an optional completion deadline (unmeetable requests
  /// fail with ServerRejected::Reason::kDeadlineExpired, in the queue or at
  /// a layer boundary). See SubmitOptions for the exact semantics of each
  /// knob.
  std::future<QTensor> submit(const std::string& model_id, Tensor image,
                              const SubmitOptions& options);

  /// Drop the sticky-worker mapping for `affinity_key` on `model_id` (no-op
  /// for an unknown key). Session close/expiry calls this so a recycled key
  /// starts cold instead of chasing a stale worker.
  void forget_affinity(const std::string& model_id, std::uint64_t affinity_key);

  /// Flush every queued request (batching deadlines ignored) and wait until
  /// the server is momentarily idle: queues empty, no batch in flight.
  /// Concurrent submits are still accepted and extend the wait.
  void drain();

  /// Stop admission, drain, and join all threads. Idempotent; called by the
  /// destructor. Requests blocked in a kBlock submit are rejected.
  void shutdown();

  /// Aggregate + per-model snapshot (registration order). Percentiles are
  /// computed outside the server lock — polling stats() does not stall
  /// submit/dispatch for the sort.
  ServerStats stats() const;
  ModelStats model_stats(const std::string& model_id) const;
  /// Zero every admission/dispatch/affinity counter, batch histogram,
  /// latency window and autoscaler event counter (e.g. after warm-up,
  /// before a measured run); peak_workers restarts from the current live
  /// count. Queued/in-flight requests are unaffected and will count against
  /// the fresh counters on completion. Control state is not touched: the
  /// live worker count, the autoscaler's latency EWMA and streaks, the cost
  /// calibration and the sticky keys carry on, so a reset never delays a
  /// scale event.
  void reset_stats();

  /// Live (dispatch-eligible) workers right now; moves between
  /// autoscaler.min_workers/max_workers when autoscaling is enabled.
  int worker_count() const;
  std::vector<std::string> model_ids() const;
  /// False once shutdown() has begun: every subsequent submit is rejected.
  /// The cluster front door (runtime/frontdoor/) polls this to route around
  /// a stopped shard without burning a request to find out.
  bool accepting() const;

 private:
  struct Model;

  void scheduler_main();
  void worker_main(int wid);
  /// Index of `model_id` in models_ (== its Scheduler index). Throws
  /// std::invalid_argument naming `who` for an unknown id. Lock held.
  int find_locked(const std::string& model_id, const char* who) const;
  /// End-to-end and executor latency summaries of one pair of windows:
  /// copied under stats_mu_, sorted unlocked. Call without mu_.
  std::pair<LatencySummary, LatencySummary> summarize(const LatencyRecorder& latency,
                                                      const LatencyRecorder& exec_latency) const;

  ServerOptions options_;
  /// Resolved time source: options_.clock, or the process steady clock.
  /// Every timed decision and latency stamp reads through this.
  const Clock* clock_ = nullptr;

  std::mutex lifecycle_mu_;  // serializes shutdown()/destructor
  mutable std::mutex mu_;    // the Scheduler, models_, lifecycle flags
  // Latency sample windows live behind their own lock so a stats() poll
  // copying them (up to latency_window doubles per model) never blocks
  // submit or the scheduler on mu_. Discipline: stats_mu_ is NEVER held
  // together with mu_ — every path takes them sequentially.
  mutable std::mutex stats_mu_;
  std::condition_variable sched_cv_;  // scheduler: arrivals, freed workers
  std::condition_variable space_cv_;  // kBlock submitters: queue space
  std::condition_variable idle_cv_;   // drain/shutdown: server went idle

  /// Every scheduling decision and the state behind it. Guarded by mu_.
  Scheduler sched_;
  /// The scheduler thread's reused decision buffers. Guarded by mu_.
  Scheduler::Step step_;
  // Registration order == Scheduler model index; lookup is a linear scan,
  // which is fine for the handful of models a server realistically hosts.
  // Model addresses are stable (unique_ptr): workers and stats() use them
  // outside mu_.
  std::vector<std::unique_ptr<Model>> models_;
  // One per worker thread (index == thread id == Scheduler worker), so a
  // dispatch wakes exactly the worker it placed a batch on.
  std::vector<std::condition_variable> worker_cv_;

  bool accepting_ = true;
  int drain_waiters_ = 0;  // the flush stays on while any drain() waits
  bool stop_threads_ = false;
  bool joined_ = false;

  LatencyRecorder global_latency_;       // across models, guarded by stats_mu_
  LatencyRecorder global_exec_latency_;  // executor time only, guarded by stats_mu_

  std::thread scheduler_;
  std::vector<std::thread> workers_;
};

}  // namespace bswp::runtime
