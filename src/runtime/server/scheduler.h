// The async inference server's decisions, as a single-threaded state
// machine: admission, deadline purge, weighted-deficit model selection,
// sticky and warm worker placement, autoscaling, executor-cache eviction and
// cost-model calibration.
//
// The Scheduler owns every piece of scheduling state — per model the two
// class FIFOs, the batch credits, the sticky-worker map, the cost schedule
// with its calibration EWMA and the counters; per worker the dispatch slot,
// the warm set and its bytes, the last completion time and the eviction
// flag; server-wide the live worker count, the autoscaler's streaks,
// cooldown and cadence, the latency EWMA, the scan cursor and the flush
// flag. It holds no thread, lock or clock and fulfils no promise: every
// timed method takes `now`, and a request it admits leaves again only
// through one of its decisions — a dispatched Task, an expired purge, or a
// kShedOldest victim — for the caller to run or fail.
//
// InferenceServer (inference_server.h) is the shell around it: it owns the
// threads, the mutex and condition variables, the executors and the
// promises, calls the Scheduler under its lock and applies what comes back.
// The same sequence of calls with the same `now`s always produces the same
// decisions, so tests drive the Scheduler step by step with no threads and
// no sleeps (tests/test_scheduler.cpp). Not thread-safe.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/tensor.h"
#include "runtime/clock.h"
#include "runtime/server/options.h"
#include "runtime/server/stats.h"

namespace bswp::runtime {

class Scheduler {
 public:
  using time_point = Clock::time_point;

  /// One queued request: the input, the client's promise, and two
  /// timestamps — end-to-end latency is measured from `arrival` (the top of
  /// submit(), so a kBlock wait on a full queue is counted), while the
  /// batching deadline runs from `enqueue` (queue entry, the moment the
  /// request became batchable). The Scheduler moves requests between its
  /// queues and its decisions; it never reads the image or the promise.
  struct Request {
    Tensor image;
    std::promise<QTensor> promise;
    time_point arrival;
    time_point enqueue{};  // stamped by admit()
    /// SubmitOptions::affinity_key (0 = none): sticky-worker placement.
    std::uint64_t affinity_key = 0;
    /// Absolute completion deadline (enqueue + SubmitOptions::deadline);
    /// max() = none. Unmeetable requests are purged by step().
    time_point deadline = time_point::max();
  };

  /// One formed batch, collected by its worker with start().
  struct Task {
    int model = -1;
    std::vector<Request> requests;
    /// The model's per-image remaining-execution schedule and its current
    /// calibration (measured / predicted), for arming the batch's
    /// CancelToken. The schedule is immutable after add_model(), so the span
    /// may be read unlocked.
    std::span<const double> remaining_us;
    double calibration = 1.0;
  };

  /// The decisions of one step(). The caller owns it and passes the same
  /// one every time, so the vectors keep their capacity between steps.
  struct Step {
    std::vector<int> dispatched;   // workers handed a Task, in dispatch order
    std::vector<Request> expired;  // purged: deadline unmeetable
    std::vector<int> evict;        // parked workers that must drop their caches
    time_point wake = time_point::max();  // next timed decision; max() = none
  };

  /// A worker's report on the Task it ran, counted in requests.
  struct Done {
    std::size_t completed = 0;  // fulfilled with logits
    std::size_t failed = 0;     // fulfilled with an error, sheds excluded
    std::size_t shed = 0;       // cancelled at a layer boundary
    double latency_sum_us = 0.0;  // end-to-end, over completed + failed
    std::size_t exec_images = 0;  // images that produced logits ...
    double exec_us = 0.0;         // ... and their summed executor time
    /// The worker built the model's executor for this Task, holding
    /// `arena_bytes` of arena memory.
    bool built = false;
    std::size_t arena_bytes = 0;
  };

  /// Validates `options` (std::invalid_argument) and sizes the worker slots:
  /// `workers`, or `autoscaler.max_workers` when autoscaling. `now` starts
  /// the autoscaler cadence and every worker's idle clock.
  Scheduler(const ServerOptions& options, time_point now);

  /// Register a model; returns its index (registration order). Validates
  /// `config`. `remaining_us[p]` is the per-image estimate from layer p to
  /// the end of the plan; empty means no estimate (deadlines then bound
  /// queue residency only).
  int add_model(const ModelConfig& config, std::vector<double> remaining_us);

  // --- admission -------------------------------------------------------------
  /// nullopt while `model`'s queue has space; otherwise the QueuePolicy to
  /// apply: kBlock waits until this returns nullopt, kReject refuses the
  /// request (reject()), kShedOldest admits it and admit() sheds.
  std::optional<QueuePolicy> full(int model) const;
  /// Queue `r` at `now` under `options`' class, affinity key and deadline.
  /// On a full queue this is the kShedOldest path: the oldest normal-class
  /// request (or, with none queued, the oldest high-class one) leaves and is
  /// returned for the caller to fail.
  std::optional<Request> admit(int model, Request r, const SubmitOptions& options,
                               time_point now);
  /// Count a submit refused before admission.
  void reject(int model) { ++models_[model].counters.admission.rejected; }
  /// Drop `key`'s sticky worker on `model` (no-op for an unknown key).
  void forget_affinity(int model, std::uint64_t key) { models_[model].sticky.erase(key); }
  /// While set (drain/shutdown), every queued request is ready: batching
  /// windows are ignored.
  void set_flush(bool flush) { flush_ = flush; }

  // --- decisions -------------------------------------------------------------
  /// Everything due at `now`, in order: one autoscaler evaluation when its
  /// interval has elapsed, then purge and dispatch until no free live worker
  /// or no ready model is left. Fills `out` (cleared first); `out.wake` is
  /// the earliest batching window, effective request deadline or autoscaler
  /// evaluation still ahead.
  void step(time_point now, Step& out);

  // --- worker protocol -------------------------------------------------------
  /// The Task placed on `worker` and not yet collected by start(), or null.
  const Task* pending(int worker) const {
    const Task& task = workers_[worker].task;
    return task.requests.empty() ? nullptr : &task;
  }
  bool evict_requested(int worker) const { return workers_[worker].evict_requested; }
  /// The worker collects its Task and is busy until finish().
  Task start(int worker);
  /// The worker's Task is done: counters, warm set, cost calibration and
  /// the latency EWMA take `done` in; the worker is free again.
  void finish(int worker, const Done& done, time_point now);
  /// Clears the eviction flag; true when the worker must drop its executor
  /// cache now (false when a dispatch raced in: a worker holding a task is
  /// live again and never evicted). Report the drop with evicted().
  bool claim_eviction(int worker);
  void evicted(int worker, std::size_t executors);

  // --- observation -----------------------------------------------------------
  /// Queues empty and no task pending or running.
  bool idle() const;
  int live_workers() const { return live_; }
  int worker_slots() const { return static_cast<int>(workers_.size()); }
  /// The model's calibrated whole-network execution estimate per image
  /// (zero without a cost schedule).
  Clock::duration estimate(int model) const;
  /// Counters and instantaneous state; the caller adds the model name and
  /// the latency summaries.
  ModelStats model_stats(int model) const;
  ServerStats stats() const;
  /// Zero every counter, histogram and scale-event count; peak_workers
  /// restarts from the live count. Control state — queues, credits, sticky
  /// keys, calibration, the latency EWMA, streaks, cooldown, warm sets —
  /// is left alone, so a reset never delays or forces a decision.
  void reset_stats();

 private:
  /// Everything the Scheduler knows about one registered model. The queue
  /// is two FIFOs, one per RequestClass: dispatch pops kHigh first,
  /// kShedOldest evicts kNormal first, and the batching deadline runs from
  /// the oldest request across both.
  struct Model {
    ModelConfig config;
    /// Execution-aware deadline schedule: remaining_us[p] is the estimated
    /// per-image microseconds from layer p (inclusive) to the end of the
    /// plan. Immutable after add_model().
    std::vector<double> remaining_us;
    /// EWMA calibration of the cost model against measured executor wall
    /// time (measured / predicted, per image); 1.0 until the first completed
    /// batch with a nonzero measurement (manual-clock runs measure zero wall
    /// time and leave it at 1), which replaces it outright.
    double cost_scale = 1.0;
    bool cost_scale_valid = false;  // a measurement has been folded in
    std::deque<Request> high;  // RequestClass::kHigh, FIFO
    std::deque<Request> norm;  // RequestClass::kNormal, FIFO
    /// Batches this model may still dispatch in the current scheduling
    /// cycle. Refilled to config.weight when every ready model has spent
    /// its grant; zeroed when the queue empties (no banked bursts).
    int credits = 0;
    /// Sticky worker of each session-affinity key, written at dispatch and
    /// erased by forget_affinity(). State, not statistics: reset_stats
    /// leaves it alone. Bounded in dispatch() — a client that leaks keys
    /// (never calls forget_affinity) degrades to cold placement instead of
    /// growing this map without bound.
    std::unordered_map<std::uint64_t, int> sticky;
    /// Admission, dispatch, affinity and deadline counters plus the batch
    /// histogram, kept in their reported form.
    ModelStats counters;

    std::size_t queued() const { return high.size() + norm.size(); }

    /// Enqueue time of the oldest queued request across both classes (each
    /// deque is FIFO by enqueue, so this is the min of the two fronts).
    time_point oldest_enqueue() const {
      if (high.empty()) return norm.front().enqueue;
      if (norm.empty()) return high.front().enqueue;
      return std::min(high.front().enqueue, norm.front().enqueue);
    }

    /// Affinity key of the next request pop_next() would return (0 if none
    /// queued or unkeyed) — what worker selection steers by.
    std::uint64_t next_key() const {
      const std::deque<Request>& q = high.empty() ? norm : high;
      return q.empty() ? 0 : q.front().affinity_key;
    }

    /// Next request to dispatch: high-class first, FIFO within a class.
    Request pop_next() { return pop_front(high.empty() ? norm : high); }

    /// kShedOldest victim: the oldest normal-class request, or — when no
    /// normal-class request is queued — the oldest high-class one.
    Request pop_shed_victim() { return pop_front(norm.empty() ? high : norm); }

    static Request pop_front(std::deque<Request>& q) {
      Request r = std::move(q.front());
      q.pop_front();
      return r;
    }
  };

  /// One worker's dispatch slot plus what the Scheduler knows about its
  /// executor cache.
  struct Worker {
    Task task;          // placed by dispatch(), not yet collected by start()
    int running = -1;   // model of the Task between start() and finish()
    /// Models whose arena Executor this worker has built (affinity targets).
    /// Survives descaling: a parked worker re-enters warm — unless the
    /// eviction policy (evict_after / max_warm_bytes) reclaims it.
    std::vector<int> warm;
    /// Arena bytes of the executors this worker holds; summed into
    /// ServerStats::warm_bytes and drained by the max_warm_bytes policy.
    std::size_t warm_bytes = 0;
    /// Completion time of this worker's last batch — the idleness the
    /// evict_after policy measures.
    time_point last_active;
    /// Set by the autoscaler on a parked worker; cleared by claim_eviction().
    bool evict_requested = false;

    bool free() const { return running < 0 && task.requests.empty(); }
  };

  /// The ready model to dispatch next, or -1. Purges unmeetable requests
  /// into `out.expired` first, and lowers `next_deadline` to the earliest
  /// batching window or effective request deadline still ahead.
  int select_model(time_point now, time_point* next_deadline, Step& out);
  void expire_deadlines(int model, time_point now, time_point* next_deadline, Step& out);
  /// Free live worker for `model`, preferring (1) the sticky worker of the
  /// next request's affinity key, (2) a warm executor (affinity hit); -1
  /// when every live worker is occupied.
  int select_worker(int model, bool* hit, bool* session_hit) const;
  /// Pop up to max_batch requests (kHigh first) into `worker`'s slot and
  /// record keyed requests' sticky worker.
  void dispatch(int model, int worker, bool affinity_hit, bool session_hit);
  /// One autoscaler evaluation: maybe move the live count by one, and flag
  /// parked workers for eviction into `out.evict`.
  void autoscale(time_point now, Step& out);

  AutoscalerOptions autoscaler_;
  /// A deque: registration never moves a Model, so a Task's span into its
  /// cost schedule stays valid.
  std::deque<Model> models_;
  std::vector<Worker> workers_;
  std::size_t cursor_ = 0;  // scan cursor into models_
  bool flush_ = false;      // drain/shutdown: ignore batching deadlines
  int live_ = 0;            // workers [0, live_) are dispatch-eligible
  /// Server-wide counters in their reported form: peak_workers, the scale
  /// events, autoscale_evals and evicted_executors.
  ServerStats totals_;
  int up_streak_ = 0;    // consecutive pressure evaluations (hysteresis)
  int down_streak_ = 0;  // consecutive idle evaluations (hysteresis)
  time_point last_scale_;
  time_point next_eval_;
  /// Server-wide EWMA of end-to-end request latency (µs), the autoscaler's
  /// optional latency signal.
  double lat_ewma_us_ = 0.0;
  bool lat_ewma_valid_ = false;
};

}  // namespace bswp::runtime
