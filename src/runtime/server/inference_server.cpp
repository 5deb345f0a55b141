#include "runtime/server/inference_server.h"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "runtime/executor.h"
#include "sim/mcu.h"

namespace bswp::runtime {

// In this file `Clock` is runtime::Clock (the injectable seam from
// runtime/clock.h); its time_point/duration are steady_clock's, so existing
// timestamp types are unchanged. Every read of "now" goes through clock_.

namespace {

double micros_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

}  // namespace

/// What the shell keeps about one registered model: what its workers need
/// to build and run executors, and its latency windows. Heap-pinned
/// (unique_ptr in models_) so workers and stats() can use it outside mu_;
/// everything but the recorders (guarded by stats_mu_) is immutable.
struct InferenceServer::Model {
  Model(std::string id_, const CompiledNetwork& n, int max_batch_, std::size_t window)
      : id(std::move(id_)), net(&n), max_batch(max_batch_), latency(window), exec_latency(window) {
    for (const auto& p : n.plans) {
      if (p.kind == PlanKind::kInput) {
        input_chw = p.out_chw;
        break;
      }
    }
  }

  std::string id;
  const CompiledNetwork* net;
  int max_batch;  // image slots of this model's executors
  /// The compiled input CHW, for pre-dispatch shape validation (empty when
  /// the network has no kInput plan).
  std::vector<int> input_chw;
  LatencyRecorder latency;       // end-to-end, incl. queueing
  LatencyRecorder exec_latency;  // executor time only
};

InferenceServer::InferenceServer(const ServerOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : &steady_clock_ref()),
      sched_(options, clock_->now()),
      worker_cv_(static_cast<std::size_t>(sched_.worker_slots())),
      global_latency_(options.latency_window),
      global_exec_latency_(options.latency_window) {
  scheduler_ = std::thread([this] { scheduler_main(); });
  workers_.reserve(worker_cv_.size());
  for (int i = 0; i < sched_.worker_slots(); ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::register_model(const std::string& model_id, const CompiledNetwork& net) {
  register_model(model_id, net, ModelConfig{options_.batching, options_.queue});
}

void InferenceServer::register_model(const std::string& model_id, const CompiledNetwork& net,
                                     const ModelConfig& config) {
  check(!net.plans.empty(), "InferenceServer::register_model: empty network");
  auto model = std::make_unique<Model>(model_id, net, config.batching.max_batch,
                                       options_.latency_window);
  std::vector<double> remaining_us;
  if (model->input_chw.size() == 3) {
    // One-time per-layer cost capture: the estimate source for execution-
    // aware deadlines. A throwaway single-image Executor runs the plan once,
    // each layer tallying its own CostCounter; the host profile prices the
    // counters and the suffix sum becomes the remaining-execution schedule
    // CancelTokens are armed with. Event counts depend on geometry and bit
    // planes, not weight values, so a zero image prices like any other. A
    // model this fails for simply serves with queue-residency deadlines.
    try {
      Executor probe(net, 1);
      const Tensor zero(std::vector<int>{model->input_chw[0], model->input_chw[1],
                                         model->input_chw[2]});
      const std::vector<sim::CostCounter> layers = probe.profile_layers(zero);
      const sim::McuProfile host = sim::host_profile();
      remaining_us.assign(layers.size(), 0.0);
      double acc = 0.0;
      for (std::size_t p = layers.size(); p-- > 0;) {
        acc += host.seconds(layers[p]) * 1e6;
        remaining_us[p] = acc;
      }
      if (!(acc > 0.0)) remaining_us.clear();
    } catch (...) {
      remaining_us.clear();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  check(accepting_, "InferenceServer::register_model: server is shut down");
  for (const auto& m : models_) {
    check(m->id != model_id,
          "InferenceServer::register_model: duplicate model id '" + model_id + "'");
  }
  sched_.add_model(config, std::move(remaining_us));
  models_.push_back(std::move(model));
}

int InferenceServer::find_locked(const std::string& model_id, const char* who) const {
  for (std::size_t i = 0; i < models_.size(); ++i) {
    if (models_[i]->id == model_id) return static_cast<int>(i);
  }
  throw std::invalid_argument(std::string(who) + ": unknown model '" + model_id + "'");
}

std::future<QTensor> InferenceServer::submit(const std::string& model_id, Tensor image,
                                             RequestClass cls) {
  SubmitOptions options;
  options.cls = cls;
  return submit(model_id, std::move(image), options);
}

std::future<QTensor> InferenceServer::submit(const std::string& model_id, Tensor image,
                                             const SubmitOptions& options) {
  const Clock::time_point arrival = clock_->now();
  std::promise<QTensor> promise;
  std::future<QTensor> fut = promise.get_future();

  std::unique_lock<std::mutex> lock(mu_);
  const int model = find_locked(model_id, "InferenceServer::submit");

  const auto reject = [&](ServerRejected::Reason reason, const char* what) {
    sched_.reject(model);
    lock.unlock();
    promise.set_exception(std::make_exception_ptr(ServerRejected(reason, what)));
    return std::move(fut);
  };
  // Admission control: the queue is bounded, and this is where a saturated
  // server pushes back (the scheduler stops draining queues once every live
  // worker is busy). A kBlock submitter waits for space; shutdown wakes it,
  // and it is refused with every other submit that finds the server
  // stopped.
  if (sched_.full(model) == QueuePolicy::kBlock) {
    space_cv_.wait(lock, [&] { return !accepting_ || !sched_.full(model); });
  }
  if (!accepting_) {
    return reject(ServerRejected::Reason::kShutdown, "InferenceServer: shutting down");
  }
  if (sched_.full(model) == QueuePolicy::kReject) {
    return reject(ServerRejected::Reason::kQueueFull, "InferenceServer: queue full (kReject)");
  }
  std::optional<Scheduler::Request> victim = sched_.admit(
      model, {std::move(image), std::move(promise), arrival}, options, clock_->now());
  if (victim) {
    // The victim's future must be failed before mu_ is released: once
    // the request leaves the queue it is invisible to drain()/shutdown's
    // idle predicate, and their "every accepted future is ready"
    // guarantee would otherwise race the set_exception below.
    victim->promise.set_exception(std::make_exception_ptr(
        ServerRejected(ServerRejected::Reason::kShed,
                       "InferenceServer: shed by a newer request (kShedOldest)")));
  }
  sched_cv_.notify_one();
  return fut;
}

void InferenceServer::forget_affinity(const std::string& model_id, std::uint64_t affinity_key) {
  std::lock_guard<std::mutex> lock(mu_);
  sched_.forget_affinity(find_locked(model_id, "InferenceServer::forget_affinity"), affinity_key);
}

void InferenceServer::scheduler_main() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_threads_) {
    sched_.step(clock_->now(), step_);
    for (int wid : step_.dispatched) worker_cv_[wid].notify_one();
    for (int wid : step_.evict) worker_cv_[wid].notify_one();
    // Fail purged futures before mu_ is released, like the kShedOldest
    // path: once a request leaves the queue it is invisible to the
    // drain()/shutdown idle predicate, whose "every accepted future is
    // ready" guarantee must not race this set_exception.
    for (Scheduler::Request& r : step_.expired) {
      r.promise.set_exception(std::make_exception_ptr(ServerRejected(
          ServerRejected::Reason::kDeadlineExpired,
          "InferenceServer: deadline unmeetable (expired in queue, or remaining "
          "slack below the execution estimate)")));
    }
    if (!step_.dispatched.empty() || !step_.expired.empty()) {
      space_cv_.notify_all();  // queue space freed for kBlock submitters
    }
    if (!step_.expired.empty()) idle_cv_.notify_all();  // a drain() may await empty queues
    step_.expired.clear();  // release the purged inputs now, not at the next step

    // Arrivals and freed workers re-wake us before step_.wake.
    if (step_.wake != Clock::time_point::max()) {
      clock_->wait_until(sched_cv_, lock, step_.wake);
    } else {
      sched_cv_.wait(lock);
    }
  }
}

void InferenceServer::worker_main(int wid) {
  std::condition_variable& cv = worker_cv_[wid];
  // One arena Executor per model this worker has served, keyed by model
  // index; arenas stay warm across batches (and across descale/rescale — a
  // parked worker keeps its cache, which is what makes affinity hits resume
  // immediately after a scale-up). Executors are built with the model's
  // max_batch, so every formed batch runs as one call.
  std::unordered_map<int, std::unique_ptr<Executor>> executors;
  // Dispatch stages validated images contiguously here (Tensor moves only)
  // so the whole batch goes through ONE run_batch_view span; both
  // vectors keep their capacity across batches, so the steady state of a
  // warm worker performs no heap allocations on the dispatch path.
  std::vector<Tensor> staging;
  std::vector<std::size_t> staged_req;  // staging slot -> request index
  // One reusable cooperative token: armed per executor call (owner-thread
  // protocol — never while a run is in flight), checked by the executor at
  // every layer boundary.
  CancelToken cancel;

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv.wait(lock, [&] {
      return stop_threads_ || sched_.pending(wid) != nullptr || sched_.evict_requested(wid);
    });
    if (sched_.claim_eviction(wid)) {
      // Drop the cache. It moves to a local map so the arenas (the actual
      // memory the policy reclaims) are freed outside mu_; the Scheduler's
      // counters and warm set update first.
      std::unordered_map<int, std::unique_ptr<Executor>> dropped;
      dropped.swap(executors);
      sched_.evicted(wid, std::count_if(dropped.begin(), dropped.end(),
                                        [](const auto& e) { return e.second != nullptr; }));
      lock.unlock();
      dropped.clear();
      lock.lock();
    }
    if (sched_.pending(wid) == nullptr) {
      if (stop_threads_) return;  // queues already drained
      continue;                   // eviction wake (or spurious): nothing to run
    }
    Scheduler::Task task = sched_.start(wid);
    Model& m = *models_[task.model];
    lock.unlock();

    std::unique_ptr<Executor>& exec = executors[task.model];
    Scheduler::Done done;
    std::exception_ptr build_error;
    if (exec == nullptr) {
      try {
        exec = std::make_unique<Executor>(*m.net, m.max_batch);
        done.built = true;
        done.arena_bytes = exec->arena_bytes();
      } catch (...) {
        build_error = std::current_exception();
      }
    }

    struct Outcome {
      QTensor logits;
      std::exception_ptr error;
      double e2e_us = 0.0;
      double exec_us = 0.0;  // executor wall time attributed to this request
      bool ran = false;      // produced logits (exec_us is meaningful)
      bool shed = false;     // cancelled at a layer boundary (SLO unreachable)
    };
    std::vector<Outcome> outcomes(task.requests.size());
    // Execution-aware shedding: the token is armed with a member deadline and
    // the model's remaining-execution schedule (immutable after registration,
    // so reading it without mu_ is safe), scaled by the measured calibration
    // times the number of images in the run — the schedule is per image, and
    // the calibration tracks amortized per-image batch cost, so an n-image
    // batch prices at n times the per-image estimate. The executor then
    // sheds the run at the first layer boundary where the deadline can no
    // longer be met — for a batch that was never feasible, that is layer 0,
    // before any work is wasted on it.
    const auto arm_token = [&](Clock::time_point dl, std::size_t n_images) {
      cancel.disarm();
      if (!task.remaining_us.empty() && dl != Clock::time_point::max()) {
        cancel.arm(clock_, dl, task.remaining_us.data(), task.remaining_us.size(),
                   task.calibration * static_cast<double>(n_images));
      }
    };
    const auto mark_shed = [](Outcome& o) {
      o.shed = true;
      o.error = std::make_exception_ptr(ServerRejected(
          ServerRejected::Reason::kDeadlineExpired,
          "InferenceServer: in-flight work shed at a layer boundary (deadline "
          "unreachable)"));
    };
    if (build_error != nullptr) {
      for (Outcome& o : outcomes) o.error = build_error;
    } else {
      // Up-front shape validation: a bad request fails its own future here
      // and never enters the batch, so its neighbours still ride the single
      // batched executor call.
      staging.clear();
      staged_req.clear();
      Clock::time_point latest_deadline = Clock::time_point::min();
      for (std::size_t i = 0; i < task.requests.size(); ++i) {
        const std::string bad = input_shape_error(task.requests[i].image, m.input_chw);
        if (!bad.empty()) {
          outcomes[i].error = std::make_exception_ptr(std::invalid_argument(bad));
        } else {
          staging.push_back(std::move(task.requests[i].image));
          staged_req.push_back(i);
          latest_deadline = std::max(latest_deadline, task.requests[i].deadline);
        }
      }
      if (!staging.empty()) {
        // Armed with the LATEST member deadline: the batch runs (and members
        // whose own deadline lapsed deliver late) as long as ANY member's
        // SLO is still reachable; a deadline-free member disables shedding
        // outright, because the batch must complete for it.
        arm_token(latest_deadline, staging.size());
        const Clock::time_point exec_t0 = clock_->now();
        std::exception_ptr batch_error;
        bool batch_shed = false;
        try {
          exec->run_batch_view(std::span<const Tensor>(staging.data(), staging.size()),
                               nullptr, &cancel);
        } catch (const ExecutionCancelled&) {
          batch_shed = true;
        } catch (...) {
          batch_error = std::current_exception();
        }
        if (batch_shed) {
          // Deliberate shed: no member could meet its SLO, so the run was
          // abandoned at a layer boundary. No per-image fallback — re-running
          // doomed work is exactly the waste this path removes. The arena is
          // rewritten wholesale by the next run, so nothing partial escapes.
          for (std::size_t req : staged_req) mark_shed(outcomes[req]);
        } else if (batch_error == nullptr) {
          const double per_image_us = micros_between(exec_t0, clock_->now()) /
                                      static_cast<double>(staging.size());
          for (std::size_t k = 0; k < staging.size(); ++k) {
            Outcome& o = outcomes[staged_req[k]];
            o.logits = exec->logits_view(static_cast<int>(k)).to_qtensor();
            o.exec_us = per_image_us;
            o.ran = true;
          }
        } else if (staging.size() == 1) {
          outcomes[staged_req[0]].error = batch_error;  // nothing to isolate
        } else {
          // The batched call failed as a whole; per-image fallback isolates
          // the failing request to its own future. Solo runs are governed by
          // each request's own deadline.
          for (std::size_t k = 0; k < staging.size(); ++k) {
            Outcome& o = outcomes[staged_req[k]];
            arm_token(task.requests[staged_req[k]].deadline, 1);
            const Clock::time_point r0 = clock_->now();
            try {
              o.logits = exec->run(staging[k], nullptr, &cancel);
              o.exec_us = micros_between(r0, clock_->now());
              o.ran = true;
            } catch (const ExecutionCancelled&) {
              mark_shed(o);
            } catch (...) {
              o.error = std::current_exception();
            }
          }
        }
        cancel.disarm();
      }
    }

    // Fulfill promises before reporting quiescence so drain() returning
    // implies every drained future is ready.
    const Clock::time_point end = clock_->now();
    for (std::size_t i = 0; i < task.requests.size(); ++i) {
      Outcome& o = outcomes[i];
      o.e2e_us = micros_between(task.requests[i].arrival, end);
      if (o.shed) {
        ++done.shed;  // shed mid-run records no latency sample (like a queue purge)
      } else {
        done.latency_sum_us += o.e2e_us;
      }
      if (o.ran) {
        done.exec_us += o.exec_us;
        ++done.exec_images;
      }
      if (o.error != nullptr) {
        task.requests[i].promise.set_exception(o.error);
        if (!o.shed) ++done.failed;
      } else {
        task.requests[i].promise.set_value(std::move(o.logits));
        ++done.completed;
      }
    }

    // Latency first (stats_mu_), counters second (mu_) — taken sequentially,
    // never nested, and in this order so that once drain() observes the
    // workers quiescent, every completed request's sample is recorded.
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      for (const Outcome& o : outcomes) {
        if (o.shed) continue;
        m.latency.record(o.e2e_us);
        global_latency_.record(o.e2e_us);
        if (o.ran) {
          m.exec_latency.record(o.exec_us);
          global_exec_latency_.record(o.exec_us);
        }
      }
    }

    lock.lock();
    sched_.finish(wid, done, clock_->now());
    sched_cv_.notify_one();  // a worker freed up: more batches may dispatch
    idle_cv_.notify_all();
  }
}

void InferenceServer::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  ++drain_waiters_;
  sched_.set_flush(true);  // dispatch everything queued, deadlines ignored
  sched_cv_.notify_all();
  idle_cv_.wait(lock, [&] { return sched_.idle(); });
  // Restore deadline batching once the last drainer leaves (shutdown keeps
  // the flush on for good).
  if (--drain_waiters_ == 0 && accepting_) sched_.set_flush(false);
}

void InferenceServer::shutdown() {
  // Serializes concurrent shutdown()/destructor calls; never taken by the
  // server threads, so it cannot deadlock with mu_.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (joined_) return;
    accepting_ = false;  // new submits reject; kBlock waiters wake and reject
    sched_.set_flush(true);
    ++drain_waiters_;
    space_cv_.notify_all();
    sched_cv_.notify_all();
    idle_cv_.wait(lock, [&] { return sched_.idle(); });
    --drain_waiters_;
    stop_threads_ = true;
    joined_ = true;
    sched_cv_.notify_all();
    for (std::condition_variable& cv : worker_cv_) cv.notify_all();
  }
  scheduler_.join();
  for (std::thread& w : workers_) w.join();
}

std::pair<LatencySummary, LatencySummary> InferenceServer::summarize(
    const LatencyRecorder& latency, const LatencyRecorder& exec_latency) const {
  std::vector<double> samples;
  std::vector<double> exec_samples;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    samples = latency.samples();
    exec_samples = exec_latency.samples();
  }
  return {LatencyRecorder::summarize(std::move(samples)),
          LatencyRecorder::summarize(std::move(exec_samples))};
}

ServerStats InferenceServer::stats() const {
  // Counters under mu_, then each pair of sample windows copied under
  // stats_mu_ (so a copy blocks only latency recording, never
  // submit/dispatch) and sorted unlocked. Counter and latency snapshots may
  // straddle a completion; monitoring does not need them transactionally
  // consistent.
  ServerStats s;
  std::vector<const Model*> order;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = sched_.stats();
    for (const auto& m : models_) order.push_back(m.get());  // stable: never unregistered
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    s.models[i].model = order[i]->id;
    std::tie(s.models[i].latency, s.models[i].exec_latency) =
        summarize(order[i]->latency, order[i]->exec_latency);
  }
  std::tie(s.latency, s.exec_latency) = summarize(global_latency_, global_exec_latency_);
  return s;
}

ModelStats InferenceServer::model_stats(const std::string& model_id) const {
  ModelStats s;
  const Model* found = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int model = find_locked(model_id, "InferenceServer::model_stats");
    s = sched_.model_stats(model);
    found = models_[model].get();
  }
  s.model = model_id;
  std::tie(s.latency, s.exec_latency) = summarize(found->latency, found->exec_latency);
  return s;
}

void InferenceServer::reset_stats() {
  // The models_ vector may only be walked under mu_ (register_model can
  // reallocate it); collect the stable pointers there, then clear the
  // recorders under stats_mu_.
  std::vector<Model*> order;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sched_.reset_stats();
    for (const auto& m : models_) order.push_back(m.get());
  }
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  for (Model* m : order) {
    m->latency.clear();
    m->exec_latency.clear();
  }
  global_latency_.clear();
  global_exec_latency_.clear();
}

int InferenceServer::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sched_.live_workers();
}

bool InferenceServer::accepting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accepting_;
}

std::vector<std::string> InferenceServer::model_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(models_.size());
  for (const auto& m : models_) ids.push_back(m->id);
  return ids;
}

}  // namespace bswp::runtime
