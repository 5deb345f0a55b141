#include "runtime/server/scheduler.h"

#include <string>
#include <utility>

namespace bswp::runtime {

namespace {

void validate(const ModelConfig& config, const char* who) {
  check(config.batching.max_batch >= 1, std::string(who) + ": max_batch must be >= 1");
  check(config.batching.max_delay.count() >= 0, std::string(who) + ": max_delay must be >= 0");
  check(config.queue.capacity >= 1, std::string(who) + ": queue capacity must be >= 1");
  check(config.weight >= 1, std::string(who) + ": priority weight must be >= 1");
}

void validate(const AutoscalerOptions& a) {
  if (!a.enabled) return;
  check(a.min_workers >= 1, "InferenceServer: autoscaler min_workers must be >= 1");
  check(a.max_workers >= a.min_workers,
        "InferenceServer: autoscaler max_workers must be >= min_workers");
  check(a.interval.count() > 0, "InferenceServer: autoscaler interval must be > 0");
  check(a.up_queue_per_worker > 0.0, "InferenceServer: autoscaler up_queue_per_worker must be > 0");
  check(a.up_latency_us >= 0.0, "InferenceServer: autoscaler up_latency_us must be >= 0");
  check(a.up_consecutive >= 1 && a.down_consecutive >= 1,
        "InferenceServer: autoscaler hysteresis streaks must be >= 1");
  check(a.cooldown.count() >= 0, "InferenceServer: autoscaler cooldown must be >= 0");
  check(a.evict_after.count() >= 0, "InferenceServer: autoscaler evict_after must be >= 0");
}

}  // namespace

Scheduler::Scheduler(const ServerOptions& options, time_point now)
    : autoscaler_(options.autoscaler),
      last_scale_(now),
      next_eval_(now + options.autoscaler.interval) {
  check(options.workers >= 1, "InferenceServer: workers must be >= 1");
  validate(ModelConfig{options.batching, options.queue}, "InferenceServer");
  validate(autoscaler_);
  const AutoscalerOptions& a = autoscaler_;
  live_ = a.enabled ? std::clamp(options.workers, a.min_workers, a.max_workers) : options.workers;
  totals_.peak_workers = live_;
  workers_.resize(static_cast<std::size_t>(a.enabled ? a.max_workers : options.workers));
  for (Worker& w : workers_) w.last_active = now;
}

int Scheduler::add_model(const ModelConfig& config, std::vector<double> remaining_us) {
  validate(config, "InferenceServer::register_model");
  Model& m = models_.emplace_back();
  m.config = config;
  m.remaining_us = std::move(remaining_us);
  return static_cast<int>(models_.size()) - 1;
}

std::optional<QueuePolicy> Scheduler::full(int model) const {
  const Model& m = models_[model];
  if (m.queued() < m.config.queue.capacity) return std::nullopt;
  return m.config.queue.policy;
}

std::optional<Scheduler::Request> Scheduler::admit(int model, Request r,
                                                   const SubmitOptions& options, time_point now) {
  // RequestClass does not bypass admission — a kHigh request blocks/rejects
  // like any other (the caller applies full() first); it only orders the
  // queue.
  Model& m = models_[model];
  std::optional<Request> victim;
  if (m.queued() >= m.config.queue.capacity) {
    victim = m.pop_shed_victim();
    ++m.counters.admission.shed;
  }
  r.enqueue = now;
  r.affinity_key = options.affinity_key;
  if (options.deadline.count() > 0) r.deadline = now + options.deadline;
  (options.cls == RequestClass::kHigh ? m.high : m.norm).push_back(std::move(r));
  ++m.counters.admission.accepted;
  return victim;
}

Clock::duration Scheduler::estimate(int model) const {
  const Model& m = models_[model];
  if (m.remaining_us.empty()) return Clock::duration::zero();
  const double us = m.remaining_us.front() * m.cost_scale;
  if (!(us > 0.0)) return Clock::duration::zero();
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(us));
}

void Scheduler::step(time_point now, Step& out) {
  out.dispatched.clear();
  out.expired.clear();
  out.evict.clear();
  if (autoscaler_.enabled && now >= next_eval_) {
    autoscale(now, out);
    next_eval_ = now + autoscaler_.interval;
  }
  for (;;) {
    time_point next_deadline = time_point::max();
    const int model = select_model(now, &next_deadline, out);
    if (model < 0) {
      // Nothing dispatchable: the caller sleeps until the oldest request's
      // batching deadline fires a partial batch, a request's effective
      // deadline purges it, or the next autoscaler evaluation, whichever is
      // sooner. Arrivals and freed workers call for a step earlier.
      out.wake = autoscaler_.enabled ? std::min(next_deadline, next_eval_) : next_deadline;
      return;
    }
    bool hit = false;
    bool session_hit = false;
    const int worker = select_worker(model, &hit, &session_hit);
    // select_model only returns a model while a live worker is free, so a
    // slot is guaranteed.
    check(worker >= 0, "InferenceServer: scheduler invariant violated (no free worker)");
    dispatch(model, worker, hit, session_hit);
    out.dispatched.push_back(worker);
  }
}

void Scheduler::expire_deadlines(int model, time_point now, time_point* next_deadline,
                                 Step& out) {
  // Refuse-to-dispatch: with an execution estimate available, a request is
  // unmeetable once its remaining slack drops below the estimated execution
  // time — not merely once the deadline itself passes. Purging on the
  // effective deadline (deadline - estimate) is what keeps doomed work from
  // ever occupying a worker; without an estimate this degrades to plain
  // queue-residency expiry.
  Model& m = models_[model];
  const Clock::duration est = estimate(model);
  for (std::deque<Request>* q : {&m.high, &m.norm}) {
    for (auto it = q->begin(); it != q->end();) {
      if (it->deadline == time_point::max()) {
        ++it;
        continue;
      }
      const time_point effective = it->deadline - est;
      if (effective <= now) {
        ++m.counters.admission.shed;
        ++m.counters.deadline_expired;
        out.expired.push_back(std::move(*it));
        it = q->erase(it);
      } else {
        *next_deadline = std::min(*next_deadline, effective);
        ++it;
      }
    }
  }
}

int Scheduler::select_model(time_point now, time_point* next_deadline, Step& out) {
  *next_deadline = time_point::max();
  const int n = static_cast<int>(models_.size());

  // Purge expired per-request deadlines over every queued model before
  // anything else — in particular before the no-free-worker early return
  // below. An expired request must fail its future promptly even under full
  // worker saturation (the session layer's deadline-free retry waits on that
  // failure), and the earliest surviving request deadline joins the batching
  // deadlines in the wake computation so the purge re-runs on time while
  // all workers stay busy.
  for (int i = 0; i < n; ++i) expire_deadlines(i, now, next_deadline, out);

  // A batch is formed only while a live worker is free: at most one pending
  // task per idle worker. When all live workers are busy, requests age in
  // the bounded per-model queues — that is what makes admission control see
  // overload instead of an elastic internal queue, and what the autoscaler
  // reads as queue pressure.
  const bool any_free = std::any_of(workers_.begin(), workers_.begin() + live_,
                                    [](const Worker& w) { return w.free(); });
  if (!any_free || n == 0) return -1;

  // Weighted deficit round-robin. Scan from the cursor: the cursor advances
  // past each dispatched model, so same-credit models take turns. A ready
  // model is dispatchable only while it has batch credits; when every ready
  // model has spent its grant, a new cycle refills credits to each model's
  // weight — that refill boundary is what makes sustained shares
  // proportional to the weights while a weight-1 model still dispatches
  // every cycle.
  int exhausted = -1;  // first ready model with no credits left
  std::size_t exhausted_k = 0;
  for (std::size_t k = 0; k < models_.size(); ++k) {
    const std::size_t i = (cursor_ + k) % models_.size();
    Model& m = models_[i];
    // Expired requests were already purged above, so everything still
    // queued here is dispatchable.
    if (m.queued() == 0) continue;
    const time_point deadline = m.oldest_enqueue() + m.config.batching.max_delay;
    const bool is_ready = flush_ ||
                          static_cast<int>(m.queued()) >= m.config.batching.max_batch ||
                          now >= deadline;
    if (!is_ready) {
      *next_deadline = std::min(*next_deadline, deadline);
      continue;
    }
    if (m.credits > 0) {
      cursor_ = (cursor_ + k + 1) % models_.size();
      return static_cast<int>(i);
    }
    if (exhausted < 0) {
      exhausted = static_cast<int>(i);
      exhausted_k = k;
    }
  }
  if (exhausted < 0) return -1;
  for (Model& m : models_) m.credits = m.config.weight;
  cursor_ = (cursor_ + exhausted_k + 1) % models_.size();
  return exhausted;
}

int Scheduler::select_worker(int model, bool* hit, bool* session_hit) const {
  const Model& m = models_[model];
  const auto warm = [model](const Worker& w) {
    return std::find(w.warm.begin(), w.warm.end(), model) != w.warm.end();
  };
  *hit = false;
  *session_hit = false;
  // Sticky placement first: the worker that last served the next request's
  // affinity key holds that session's decode state pattern in its warm
  // executor and cache. Only taken when that worker is free and live — a
  // busy sticky worker falls through to the warm scan (an affinity miss,
  // never a stall).
  const std::uint64_t key = m.next_key();
  if (key != 0) {
    const auto it = m.sticky.find(key);
    if (it != m.sticky.end() && it->second < live_ && workers_[it->second].free()) {
      *session_hit = true;
      *hit = warm(workers_[it->second]);
      return it->second;
    }
  }
  int cold = -1;
  for (int i = 0; i < live_; ++i) {
    const Worker& w = workers_[i];
    if (!w.free()) continue;
    if (warm(w)) {
      *hit = true;
      return i;  // free worker with this model's executor already built
    }
    if (cold < 0) cold = i;
  }
  return cold;
}

void Scheduler::dispatch(int model, int worker, bool affinity_hit, bool session_hit) {
  Model& m = models_[model];
  Task& task = workers_[worker].task;
  task.model = model;
  const std::uint64_t lead_key = m.next_key();
  const std::size_t take = std::min<std::size_t>(m.queued(), m.config.batching.max_batch);
  task.requests.reserve(take);
  for (std::size_t i = 0; i < take; ++i) task.requests.push_back(m.pop_next());
  // Record every keyed request's worker so the next step of its session
  // steers here. The bound self-heals a client that leaks keys: past it,
  // placement degrades to cold rather than the map growing without limit.
  if (m.sticky.size() > 65536) m.sticky.clear();
  for (const Request& r : task.requests) {
    if (r.affinity_key != 0) m.sticky[r.affinity_key] = worker;
  }
  ModelStats& c = m.counters;
  if (lead_key != 0) {
    if (session_hit) {
      ++c.session_affinity_hits;
    } else {
      ++c.session_affinity_misses;
    }
  }
  if (m.credits > 0) --m.credits;
  if (m.queued() == 0) m.credits = 0;  // no banking across idle periods

  ++c.batches;
  c.dispatched += take;
  if (c.batch_size_hist.size() <= take) c.batch_size_hist.resize(take + 1, 0);
  ++c.batch_size_hist[take];
  if (affinity_hit) {
    ++c.affinity_hits;
  } else {
    ++c.affinity_misses;
  }
}

void Scheduler::autoscale(time_point now, Step& out) {
  ++totals_.autoscale_evals;
  const AutoscalerOptions& a = autoscaler_;
  std::size_t queued = 0;
  for (const Model& m : models_) queued += m.queued();
  int occupied = 0;
  for (const Worker& w : workers_) occupied += w.free() ? 0 : 1;

  bool pressure = static_cast<double>(queued) > a.up_queue_per_worker * static_cast<double>(live_);
  // The latency EWMA only moves when batches complete, so it goes stale the
  // moment traffic stops; gate it on work actually waiting, or a drained
  // server would read the last burst's EWMA as pressure forever and never
  // take the shrink branch below.
  if (!pressure && queued > 0 && a.up_latency_us > 0.0 && lat_ewma_valid_ &&
      lat_ewma_us_ > a.up_latency_us) {
    pressure = true;
  }
  const bool idle = queued == 0 && occupied < live_;

  // Hysteresis: a signal must hold for a consecutive streak of evaluations,
  // opposing signals reset each other's streak, and `cooldown` separates any
  // two scale events — so a step change in load converges to a stable count
  // instead of oscillating. Streaks clamp at their thresholds: a pool pinned
  // at min/max keeps satisfying its streak without counting toward overflow.
  if (pressure) {
    down_streak_ = 0;
    up_streak_ = std::min(up_streak_ + 1, a.up_consecutive);
    if (up_streak_ >= a.up_consecutive && live_ < a.max_workers &&
        now - last_scale_ >= a.cooldown) {
      ++live_;
      totals_.peak_workers = std::max(totals_.peak_workers, live_);
      ++totals_.scale_up_events;
      last_scale_ = now;
      up_streak_ = 0;
    }
  } else if (idle) {
    up_streak_ = 0;
    down_streak_ = std::min(down_streak_ + 1, a.down_consecutive);
    if (down_streak_ >= a.down_consecutive && live_ > a.min_workers &&
        now - last_scale_ >= a.cooldown) {
      --live_;
      ++totals_.scale_down_events;
      last_scale_ = now;
      down_streak_ = 0;
    }
  } else {
    up_streak_ = 0;
    down_streak_ = 0;
  }

  // Executor-cache eviction rides the autoscaler cadence. Only parked
  // workers (index >= live_) are candidates: a live worker's cache is the
  // affinity machinery's working set, and a busy or tasked worker is about
  // to refresh last_active anyway. The caller wakes each flagged worker,
  // which drops its own cache (the arenas are its thread-local state).
  const auto parked_candidate = [](const Worker& w) {
    return w.warm_bytes > 0 && w.free() && !w.evict_requested;
  };
  const auto request_eviction = [&](std::size_t i) {
    workers_[i].evict_requested = true;
    out.evict.push_back(static_cast<int>(i));
  };
  if (a.evict_after.count() > 0) {
    for (std::size_t i = static_cast<std::size_t>(live_); i < workers_.size(); ++i) {
      if (parked_candidate(workers_[i]) && now - workers_[i].last_active >= a.evict_after) {
        request_eviction(i);
      }
    }
  }
  if (a.max_warm_bytes > 0) {
    std::size_t total = 0;
    for (const Worker& w : workers_) {
      if (!w.evict_requested) total += w.warm_bytes;
    }
    // Over budget: evict parked workers oldest-idle-first until under (or
    // until only live workers hold the remainder — live caches are never
    // reclaimed, so a budget smaller than the live working set is advisory).
    while (total > a.max_warm_bytes) {
      std::size_t victim = workers_.size();
      for (std::size_t i = static_cast<std::size_t>(live_); i < workers_.size(); ++i) {
        if (!parked_candidate(workers_[i])) continue;
        if (victim == workers_.size() || workers_[i].last_active < workers_[victim].last_active) {
          victim = i;
        }
      }
      if (victim == workers_.size()) break;
      request_eviction(victim);
      total -= workers_[victim].warm_bytes;
    }
  }
}

Scheduler::Task Scheduler::start(int worker) {
  Worker& w = workers_[worker];
  Task task = std::move(w.task);  // leaves w.task.requests empty: no task pending
  w.running = task.model;
  const Model& m = models_[task.model];
  task.remaining_us = m.remaining_us;
  task.calibration = m.cost_scale;
  return task;
}

void Scheduler::finish(int worker, const Done& done, time_point now) {
  Worker& w = workers_[worker];
  Model& m = models_[w.running];
  if (done.built) {
    w.warm.push_back(w.running);
    w.warm_bytes += done.arena_bytes;
  }
  w.last_active = now;
  w.running = -1;
  m.counters.admission.completed += done.completed;
  m.counters.admission.failed += done.failed;
  m.counters.admission.shed += done.shed;
  m.counters.deadline_expired += done.shed;  // in-flight sheds count with queue purges
  if (done.exec_images > 0 && done.exec_us > 0.0 && !m.remaining_us.empty() &&
      m.remaining_us.front() > 0.0) {
    // Calibrate the cost model against reality: EWMA of measured-over-
    // predicted per-image executor time, folded into every future estimate
    // and armed token. Zero measurements (manual clock) leave it alone.
    const double ratio =
        (done.exec_us / static_cast<double>(done.exec_images)) / m.remaining_us.front();
    m.cost_scale = m.cost_scale_valid ? 0.2 * ratio + 0.8 * m.cost_scale : ratio;
    m.cost_scale_valid = true;
  }
  const std::size_t samples = done.completed + done.failed;
  if (samples > 0) {
    // Batch-mean EWMA of end-to-end latency: the autoscaler's cheap
    // latency signal (the percentile windows live with the caller, behind
    // their own lock). Shed requests contribute nothing.
    const double mean_us = done.latency_sum_us / static_cast<double>(samples);
    lat_ewma_us_ = lat_ewma_valid_ ? 0.2 * mean_us + 0.8 * lat_ewma_us_ : mean_us;
    lat_ewma_valid_ = true;
  }
}

bool Scheduler::claim_eviction(int worker) {
  Worker& w = workers_[worker];
  return std::exchange(w.evict_requested, false) && w.task.requests.empty();
}

void Scheduler::evicted(int worker, std::size_t executors) {
  Worker& w = workers_[worker];
  totals_.evicted_executors += executors;
  w.warm.clear();
  w.warm_bytes = 0;
}

bool Scheduler::idle() const {
  const auto empty = [](const Model& m) { return m.queued() == 0; };
  return std::all_of(models_.begin(), models_.end(), empty) &&
         std::all_of(workers_.begin(), workers_.end(), [](const Worker& w) { return w.free(); });
}

ModelStats Scheduler::model_stats(int model) const {
  const Model& m = models_[model];
  ModelStats s = m.counters;
  s.queue_depth = m.queued();
  s.weight = m.config.weight;
  s.mean_batch_size =
      s.batches > 0 ? static_cast<double>(s.dispatched) / static_cast<double>(s.batches) : 0.0;
  std::uint64_t total_dispatched = 0;
  for (const Model& other : models_) total_dispatched += other.counters.dispatched;
  s.dispatch_share = total_dispatched > 0 ? static_cast<double>(s.dispatched) /
                                                static_cast<double>(total_dispatched)
                                          : 0.0;
  return s;
}

ServerStats Scheduler::stats() const {
  ServerStats s = totals_;
  for (int i = 0; i < static_cast<int>(models_.size()); ++i) {
    ModelStats ms = model_stats(i);
    s.admission.accepted += ms.admission.accepted;
    s.admission.rejected += ms.admission.rejected;
    s.admission.shed += ms.admission.shed;
    s.admission.completed += ms.admission.completed;
    s.admission.failed += ms.admission.failed;
    s.queue_depth += ms.queue_depth;
    s.batches += ms.batches;
    s.dispatched += ms.dispatched;
    s.affinity_hits += ms.affinity_hits;
    s.affinity_misses += ms.affinity_misses;
    s.session_affinity_hits += ms.session_affinity_hits;
    s.session_affinity_misses += ms.session_affinity_misses;
    s.deadline_expired += ms.deadline_expired;
    if (s.batch_size_hist.size() < ms.batch_size_hist.size()) {
      s.batch_size_hist.resize(ms.batch_size_hist.size(), 0);
    }
    for (std::size_t k = 0; k < ms.batch_size_hist.size(); ++k) {
      s.batch_size_hist[k] += ms.batch_size_hist[k];
    }
    s.models.push_back(std::move(ms));
  }
  s.mean_batch_size =
      s.batches > 0 ? static_cast<double>(s.dispatched) / static_cast<double>(s.batches) : 0.0;
  s.current_workers = live_;
  for (const Worker& w : workers_) s.warm_bytes += w.warm_bytes;
  return s;
}

void Scheduler::reset_stats() {
  for (Model& m : models_) m.counters = ModelStats{};
  totals_ = ServerStats{};
  totals_.peak_workers = live_;
}

}  // namespace bswp::runtime
