// Step-level property tests of runtime::Scheduler, the InferenceServer's
// decisions as a single-threaded state machine. The tests drive it
// directly: no threads, no sleeps, no clock — time is a value the test
// passes to every call.
//
// A seeded generator builds a random server (1–4 models with weights 1–8,
// 1–4 workers, the autoscaler on or off) and a random trajectory of
// admissions (model, class, affinity key, deadline), time advances, steps,
// task starts, finishes with random measured times, eviction wake-ups,
// forget_affinity calls, stats resets and drain flushes, ending in a full
// drain. The World below keeps its own account of every request and worker,
// independent of the Scheduler's state. Each TEST checks one property after
// every operation over kTrajectories seeds; SCOPED_TRACE names the seed of
// a failing trajectory, and `World world(seed)` replays it.
//
// The saturation properties (a ready model dispatches every credit cycle;
// shares equal weight / Σ weights over whole cycles) run a second loop
// that keeps chosen models' queues deep enough to stay ready through every
// step.
#include "runtime/server/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace bswp::runtime {
namespace {

using namespace std::chrono_literals;
using std::chrono::microseconds;
using time_point = Scheduler::time_point;

constexpr int kTrajectories = 1000;
constexpr int kOps = 160;
constexpr time_point kNone = time_point::max();

enum class Op { kAdmit, kAdvance, kStep, kStart, kFinish, kWake, kForget, kReset, kFlush };

/// What the test knows about one admitted request.
struct Info {
  int model = 0;
  time_point deadline = kNone;
};

/// A random server and trajectory, plus the test's own ledger of every
/// request and worker. Requests carry their id as the image's only value.
struct World {
  explicit World(std::uint64_t seed, bool saturating = false)
      : rng(seed), options(random_options()), now(time_point{} + 1h), sched(options, now) {
    const int n = pick(1, 4);
    for (int m = 0; m < n; ++m) {
      ModelConfig c;
      c.weight = pick(1, 8);
      c.batching.max_batch = pick(1, 8);
      c.batching.max_delay = microseconds(pick(0, 1) == 1 ? pick(0, 3000) : 0);
      c.queue.capacity = saturating ? 1024 : static_cast<std::size_t>(pick(1, 32));
      c.queue.policy = saturating ? QueuePolicy::kReject : static_cast<QueuePolicy>(pick(0, 2));
      std::vector<double> schedule;
      if (pick(0, 2) > 0) {  // a third of the models have no cost schedule
        schedule.resize(static_cast<std::size_t>(pick(1, 5)));
        double acc = 0.0;
        for (std::size_t p = schedule.size(); p-- > 0;) schedule[p] = acc += pick(10, 400);
      }
      configs.push_back(c);
      EXPECT_EQ(sched.add_model(c, std::move(schedule)), m);
    }
    const auto workers = static_cast<std::size_t>(sched.worker_slots());
    pending.resize(workers);
    running.resize(workers);
    warm.resize(workers);
  }

  int pick(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); }

  ServerOptions random_options() {
    ServerOptions so;
    so.workers = pick(1, 4);
    AutoscalerOptions& a = so.autoscaler;
    a.enabled = pick(0, 1) == 1;
    if (a.enabled) {
      a.min_workers = pick(1, 2);
      a.max_workers = pick(a.min_workers, 4);
      a.interval = microseconds(pick(200, 2000));
      a.up_queue_per_worker = 0.5 * pick(1, 8);
      a.up_latency_us = pick(0, 1) == 1 ? pick(100, 3000) : 0.0;
      a.up_consecutive = pick(1, 3);
      a.down_consecutive = pick(1, 3);
      a.cooldown = microseconds(pick(0, 3000));
      a.evict_after = microseconds(pick(0, 1) == 1 ? pick(500, 5000) : 0);
      a.max_warm_bytes = pick(0, 1) == 1 ? static_cast<std::size_t>(pick(1000, 5000)) : 0;
    }
    return so;
  }

  int models() const { return static_cast<int>(configs.size()); }
  int workers() const { return static_cast<int>(pending.size()); }
  bool free(int w) const { return pending[w].empty() && !running[w]; }
  std::size_t in_flight() const {
    std::size_t n = 0;
    for (int w = 0; w < workers(); ++w) {
      n += pending[w].size() + (running[w] ? running[w]->requests.size() : 0);
    }
    return n;
  }

  static std::uint64_t id_of(const Scheduler::Request& r) {
    return static_cast<std::uint64_t>(r.image[0]);
  }

  /// Every admitted request leaves exactly once.
  void leave(std::uint64_t id) {
    EXPECT_EQ(live.erase(id), 1u) << "request " << id << " left twice or was never admitted";
  }
  /// `id` leaves the queue by a purge or a shed: it must still be queued.
  void leave_queue(std::uint64_t id) {
    EXPECT_EQ(queue.erase(id), 1u) << "request " << id << " was not queued";
    leave(id);
  }

  void admit(int m, const SubmitOptions& o) {
    const std::optional<QueuePolicy> full = sched.full(m);
    if (full == QueuePolicy::kBlock) return;  // the submitter would wait
    if (full == QueuePolicy::kReject) {
      sched.reject(m);
      return;
    }
    const std::uint64_t id = next_id++;
    Scheduler::Request r;
    r.image = Tensor(std::vector<int>{1}, static_cast<float>(id));
    r.arrival = now;
    std::optional<Scheduler::Request> victim = sched.admit(m, std::move(r), o, now);
    live[id] = Info{m, o.deadline.count() > 0 ? now + o.deadline : kNone};
    queue.insert(id);
    if (victim) leave_queue(id_of(*victim));
  }

  void admit_random() {
    SubmitOptions o;
    o.cls = pick(0, 3) == 0 ? RequestClass::kHigh : RequestClass::kNormal;
    o.affinity_key = pick(0, 1) == 1 ? static_cast<std::uint64_t>(pick(1, 6)) : 0;
    o.deadline = microseconds(pick(0, 1) == 1 ? pick(1, 6000) : 0);
    admit(pick(0, models() - 1), o);
  }

  void step() {
    live_before = sched.live_workers();
    evals_before = sched.stats().autoscale_evals;
    free_before.assign(pending.size(), false);
    for (int w = 0; w < workers(); ++w) free_before[w] = free(w);
    sched.step(now, out);
    for (Scheduler::Request& r : out.expired) leave_queue(id_of(r));
    for (int w : out.dispatched) {
      const Scheduler::Task* task = sched.pending(w);
      if (task == nullptr || !pending[w].empty()) {
        ADD_FAILURE() << "worker " << w << " dispatched twice or without a task";
        continue;
      }
      dispatch_models.push_back(task->model);
      for (const Scheduler::Request& r : task->requests) {
        pending[w].push_back(id_of(r));
        EXPECT_EQ(queue.erase(id_of(r)), 1u) << "dispatched request was not queued";
      }
    }
    trace.push_back(out.wake.time_since_epoch().count());
    for (int w : out.dispatched) trace.push_back(w);
    for (int w : out.evict) trace.push_back(-1 - w);
    if (sched.live_workers() != live_before) scale_times.push_back(now);
  }

  /// A worker wake-up, as in the server: claim an eviction first, then
  /// collect the task if one is pending.
  void wake(int w, bool collect) {
    if (sched.claim_eviction(w)) {
      EXPECT_TRUE(pending[w].empty()) << "worker " << w << " evicted while holding a task";
      sched.evicted(w, warm[w].size());
      warm[w].clear();
    }
    if (!collect || pending[w].empty()) return;
    Scheduler::Task task = sched.start(w);
    std::vector<std::uint64_t> ids;
    for (const Scheduler::Request& r : task.requests) ids.push_back(id_of(r));
    EXPECT_EQ(ids, pending[w]) << "start() returned a different task than was dispatched";
    pending[w].clear();
    trace.push_back(static_cast<std::int64_t>(task.requests.size()));
    running[w] = std::move(task);
  }

  void finish(int w) {
    Scheduler::Task& task = *running[w];
    Scheduler::Done done;
    for (std::size_t i = 0; i < task.requests.size(); ++i) {
      const int outcome = pick(0, 5);  // 1 in 6 fails, 1 in 6 is shed mid-run
      ++(outcome == 0 ? done.failed : outcome == 1 ? done.shed : done.completed);
    }
    done.latency_sum_us = static_cast<double>((done.completed + done.failed) * pick(0, 5000));
    done.exec_images = done.completed;
    done.exec_us = static_cast<double>(done.exec_images * pick(0, 600));  // 0: manual-clock run
    if (warm[w].count(task.model) == 0 && pick(0, 3) > 0) {
      done.built = true;
      done.arena_bytes = static_cast<std::size_t>(pick(200, 2000));
      warm[w].insert(task.model);
    }
    sched.finish(w, done, now);
    for (const Scheduler::Request& r : task.requests) leave(id_of(r));
    running[w].reset();
  }

  int random_worker(const std::function<bool(int)>& eligible) {
    std::vector<int> ws;
    for (int w = 0; w < workers(); ++w) {
      if (eligible(w)) ws.push_back(w);
    }
    return ws.empty() ? -1 : ws[static_cast<std::size_t>(pick(0, static_cast<int>(ws.size()) - 1))];
  }

  /// One random operation of the generator.
  Op random_op() {
    const int r = pick(0, 99);
    if (r < 30) {
      admit_random();
      return Op::kAdmit;
    }
    if (r < 48) {
      now += microseconds(pick(0, 1500));
      return Op::kAdvance;
    }
    if (r < 70) {
      step();
      return Op::kStep;
    }
    if (r < 81) {
      const int w = random_worker([&](int x) { return !pending[x].empty(); });
      if (w >= 0) wake(w, /*collect=*/true);
      return Op::kStart;
    }
    if (r < 92) {
      const int w = random_worker([&](int x) { return running[x].has_value(); });
      if (w >= 0) finish(w);
      return Op::kFinish;
    }
    if (r < 95) {
      const int w = random_worker([&](int x) { return sched.evict_requested(x); });
      if (w >= 0) wake(w, /*collect=*/false);
      return Op::kWake;
    }
    if (r < 97) {
      sched.forget_affinity(pick(0, models() - 1), static_cast<std::uint64_t>(pick(1, 6)));
      return Op::kForget;
    }
    if (r < 99) {
      ledger_offset = queue.size() + in_flight();
      sched.reset_stats();
      return Op::kReset;
    }
    sched.set_flush(pick(0, 1) == 1);
    return Op::kFlush;
  }

  std::mt19937_64 rng;
  ServerOptions options;
  time_point now;
  Scheduler sched;
  std::vector<ModelConfig> configs;

  std::uint64_t next_id = 1;
  std::map<std::uint64_t, Info> live;  // admitted, not yet left
  std::set<std::uint64_t> queue;       // in the Scheduler's queues
  std::vector<std::vector<std::uint64_t>> pending;      // dispatched, not started
  std::vector<std::optional<Scheduler::Task>> running;  // started, not finished
  std::vector<std::set<int>> warm;     // executors each worker built
  std::uint64_t ledger_offset = 0;     // queued + in flight at the last reset

  Scheduler::Step out;  // the last step's decisions
  int live_before = 0;
  std::uint64_t evals_before = 0;
  std::vector<bool> free_before;
  std::vector<int> dispatch_models;      // model of every dispatch, in order
  std::vector<time_point> scale_times;   // when the live count moved
  std::vector<std::int64_t> trace;       // every decision, for replay checks
};

using Check = std::function<void(World&, Op)>;

/// Runs kTrajectories random trajectories, calling `check` after every
/// operation, then drains each: flush on, and step, start and finish until
/// nothing is queued or in flight. Stops at the first failing seed.
void run_trajectories(const Check& check) {
  for (int seed = 1; seed <= kTrajectories; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World world(static_cast<std::uint64_t>(seed));
    for (int i = 0; i < kOps && !::testing::Test::HasFailure(); ++i) {
      check(world, world.random_op());
    }
    world.sched.set_flush(true);
    for (int round = 0; round < 10000 && !world.live.empty(); ++round) {
      if (::testing::Test::HasFailure()) return;
      world.now += 100us;
      world.step();
      check(world, Op::kStep);
      for (int w = 0; w < world.workers(); ++w) world.wake(w, /*collect=*/true);
      for (int w = 0; w < world.workers(); ++w) {
        if (world.running[w]) world.finish(w);
      }
      check(world, Op::kFinish);
    }
    EXPECT_TRUE(world.live.empty()) << world.live.size() << " requests never left";
    EXPECT_TRUE(world.sched.idle());
    if (::testing::Test::HasFailure()) return;
  }
}

// --- properties of every trajectory ------------------------------------------

TEST(Scheduler, EveryAdmittedRequestLeavesExactlyOnceAndTheLedgerBalances) {
  run_trajectories([](World& w, Op) {
    const ServerStats s = w.sched.stats();
    EXPECT_EQ(s.queue_depth, w.queue.size());
    const AdmissionCounters& a = s.admission;
    EXPECT_EQ(a.accepted + w.ledger_offset,
              a.completed + a.failed + a.shed + w.queue.size() + w.in_flight())
        << "accepted = completed + failed + shed + queued + in flight";
    EXPECT_EQ(w.live.size(), w.queue.size() + w.in_flight());
  });
}

TEST(Scheduler, TasksGoOnlyToFreeLiveWorkersOneAtATimeWithinMaxBatch) {
  run_trajectories([](World& w, Op op) {
    if (op != Op::kStep) return;
    std::set<int> seen;
    for (int wid : w.out.dispatched) {
      EXPECT_TRUE(seen.insert(wid).second) << "worker " << wid << " got two tasks in one step";
      EXPECT_TRUE(w.free_before[wid]) << "worker " << wid << " was occupied";
      EXPECT_LT(wid, w.sched.live_workers()) << "worker " << wid << " is parked";
      const Scheduler::Task* task = w.sched.pending(wid);
      ASSERT_NE(task, nullptr);
      EXPECT_GE(task->requests.size(), 1u);
      EXPECT_LE(task->requests.size(),
                static_cast<std::size_t>(w.configs[task->model].batching.max_batch));
      for (const Scheduler::Request& r : task->requests) {
        EXPECT_EQ(w.live.at(World::id_of(r)).model, task->model);
      }
    }
  });
}

TEST(Scheduler, UnmeetableRequestsArePurgedByTheNextStepEvenWhenEveryWorkerIsBusy) {
  int busy_purges = 0;  // purges while no live worker was free
  run_trajectories([&](World& w, Op op) {
    if (op != Op::kStep) return;
    for (std::uint64_t id : w.queue) {
      const Info& info = w.live.at(id);
      if (info.deadline == kNone) continue;
      const time_point effective = info.deadline - w.sched.estimate(info.model);
      EXPECT_GT(effective, w.now) << "request " << id << " is still queued past its effective "
                                  << "deadline";
      EXPECT_LE(w.out.wake, effective) << "the step would sleep past request " << id << "'s purge";
    }
    bool any_free = false;
    for (int wid = 0; wid < w.live_before; ++wid) any_free = any_free || w.free_before[wid];
    if (!any_free && !w.out.expired.empty()) ++busy_purges;
  });
  EXPECT_GT(busy_purges, 0) << "the generator never purged under full saturation";
}

TEST(Scheduler, LiveCountStaysInBoundsAndMovesByAtMostOnePerEvaluation) {
  int moves = 0;
  run_trajectories([&](World& w, Op op) {
    if (op != Op::kStep) return;
    const AutoscalerOptions& a = w.options.autoscaler;
    const int live = w.sched.live_workers();
    if (a.enabled) {
      EXPECT_GE(live, a.min_workers);
      EXPECT_LE(live, a.max_workers);
    } else {
      EXPECT_EQ(live, w.options.workers);
    }
    const std::uint64_t evals = w.sched.stats().autoscale_evals - w.evals_before;
    EXPECT_LE(evals, 1u) << "more than one evaluation in one step";
    EXPECT_LE(static_cast<std::uint64_t>(std::abs(live - w.live_before)), evals);
    moves += live != w.live_before ? 1 : 0;
  });
  EXPECT_GT(moves, 0) << "the generator never moved the live count";
}

TEST(Scheduler, ScaleEventsAreAtLeastCooldownApart) {
  int pairs = 0;
  run_trajectories([&](World& w, Op op) {
    if (op != Op::kStep || w.scale_times.size() < 2) return;
    if (w.sched.live_workers() == w.live_before) return;
    const std::size_t n = w.scale_times.size();
    EXPECT_GE(w.scale_times[n - 1] - w.scale_times[n - 2], w.options.autoscaler.cooldown);
    ++pairs;
  });
  EXPECT_GT(pairs, 0);
}

TEST(Scheduler, NoLiveOrOccupiedWorkerIsAskedToEvict) {
  int evictions = 0;
  run_trajectories([&](World& w, Op op) {
    if (op != Op::kStep) return;
    for (int wid : w.out.evict) {
      EXPECT_GE(wid, w.sched.live_workers()) << "live worker " << wid << " asked to evict";
      EXPECT_TRUE(w.free(wid)) << "occupied worker " << wid << " asked to evict";
      ++evictions;
    }
  });
  EXPECT_GT(evictions, 0) << "the generator never evicted";
}

TEST(Scheduler, SameCallsAndTimesGiveTheSameDecisions) {
  for (int seed = 1; seed <= kTrajectories / 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World a(static_cast<std::uint64_t>(seed));
    World b(static_cast<std::uint64_t>(seed));
    for (int i = 0; i < kOps; ++i) {
      a.random_op();
      b.random_op();
    }
    ASSERT_EQ(a.trace, b.trace);
    ASSERT_EQ(a.dispatch_models, b.dispatch_models);
  }
}

// --- saturation properties ---------------------------------------------------

/// Keeps the models in `hot` ready through every step — each holds at least
/// (worker slots + 1) * max_batch requests before a step, more than one step
/// can dispatch — while the other models receive sparse random traffic.
/// Every `check` call sees the dispatch sequence after one more step.
using SaturatedCheck = std::function<void(World&, const std::vector<bool>& hot)>;

void run_saturated(bool all_hot, const SaturatedCheck& check) {
  for (int seed = 1; seed <= kTrajectories; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World world(static_cast<std::uint64_t>(seed), /*saturating=*/true);
    std::vector<bool> hot(static_cast<std::size_t>(world.models()), all_hot);
    hot[static_cast<std::size_t>(world.pick(0, world.models() - 1))] = true;
    for (int m = 0; m < world.models() && !all_hot; ++m) hot[m] = hot[m] || world.pick(0, 1) == 1;
    for (int round = 0; round < 60 && !::testing::Test::HasFailure(); ++round) {
      for (int m = 0; m < world.models(); ++m) {
        const std::size_t depth = static_cast<std::size_t>(world.sched.model_stats(m).queue_depth);
        const auto want = static_cast<std::size_t>((world.workers() + 1) *
                                                   world.configs[m].batching.max_batch);
        SubmitOptions o;
        o.affinity_key = static_cast<std::uint64_t>(world.pick(0, 3));
        if (hot[m]) {
          for (std::size_t q = depth; q < want; ++q) world.admit(m, o);
        } else if (world.pick(0, 2) == 0) {
          world.admit(m, o);
        }
      }
      world.step();
      check(world, hot);
      for (int w = 0; w < world.workers(); ++w) {
        if (world.pick(0, 2) > 0) world.wake(w, /*collect=*/true);
      }
      for (int w = 0; w < world.workers(); ++w) {
        if (world.running[w] && world.pick(0, 2) > 0) world.finish(w);
      }
      world.now += microseconds(world.pick(0, 2000));
    }
    if (::testing::Test::HasFailure()) return;
  }
}

int weight_sum(const World& w) {
  int sum = 0;
  for (const ModelConfig& c : w.configs) sum += c.weight;
  return sum;
}

TEST(Scheduler, EveryReadyModelDispatchesAtLeastOncePerCreditCycle) {
  // A credit cycle grants Σ weights batch credits and every dispatch spends
  // one, so a cycle is at most Σ weights dispatches long, and any
  // 2·Σ weights − 1 consecutive dispatches contain a whole cycle — in which
  // a model that stayed ready dispatched at least once.
  run_saturated(/*all_hot=*/false, [](World& w, const std::vector<bool>& hot) {
    const std::size_t window = static_cast<std::size_t>(2 * weight_sum(w) - 1);
    const std::vector<int>& seq = w.dispatch_models;
    if (seq.size() < window) return;
    for (int m = 0; m < w.models(); ++m) {
      if (!hot[static_cast<std::size_t>(m)]) continue;
      EXPECT_NE(std::find(seq.end() - static_cast<std::ptrdiff_t>(window), seq.end(), m),
                seq.end())
          << "ready model " << m << " missed a whole credit cycle";
    }
  });
}

TEST(Scheduler, DispatchSharesEqualWeightOverSumOfWeightsOverWholeCycles) {
  // Every model stays ready from the first dispatch, so every cycle is
  // exactly Σ weights dispatches and each model gets exactly its weight.
  run_saturated(/*all_hot=*/true, [](World& w, const std::vector<bool>&) {
    const int cycle = weight_sum(w);
    const int cycles = static_cast<int>(w.dispatch_models.size()) / cycle;
    const auto whole = w.dispatch_models.begin() + cycles * cycle;
    for (int m = 0; m < w.models(); ++m) {
      EXPECT_EQ(std::count(w.dispatch_models.begin(), whole, m), cycles * w.configs[m].weight)
          << "model " << m << " over " << cycles << " whole cycles";
    }
  });
}

// --- targeted step-level cases -----------------------------------------------

TEST(Scheduler, ResetStatsKeepsTheAutoscalerLatencySignal) {
  // Only the latency signal is armed. One completion at 5 ms end to end
  // puts the EWMA far above the threshold; a reset between the two pressure
  // evaluations must not clear it, so the second evaluation scales up.
  ServerOptions so;
  so.workers = 1;
  so.batching.max_batch = 1;
  so.batching.max_delay = 0us;
  so.autoscaler.enabled = true;
  so.autoscaler.min_workers = 1;
  so.autoscaler.max_workers = 2;
  so.autoscaler.interval = 1ms;
  so.autoscaler.up_queue_per_worker = 1e9;  // queue depth never trips
  so.autoscaler.up_latency_us = 100.0;
  so.autoscaler.up_consecutive = 2;
  so.autoscaler.cooldown = 0ms;
  const time_point t0 = time_point{} + 1h;
  Scheduler sched(so, t0);
  sched.add_model(ModelConfig{so.batching, so.queue}, {});
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(sched.admit(0, Scheduler::Request{}, SubmitOptions{}, t0).has_value());
  }
  Scheduler::Step step;
  sched.step(t0, step);
  ASSERT_EQ(step.dispatched, std::vector<int>{0});
  sched.start(0);
  Scheduler::Done done;
  done.completed = 1;
  done.latency_sum_us = 5000.0;
  sched.finish(0, done, t0);

  sched.step(t0 + 1ms, step);  // evaluation 1: pressure streak 1/2
  EXPECT_EQ(sched.live_workers(), 1);
  sched.reset_stats();
  EXPECT_EQ(sched.stats().admission.accepted, 0u);  // counters do reset
  sched.step(t0 + 2ms, step);  // evaluation 2: streak 2/2, scale up
  EXPECT_EQ(sched.live_workers(), 2) << "the reset delayed the scale-up";
  const ServerStats s = sched.stats();
  EXPECT_EQ(s.autoscale_evals, 1u);
  EXPECT_EQ(s.scale_up_events, 1u);
  EXPECT_EQ(s.peak_workers, 2);
}

}  // namespace
}  // namespace bswp::runtime
