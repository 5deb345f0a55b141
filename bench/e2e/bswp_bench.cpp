// bswp_bench — the end-to-end benchmark program (see README.md in this
// directory for the workloads, the metrics and how to read a trace).
//
//   bswp_bench --workload W [--seed N] [--seconds T] [--trace-dir DIR] [--quick]
//
// One process runs one workload: set up several times, compute reference
// outputs, run kWarmupS seconds of the workload's own traffic as a discarded
// warm-up, measure T seconds, then set up several times more (setup_s is the
// median over both set-up phases). It prints one
// `workload metric value unit` line per metric and, last, one JSON object
// with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
// or with --trace-dir the per-layer metrics, which that run takes by
// recording spans and by replaying the workload's model one layer at a time.
// --quick shortens every phase; its numbers only show that the plumbing works.
//
// Model weights, pools and calibration use fixed seeds; --seed only changes
// the generated inputs (images, arrival schedule, model mix, prompts), so two
// seeds measure the same program on different traffic. Every served output is
// compared byte for byte with Session::run (or a Session::run greedy decode);
// a mismatch or a failed operation (an error, a lost request or an
// incomplete generation) makes the run incorrect and the exit code non-zero. Only a deadline miss, which
// counts against slo_attainment, is not a failure.
//
// This file includes nothing from the older benches, so editing them cannot
// change this benchmark.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/bswp.h"
#include "core/rng.h"
#include "models/zoo.h"
#include "quant/calibrate.h"
#include "runtime/executor.h"
#include "runtime/kernel_backend.h"
#include "runtime/memory_planner.h"
#include "runtime/pipeline.h"
#include "sim/mcu.h"

namespace e2e {

using bswp::QTensor;
using bswp::Tensor;
using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

// ---------------------------------------------------------------------------
// Workload constants. Load is sized for a 4-core host; rates are absolute so
// a faster or slower commit meets the same offered traffic.
// ---------------------------------------------------------------------------

constexpr int kImageSize = 16;     // 3x16x16 CIFAR-like inputs
constexpr float kWidth = 0.5f;     // ResNet-s / TinyConv channel width
constexpr int kPoolSize = 64;      // shared weight-pool vectors
constexpr int kServedImages = 64;  // distinct images a serving workload draws from

constexpr double kMixedRate = 800.0;       // serve_mixed requests/s
constexpr double kMixedResnetShare = 0.7;  // rest is TinyConv
constexpr double kOverloadRate = 2400.0;   // serve_overload requests/s
constexpr std::chrono::microseconds kOverloadDeadline{8000};

constexpr int kDecodeThreads = 4;
constexpr int kDecodeTokens = 256;
constexpr int kPrompts = 16;

constexpr int kBatchImages = 512;
constexpr int kBatchThreads = 2;

constexpr double kWarmupS = 3.0;
constexpr double kDefaultSeconds = 20.0;
constexpr double kQuickWarmupS = 0.5;
constexpr double kQuickSeconds = 2.0;

/// Each of the two set-up phases (before the warm-up, after the measured
/// window) runs at least kSetupMinReps times and until kSetupMinS has passed
/// (at most kSetupMaxReps), so a set-up of a few milliseconds is timed as
/// often as one of a few hundred.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 100;
constexpr double kSetupMinS = 1.5;

/// The generator never sleeps longer than this between polls of its
/// outstanding futures, so a completion is stamped at most this late.
constexpr std::chrono::microseconds kPollSlice{100};
/// A run whose generator fell further behind its schedule than this at p99
/// measured the generator, not the server.
constexpr double kMaxLagP99Us = 1000.0;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double us_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
double s_between(TimePoint a, TimePoint b) { return std::chrono::duration<double>(b - a).count(); }
TimePoint after(TimePoint t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Nearest-rank percentile (the convention runtime::LatencyRecorder uses).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx > 0 ? idx - 1 : 0)];
}
double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Runs `fn` at least `min_reps` times and until `min_s` has passed (at most
/// `max_reps` times); returns each call's microseconds.
template <class Fn>
std::vector<double> time_reps(int min_reps, double min_s, int max_reps, Fn&& fn) {
  std::vector<double> us;
  const TimePoint start = Clock::now();
  for (int rep = 0; rep < max_reps && (rep < min_reps || s_between(start, Clock::now()) < min_s);
       ++rep) {
    const TimePoint t0 = Clock::now();
    fn(rep);
    us.push_back(us_between(t0, Clock::now()));
  }
  return us;
}

/// Independent input stream per purpose, all derived from --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
  z = (z ^ (z >> 31)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 29);
}

/// Peak resident set of this process image: VmHWM, not getrusage's
/// ru_maxrss, which keeps the peak of the process that fork()ed us from
/// before exec() and so measures whichever program launched the benchmark.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  if (kib < 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

bool same_logits(const QTensor& a, const QTensor& b) {
  return a.shape == b.shape && a.data == b.data && a.scale == b.scale &&
         a.zero_point == b.zero_point && a.bits == b.bits && a.is_signed == b.is_signed;
}
bool same_logits(const bswp::kernels::QView& v, const QTensor& ref) {
  return v.len == ref.data.size() &&
         std::memcmp(v.data, ref.data.data(), v.len * sizeof(std::int16_t)) == 0 &&
         v.scale == ref.scale && v.zero_point == ref.zero_point && v.bits == ref.bits &&
         v.is_signed == ref.is_signed;
}

/// Latencies in 0.1 µs bins up to 10 ms, kept exactly above that. Its memory
/// does not grow with the number of samples, so a faster server measured
/// through it does not raise peak_rss_mb.
class Histogram {
 public:
  void add(double us) {
    const double bin = us / kBinUs;
    if (bin >= 0.0 && bin < static_cast<double>(kBins)) {
      ++bins_[static_cast<std::size_t>(bin)];
    } else {
      overflow_.push_back(us);
    }
    ++count_;
  }
  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBins; ++i) bins_[i] += o.bins_[i];
    overflow_.insert(overflow_.end(), o.overflow_.begin(), o.overflow_.end());
    count_ += o.count_;
  }
  /// Nearest rank, as percentile(); a binned sample reads as its bin centre.
  double percentile(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBins; ++i) {
      seen += bins_[i];
      if (seen >= rank) return (static_cast<double>(i) + 0.5) * kBinUs;
    }
    std::vector<double> over = overflow_;
    std::sort(over.begin(), over.end());
    return over[std::min<std::size_t>(over.size() - 1, rank - seen - 1)];
  }

 private:
  static constexpr double kBinUs = 0.1;
  static constexpr std::size_t kBins = 100000;
  std::vector<std::uint32_t> bins_ = std::vector<std::uint32_t>(kBins);
  std::vector<double> overflow_;
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Spans: a preallocated buffer filled only by --trace-dir runs, written out
// as Chrome trace-event JSON after the run. Recording is one atomic increment
// and a store; a full buffer drops (and counts) further spans.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = nullptr;  // string literal or SpanLog::intern()
  TimePoint start, end;
  std::uint32_t id = 0;      // request / generation / batch id (0 = none)
  std::uint32_t parent = 0;  // id of the span that caused this one (0 = root)
  std::uint32_t lane = 0;    // trace-viewer row
};

class SpanLog {
 public:
  SpanLog(std::size_t capacity, TimePoint epoch) : spans_(capacity), epoch_(epoch) {}

  void add(const char* name, TimePoint start, TimePoint end, std::uint32_t id,
           std::uint32_t parent, std::uint32_t lane) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < spans_.size()) spans_[i] = Span{name, start, end, id, parent, lane};
  }
  /// A copy of `name` that lives as long as the log. Not thread-safe: call
  /// it outside the measured phases.
  const char* intern(const std::string& name) { return names_.emplace_back(name).c_str(); }
  std::size_t recorded() const { return std::min(next_.load(), spans_.size()); }
  std::size_t dropped() const { return next_.load() - recorded(); }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < recorded(); ++i) {
      const Span& s = spans_[i];
      std::string name;
      for (const char* c = s.name; *c != '\0'; ++c) {
        if (*c == '"' || *c == '\\') name.push_back('\\');
        name.push_back(*c);
      }
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%u,\"parent\":%u}}%s\n",
                   name.c_str(), s.lane, us_between(epoch_, s.start), us_between(s.start, s.end),
                   s.id, s.parent, i + 1 < recorded() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  TimePoint epoch_;
  std::deque<std::string> names_;  // deque: growing it never moves a string
};

SpanLog* g_spans = nullptr;  // null unless this is a traced run

/// Trace-viewer rows.
enum Lane : std::uint32_t { kLaneWork = 0, kLaneSubmit = 1, kLaneReplay = 2, kLaneSession0 = 3 };

void span(const char* name, TimePoint start, TimePoint end, std::uint32_t id = 0,
          std::uint32_t parent = 0, std::uint32_t lane = kLaneWork) {
  if (g_spans != nullptr) g_spans->add(name, start, end, id, parent, lane);
}

// ---------------------------------------------------------------------------
// Metrics. Every workload reports every metric of its kind (BENCHMARK.json
// lists them); a per-layer metric of a layer the workload does not pass
// through reads 0.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Kernel time is grouped by the family prefix of KernelBackend::name() (the
/// part before the first '/'), so the metric names do not depend on which
/// variant the compiler picks for a layer. The replay table keeps full names.
const char* const kFamilies[] = {"bitserial", "simd", "baseline", "structural"};

std::vector<Metric> per_layer_template() {
  std::vector<Metric> m = {
      {"p90_us", 0, "us"},
      {"p99_us", 0, "us"},
      {"warmup_p99_us", 0, "us"},
      {"loadgen.lag_p99_us", 0, "us"},
      {"api.submit_p50_us", 0, "us"},
      {"api.submit_p99_us", 0, "us"},
      {"pool.cluster_s", 0, "s"},
      {"runtime.lowering.compile_s", 0, "s"},
      {"runtime.server.start_s", 0, "s"},
      {"runtime.server.queue_mean_us", 0, "us"},
      {"runtime.server.mean_batch", 0, "count"},
      {"runtime.server.exec_p50_us", 0, "us"},
      {"runtime.server.exec_p99_us", 0, "us"},
      {"runtime.server.affinity_hit_rate", 0, "ratio"},
      {"runtime.server.batches", 0, "count"},
      {"runtime.server.deadline_expired", 0, "count"},
      {"runtime.server.shed", 0, "count"},
      {"runtime.server.rejected", 0, "count"},
      {"runtime.server.session_affinity_hit_rate", 0, "ratio"},
      {"runtime.sessions.token_p50_us", 0, "us"},
      {"runtime.sessions.deadline_misses", 0, "count"},
      {"runtime.sessions.generations", 0, "count"},
      {"runtime.serving_pool.start_s", 0, "s"},
      {"runtime.serving_pool.image_p50_us", 0, "us"},
      {"runtime.serving_pool.image_p99_us", 0, "us"},
      {"runtime.executor.b1_us", 0, "us"},
      {"runtime.executor.b8_us", 0, "us"},
      {"runtime.executor.overhead_us", 0, "us"},
      {"runtime.executor.arena_bytes", 0, "B"},
  };
  for (const char* fam : kFamilies) {
    m.push_back({std::string("kernels.") + fam + ".us", 0, "us"});
    // The cost model prices structural plans (input, flatten) at zero.
    if (std::strcmp(fam, "structural") != 0) {
      m.push_back({std::string("kernels.") + fam + ".pred_us", 0, "us"});
    }
  }
  m.push_back({"kernels.cost_model_error", 0, "ratio"});
  return m;
}

/// What one workload run produced.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // wrong output, unexpected error, or lost
  std::uint64_t mismatched = 0;  // subset of failed: output differs from the reference
  std::uint64_t late = 0;        // deadline workloads: correct but past the SLO, or expired
  double lag_p99_us = 0.0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer = per_layer_template();

  /// No operation failed and no output differed; a late operation is neither.
  bool correct() const { return failed == 0 && mismatched == 0; }

  void set(const std::string& name, double value) { find(name).value = value; }
  void add(const std::string& name, double value) { find(name).value += value; }

 private:
  Metric& find(const std::string& name) {
    for (std::vector<Metric>* ms : {&e2e, &layer}) {
      for (Metric& m : *ms) {
        if (m.name == name) return m;
      }
    }
    throw std::logic_error("unknown metric " + name);
  }
};

// ---------------------------------------------------------------------------
// Fixed models. Weights, pools and calibration data never depend on --seed.
// ---------------------------------------------------------------------------

/// Set-up time of one set-up repetition, by layer.
struct SetupTimes {
  double pool_s = 0.0;
  double compile_s = 0.0;  // calibration + lowering (Deployment::compile)
  double start_s = 0.0;    // serving front end started and models registered
};

const bswp::data::Dataset& calibration_set() {
  static const bswp::data::SyntheticCifar ds = [] {
    bswp::data::SyntheticCifarOptions o;
    o.num_classes = 10;
    o.train_size = 64;
    o.test_size = 1;
    o.image_size = kImageSize;
    o.templates_per_class = 4;
    o.noise_stddev = 0.15f;
    o.seed = 42;
    return bswp::data::SyntheticCifar(o, true);
  }();
  return ds;
}

bswp::models::ModelOptions vision_options() {
  bswp::models::ModelOptions mo;
  mo.in_channels = 3;
  mo.image_size = kImageSize;
  mo.num_classes = 10;
  mo.width = kWidth;
  return mo;
}

bswp::quant::CalibrateOptions calibrate_options() {
  bswp::quant::CalibrateOptions qo;
  qo.num_samples = 32;
  return qo;
}

/// Pooled bit-serial ResNet-s at `act_bits`.
bswp::Session compile_resnet(int act_bits, SetupTimes& t) {
  bswp::nn::Graph g = bswp::models::build_resnet_s(vision_options());
  bswp::Rng rng(7);
  g.init_weights(rng);
  bswp::pool::CodecOptions co;
  co.pool_size = kPoolSize;
  co.kmeans_iters = 5;
  co.max_cluster_vectors = 4000;
  const TimePoint p0 = Clock::now();
  bswp::pool::PooledNetwork pooled = bswp::pool::build_weight_pool(g, co);
  const TimePoint p1 = Clock::now();
  span("setup.pool", p0, p1);
  t.pool_s += s_between(p0, p1);
  bswp::Session s = bswp::Deployment::from(g)
                        .with_pool(std::move(pooled))
                        .seed_batchnorm(16)
                        .calibrate(calibration_set(), calibrate_options())
                        .act_bits(act_bits)
                        .compile();
  const TimePoint p2 = Clock::now();
  span("setup.compile", p1, p2);
  t.compile_s += s_between(p1, p2);
  return s;
}

/// Int8 TinyConv (no pool).
bswp::Session compile_tinyconv(SetupTimes& t) {
  bswp::nn::Graph g = bswp::models::build_tinyconv(vision_options());
  bswp::Rng rng(8);
  g.init_weights(rng);
  const TimePoint c0 = Clock::now();
  bswp::Session s = bswp::Deployment::from(g)
                        .seed_batchnorm(16)
                        .calibrate(calibration_set(), calibrate_options())
                        .compile();
  const TimePoint c1 = Clock::now();
  span("setup.compile", c0, c1);
  t.compile_s += s_between(c0, c1);
  return s;
}

bswp::models::TokenLmOptions lm_options() {
  bswp::models::TokenLmOptions lm;
  lm.vocab = 64;
  lm.embed_dim = 16;
  lm.state_dim = 32;
  lm.hidden_dim = 32;
  return lm;
}

/// GRU-style token LM, calibrated on its own greedy rollouts.
bswp::Session compile_token_lm(SetupTimes& t) {
  const bswp::models::TokenLmOptions lm = lm_options();
  bswp::nn::Graph g = bswp::models::build_token_lm(lm);
  bswp::Rng rng(7);
  g.init_weights(rng);
  const TimePoint c0 = Clock::now();
  bswp::models::TokenLmRollout cal_ds(g, lm, /*sequences=*/4, /*steps=*/8, 8);
  bswp::quant::CalibrateOptions co;
  co.num_samples = cal_ds.size();
  co.batch_size = 8;
  const bswp::quant::CalibrationResult cal = bswp::quant::calibrate(g, cal_ds, co);
  bswp::Session s(bswp::runtime::compile(g, nullptr, cal, bswp::runtime::CompileOptions{}));
  const TimePoint c1 = Clock::now();
  span("setup.compile", c0, c1);
  t.compile_s += s_between(c0, c1);
  return s;
}

/// `n` CIFAR-like images drawn from a generator seeded by --seed.
std::vector<Tensor> make_images(std::uint64_t seed, int n) {
  bswp::data::SyntheticCifarOptions o;
  o.num_classes = 10;
  o.train_size = 1;
  o.test_size = n;
  o.image_size = kImageSize;
  o.templates_per_class = 4;
  o.noise_stddev = 0.15f;
  o.seed = derive_seed(seed, 1);
  const bswp::data::SyntheticCifar ds(o, false);
  std::vector<Tensor> images;
  images.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Tensor x({1, 3, kImageSize, kImageSize});
    ds.sample(i, x.data());
    images.push_back(std::move(x));
  }
  return images;
}

std::vector<QTensor> reference_logits(const bswp::Session& s, const std::vector<Tensor>& images) {
  std::vector<QTensor> out;
  out.reserve(images.size());
  for (const Tensor& x : images) out.push_back(s.run(x));
  return out;
}

/// Greedy decode through Session::run alone: the same feed rule as
/// SessionManager (prefill all prompt tokens but the last, then emit), with
/// none of its serving machinery. Also returns the step inputs it built.
std::vector<int> reference_decode(const bswp::Session& s, const std::vector<int>& prompt,
                                  int tokens, std::vector<Tensor>* step_inputs = nullptr) {
  const bswp::models::TokenLmOptions lm = lm_options();
  std::vector<float> state;
  for (std::size_t i = 0; i + 1 < prompt.size(); ++i) {
    bswp::models::token_lm_decode(lm, s.run(bswp::models::token_lm_input(lm, prompt[i], &state)),
                                  &state);
  }
  std::vector<int> out;
  int pending = prompt.back();
  for (int n = 0; n < tokens; ++n) {
    Tensor x = bswp::models::token_lm_input(lm, pending, &state);
    pending = bswp::models::token_lm_decode(lm, s.run(x), &state);
    if (step_inputs != nullptr) step_inputs->push_back(std::move(x));
    out.push_back(pending);
  }
  return out;
}

/// The end-to-end metrics every workload reports. `ops_per_s` counts the
/// workload's unit of work (request, token or image); `p50_us` is the median
/// of the measured operations' latencies. finish_setup() fills in setup_s.
void add_e2e(Result& r, double ops_per_s, double p50_us, const bswp::Session& main_model) {
  const double attempted = static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
  r.e2e = {
      {"setup_s", 0.0, "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"p50_us", p50_us, "us"},
      {"slo_attainment", static_cast<double>(r.attempted - r.failed - r.late) / attempted,
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"flash_bytes", static_cast<double>(main_model.footprint().flash_bytes), "B"},
      {"mcu_cycles", main_model.estimate_latency(bswp::sim::mc_large()).cycles, "cycles"},
  };
}

// ---------------------------------------------------------------------------
// Per-layer replay: each plan executed on its own through
// KernelBackend::execute over a MemoryPlanner::plan_host arena, timed from
// outside, next to its CostCounter priced by sim::host_profile().
// ---------------------------------------------------------------------------

/// Replays `session`'s network on `inputs`, writes the per-plan table to
/// `table_path` and returns false when the replay's final output differs
/// from Executor::run. With `r`, fills the runtime.executor.* and kernels.*
/// metrics (the workload's main model).
bool replay_model(const std::string& model, const bswp::Session& session,
                  const std::vector<Tensor>& inputs, const std::string& table_path, Result* r) {
  using namespace bswp::runtime;
  const CompiledNetwork& net = session.network();
  const std::size_t n_plans = net.plans.size();
  const KernelRegistry& registry = KernelRegistry::instance();
  std::vector<const KernelBackend*> backends;
  std::vector<const char*> names;
  for (const LayerPlan& p : net.plans) {
    backends.push_back(&registry.resolve(p.kind, backend_variant_key(p)));
    names.push_back(g_spans != nullptr ? g_spans->intern(model + "." + p.name) : "");
  }
  const MemoryPlan mp = MemoryPlanner::plan_host(net, backends, 1);
  auto arena = std::make_unique<std::byte[]>(mp.peak_bytes());
  bswp::ScratchArena scratch(arena.get() + mp.act_bytes, mp.scratch_bytes);
  std::vector<bswp::kernels::QView> views(n_plans);
  std::vector<std::vector<const bswp::kernels::QView*>> plan_inputs(n_plans);
  for (std::size_t p = 0; p < n_plans; ++p) {
    views[p].data = reinterpret_cast<std::int16_t*>(arena.get() + mp.buffers[p].offset);
    for (int in : net.plans[p].inputs) {
      plan_inputs[p].push_back(&views[static_cast<std::size_t>(in)]);
    }
  }
  // One pass over every plan; times each into `layer_us` when given, else
  // records it as a span.
  const auto walk = [&](const Tensor& image, std::vector<std::vector<double>>* layer_us) {
    for (std::size_t p = 0; p < n_plans; ++p) {
      scratch.reset();
      ExecContext ctx{net,
                      net.plans[p],
                      &image,
                      plan_inputs[p].data(),
                      static_cast<int>(plan_inputs[p].size()),
                      &views[p],
                      &scratch,
                      nullptr};
      const TimePoint t0 = Clock::now();
      backends[p]->execute(ctx);
      const TimePoint t1 = Clock::now();
      if (layer_us != nullptr) {
        (*layer_us)[p].push_back(us_between(t0, t1));
      } else {
        span(names[p], t0, t1, static_cast<std::uint32_t>(p), 0, kLaneReplay);
      }
    }
  };

  // Predicted time per plan: the same per-layer event tally the server
  // prices its deadline estimates with, priced for this host.
  const std::vector<bswp::sim::CostCounter> counters = Executor(net).profile_layers(inputs[0]);
  const bswp::sim::McuProfile host = bswp::sim::host_profile();

  // Measured time per plan: median over repeated walks.
  std::vector<std::vector<double>> layer_us(n_plans);
  time_reps(20, 0.3, 5000, [&](int rep) {
    walk(inputs[static_cast<std::size_t>(rep) % inputs.size()], &layer_us);
  });
  walk(inputs[0], nullptr);  // leaves image 0's output in the arena
  const bool identical = same_logits(views.back(), Executor(net).run(inputs[0]));

  // The same network through the Executor: batch 1, and batch 8 per image.
  Executor b1(net);
  const std::vector<double> b1_us = time_reps(20, 0.3, 5000, [&](int rep) {
    b1.run_view(inputs[static_cast<std::size_t>(rep) % inputs.size()]);
  });
  std::vector<Tensor> batch;
  for (std::size_t i = 0; i < 8; ++i) batch.push_back(inputs[i % inputs.size()]);
  Executor b8(net, 8);
  std::vector<double> b8_us = time_reps(10, 0.3, 2000, [&](int) { b8.run_batch_view(batch); });
  for (double& us : b8_us) us /= 8.0;

  double sum_meas = 0.0, sum_abs_err = 0.0;
  std::FILE* f = std::fopen(table_path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + table_path);
  std::fprintf(f, "# %s: per-plan replay, medians per image; pred = CostCounter priced by "
                  "sim::host_profile()\n", model.c_str());
  std::fprintf(f, "plan\tname\tkind\tlane\tbackend\tmeas_us\tpred_us\n");
  for (std::size_t p = 0; p < n_plans; ++p) {
    const LayerPlan& plan = net.plans[p];
    const std::string backend = backends[p]->name();
    const double meas = median(layer_us[p]);
    const double pred = host.seconds(counters[p]) * 1e6;
    sum_meas += meas;
    sum_abs_err += std::fabs(meas - pred);
    std::fprintf(f, "%zu\t%s\t%s\t%s\t%s\t%.3f\t%.3f\n", p, plan.name.c_str(),
                 plan_kind_name(plan.kind), host_lane_name(plan.lane), backend.c_str(), meas, pred);
    if (r != nullptr) {
      const std::string family = backend.substr(0, backend.find('/'));
      // A family added after this benchmark shows in the table only.
      if (std::find(std::begin(kFamilies), std::end(kFamilies), family) != std::end(kFamilies)) {
        r->add("kernels." + family + ".us", meas);
        if (family != "structural") r->add("kernels." + family + ".pred_us", pred);
      }
    }
  }
  std::fprintf(f, "# sum meas %.3f us, executor b1 %.3f us, b8 %.3f us/img, identical %s\n",
               sum_meas, median(b1_us), median(b8_us), identical ? "yes" : "NO");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + table_path);
  if (r != nullptr) {
    r->set("kernels.cost_model_error", sum_meas > 0.0 ? sum_abs_err / sum_meas : 0.0);
    r->set("runtime.executor.b1_us", median(b1_us));
    r->set("runtime.executor.b8_us", median(b8_us));
    r->set("runtime.executor.overhead_us", median(b1_us) - sum_meas);
    r->set("runtime.executor.arena_bytes", static_cast<double>(b1.arena_bytes()));
  }
  return identical;
}

// ---------------------------------------------------------------------------
// Open-loop generator: one thread submits each request at its due time and,
// while it sleeps toward the next one, polls the outstanding futures.
// ---------------------------------------------------------------------------

struct Arrival {
  double due_s = 0.0;  // since the traffic epoch
  int model = 0;
  int image = 0;
};

/// Poisson arrivals at `rate`/s for `duration_s`; model 0 with probability
/// `model0_share`, else model 1; images uniform over `n_images`.
std::vector<Arrival> poisson_arrivals(std::uint64_t seed, double rate, double duration_s,
                                      double model0_share, int n_images) {
  bswp::Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s) break;
    Arrival a;
    a.due_s = t;
    a.model = rng.uniform() < model0_share ? 0 : 1;
    a.image = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n_images)));
    out.push_back(a);
  }
  return out;
}

enum class Status : std::uint8_t { kPending, kOk, kMismatch, kDeadline, kError };

struct RequestRecord {
  double lag_us = 0.0;      // generator's own lateness at submit() entry
  double submit_us = 0.0;   // time inside submit()
  double latency_us = 0.0;  // due -> result observed
  double done_s = -1.0;     // result observed, since the traffic epoch
  Status status = Status::kPending;
};

/// Runs `arrivals` open loop from `epoch`. `submit(a)` returns the request's
/// future; `check(a, logits)` compares a result with its reference.
/// `on_window` runs once, just before the first arrival due at or after
/// `window_s`.
template <class Submit, class Check>
std::vector<RequestRecord> run_open_loop(const std::vector<Arrival>& arrivals, TimePoint epoch,
                                         double window_s, const std::function<void()>& on_window,
                                         Submit&& submit, Check&& check) {
  std::vector<RequestRecord> rec(arrivals.size());
  std::vector<std::pair<std::size_t, std::future<QTensor>>> outstanding;
  outstanding.reserve(4096);
  const auto due_tp = [&](std::size_t i) { return after(epoch, arrivals[i].due_s); };

  const auto reap = [&] {
    for (std::size_t k = 0; k < outstanding.size();) {
      auto& [i, fut] = outstanding[k];
      if (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      const TimePoint done = Clock::now();
      RequestRecord& r = rec[i];
      r.done_s = s_between(epoch, done);
      r.latency_us = us_between(due_tp(i), done);
      try {
        r.status = check(arrivals[i], fut.get()) ? Status::kOk : Status::kMismatch;
      } catch (const bswp::runtime::ServerRejected& e) {
        r.status = e.reason() == bswp::runtime::ServerRejected::Reason::kDeadlineExpired
                       ? Status::kDeadline
                       : Status::kError;
      } catch (const std::exception&) {
        r.status = Status::kError;
      }
      span("request", due_tp(i), done, static_cast<std::uint32_t>(i + 1));
      outstanding[k] = std::move(outstanding.back());
      outstanding.pop_back();
    }
  };

  bool window_started = false;
  std::size_t next = 0;
  // Time spent blocked inside submit() is the server's, not the generator's:
  // a request due while the previous submit() ran is late by the server's
  // doing, and its latency (timed from its due time) already counts that.
  TimePoint free_at = epoch;
  while (next < arrivals.size()) {
    TimePoint now = Clock::now();
    while (next < arrivals.size() && due_tp(next) <= now) {
      if (!window_started && arrivals[next].due_s >= window_s) {
        on_window();
        window_started = true;
        now = Clock::now();
      }
      RequestRecord& r = rec[next];
      r.lag_us = us_between(std::max(due_tp(next), free_at), now);
      const TimePoint s0 = Clock::now();
      std::future<QTensor> fut = submit(arrivals[next]);
      const TimePoint s1 = Clock::now();
      r.submit_us = us_between(s0, s1);
      span("api.submit", s0, s1, 0, static_cast<std::uint32_t>(next + 1), kLaneSubmit);
      outstanding.emplace_back(next, std::move(fut));
      ++next;
      now = free_at = s1;
    }
    reap();
    if (next < arrivals.size()) {
      std::this_thread::sleep_until(std::min(due_tp(next), Clock::now() + kPollSlice));
    }
  }
  const TimePoint give_up = Clock::now() + std::chrono::seconds(10);
  while (!outstanding.empty() && Clock::now() < give_up) {
    reap();
    if (!outstanding.empty()) std::this_thread::sleep_for(kPollSlice);
  }
  return rec;  // still-pending records stay kPending: lost requests
}

/// Folds open-loop records into the result. Requests due in
/// [window_s, window_s + seconds) are the measured ones; with a `deadline`,
/// a request that expired or completed past it is late, not failed.
void summarize_open_loop(const std::vector<Arrival>& arrivals,
                         const std::vector<RequestRecord>& rec, double window_s, double seconds,
                         std::chrono::microseconds deadline, const bswp::Session& main_model,
                         Result& r) {
  std::vector<double> lat, lag, submit_us, warm_lat;
  std::uint64_t completed_in_window = 0;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const RequestRecord& q = rec[i];
    if (q.status == Status::kOk && q.done_s >= window_s && q.done_s < window_s + seconds) {
      ++completed_in_window;
    }
    if (arrivals[i].due_s < window_s) {
      if (q.status == Status::kOk) warm_lat.push_back(q.latency_us);
      if (q.status == Status::kMismatch) ++r.mismatched;
      continue;
    }
    ++r.attempted;
    lag.push_back(q.lag_us);
    submit_us.push_back(q.submit_us);
    switch (q.status) {
      case Status::kOk:
        lat.push_back(q.latency_us);
        if (deadline.count() > 0 && q.latency_us > static_cast<double>(deadline.count())) {
          ++r.late;
        }
        break;
      case Status::kDeadline:
        if (deadline.count() > 0) {
          ++r.late;
        } else {
          ++r.failed;
        }
        break;
      case Status::kMismatch:
        ++r.mismatched;
        ++r.failed;
        break;
      case Status::kError:
      case Status::kPending:
        ++r.failed;
        break;
    }
  }
  r.lag_p99_us = percentile(lag, 0.99);
  add_e2e(r, static_cast<double>(completed_in_window) / seconds, percentile(lat, 0.50),
          main_model);
  r.set("p90_us", percentile(lat, 0.90));
  r.set("p99_us", percentile(lat, 0.99));
  r.set("warmup_p99_us", percentile(warm_lat, 0.99));
  r.set("loadgen.lag_p99_us", r.lag_p99_us);
  r.set("api.submit_p50_us", percentile(submit_us, 0.50));
  r.set("api.submit_p99_us", percentile(submit_us, 0.99));
}

void add_server_layers(const bswp::runtime::ServerStats& s, Result& r) {
  r.set("runtime.server.queue_mean_us", s.latency.mean_us - s.exec_latency.mean_us);
  r.set("runtime.server.mean_batch", s.mean_batch_size);
  r.set("runtime.server.exec_p50_us", s.exec_latency.p50_us);
  r.set("runtime.server.exec_p99_us", s.exec_latency.p99_us);
  const double batches = static_cast<double>(s.affinity_hits + s.affinity_misses);
  r.set("runtime.server.affinity_hit_rate",
        batches > 0 ? static_cast<double>(s.affinity_hits) / batches : 0.0);
  r.set("runtime.server.batches", static_cast<double>(s.batches));
  r.set("runtime.server.deadline_expired", static_cast<double>(s.deadline_expired));
  r.set("runtime.server.shed", static_cast<double>(s.admission.shed));
  r.set("runtime.server.rejected", static_cast<double>(s.admission.rejected));
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kDefaultSeconds;
  double warmup_s = kWarmupS;
  bool quick = false;
  std::string trace_dir;  // empty: untraced
  bool traced() const { return !trace_dir.empty(); }
};

/// Every set-up repetition's times, by layer.
struct SetupLog {
  std::vector<double> total, pool, compile, start;
};

/// One set-up phase: runs `build` from scratch several times (once with
/// --quick), keeping the last set-up; tearing down the previous one is not
/// timed. A workload runs one phase before its warm-up and, unless --quick,
/// one after its measured window, so setup_s does not rest on a single
/// stretch of host speed.
template <class Setup, class Build>
void set_up(const Options& opts, std::unique_ptr<Setup>& keep, SetupLog& log, Build&& build) {
  const int min_reps = opts.quick ? 1 : kSetupMinReps;
  const int max_reps = opts.quick ? 1 : kSetupMaxReps;
  time_reps(min_reps, opts.quick ? 0.0 : kSetupMinS, max_reps, [&](int) {
    keep.reset();
    SetupTimes t;
    const TimePoint t0 = Clock::now();
    keep = build(t);
    const TimePoint t1 = Clock::now();
    span("setup", t0, t1);
    log.total.push_back(s_between(t0, t1));
    log.pool.push_back(t.pool_s);
    log.compile.push_back(t.compile_s);
    log.start.push_back(t.start_s);
  });
}

/// Runs the second set-up phase, then sets setup_s and the set-up layers to
/// their medians over both phases; `start_metric` names the serving front
/// end's layer.
template <class Setup, class Build>
void finish_setup(const Options& opts, std::unique_ptr<Setup>& keep, SetupLog& log,
                  Build&& build, const std::string& start_metric, Result& r) {
  if (!opts.quick) set_up(opts, keep, log, build);
  r.set("setup_s", median(log.total));
  r.set("pool.cluster_s", median(log.pool));
  r.set("runtime.lowering.compile_s", median(log.compile));
  r.set(start_metric, median(log.start));
}

bswp::runtime::ServerOptions server_options(int workers, int max_delay_us) {
  bswp::runtime::ServerOptions so;
  so.workers = workers;
  so.batching.max_batch = 8;
  so.batching.max_delay = std::chrono::microseconds{max_delay_us};
  so.queue.capacity = 4096;
  so.queue.policy = bswp::runtime::QueuePolicy::kReject;
  return so;
}

/// Replays `model` into the workload's per-layer metrics and table; a replay
/// that disagrees with Executor::run counts as a mismatch.
void replay_main(const Options& opts, const std::string& model, const bswp::Session& s,
                 const std::vector<Tensor>& inputs, Result& r) {
  const std::string table = opts.trace_dir + "/" + opts.workload + "." + model + ".plans.tsv";
  if (!replay_model(model, s, inputs, table, &r)) ++r.mismatched;
}

/// serve_mixed: two models behind bswp::Server at a fixed Poisson rate.
Result serve_mixed(const Options& opts) {
  struct Setup {
    std::vector<Tensor> images;
    std::vector<Arrival> arrivals;
    bswp::Session resnet, tiny;
    std::unique_ptr<bswp::Server> server;
  };
  const std::string names[2] = {"resnet-s", "tinyconv"};
  const auto build = [&](SetupTimes& t) {
    std::vector<Tensor> images = make_images(opts.seed, kServedImages);
    std::vector<Arrival> arrivals =
        poisson_arrivals(derive_seed(opts.seed, 2), kMixedRate, opts.warmup_s + opts.seconds,
                         kMixedResnetShare, kServedImages);
    bswp::Session resnet = compile_resnet(4, t);
    bswp::Session tiny = compile_tinyconv(t);
    const TimePoint s0 = Clock::now();
    auto server = std::make_unique<bswp::Server>(server_options(2, 1000));
    server->add(names[0], resnet).add(names[1], tiny);
    t.start_s = s_between(s0, Clock::now());
    return std::unique_ptr<Setup>(new Setup{std::move(images), std::move(arrivals),
                                            std::move(resnet), std::move(tiny),
                                            std::move(server)});
  };
  Result r;
  SetupLog setups;
  std::unique_ptr<Setup> su;
  set_up(opts, su, setups, build);
  const std::vector<QTensor> ref[2] = {reference_logits(su->resnet, su->images),
                                       reference_logits(su->tiny, su->images)};

  prctl(PR_SET_TIMERSLACK, 1UL);  // this thread only: the server's threads exist already
  const std::vector<RequestRecord> rec = run_open_loop(
      su->arrivals, Clock::now(), opts.warmup_s, [&] { su->server->reset_stats(); },
      [&](const Arrival& a) {
        return su->server->submit(names[a.model], su->images[static_cast<std::size_t>(a.image)]);
      },
      [&](const Arrival& a, const QTensor& out) {
        return same_logits(out, ref[a.model][static_cast<std::size_t>(a.image)]);
      });
  summarize_open_loop(su->arrivals, rec, opts.warmup_s, opts.seconds,
                      std::chrono::microseconds{0}, su->resnet, r);
  if (opts.traced()) {
    add_server_layers(su->server->stats(), r);
    const std::vector<Tensor> head(su->images.begin(), su->images.begin() + 8);
    replay_main(opts, "resnet_a4", su->resnet, head, r);
    const std::string table = opts.trace_dir + "/serve_mixed.tinyconv.plans.tsv";
    if (!replay_model("tinyconv", su->tiny, head, table, nullptr)) ++r.mismatched;
  }
  finish_setup(opts, su, setups, build, "runtime.server.start_s", r);
  return r;
}

/// serve_overload: one worker past saturation, every request with a deadline.
Result serve_overload(const Options& opts) {
  struct Setup {
    std::vector<Tensor> images;
    std::vector<Arrival> arrivals;
    bswp::Session resnet;
    std::unique_ptr<bswp::runtime::InferenceServer> server;
  };
  const auto build = [&](SetupTimes& t) {
    std::vector<Tensor> images = make_images(opts.seed, kServedImages);
    std::vector<Arrival> arrivals = poisson_arrivals(
        derive_seed(opts.seed, 3), kOverloadRate, opts.warmup_s + opts.seconds, 1.0,
        kServedImages);
    bswp::Session resnet = compile_resnet(2, t);
    const TimePoint s0 = Clock::now();
    auto server = std::make_unique<bswp::runtime::InferenceServer>(server_options(1, 500));
    server->register_model("resnet-s", resnet.network());
    t.start_s = s_between(s0, Clock::now());
    return std::unique_ptr<Setup>(
        new Setup{std::move(images), std::move(arrivals), std::move(resnet), std::move(server)});
  };
  Result r;
  SetupLog setups;
  std::unique_ptr<Setup> su;
  set_up(opts, su, setups, build);
  const std::vector<QTensor> ref = reference_logits(su->resnet, su->images);

  prctl(PR_SET_TIMERSLACK, 1UL);
  bswp::runtime::SubmitOptions so;
  so.deadline = kOverloadDeadline;
  const std::vector<RequestRecord> rec = run_open_loop(
      su->arrivals, Clock::now(), opts.warmup_s, [&] { su->server->reset_stats(); },
      [&](const Arrival& a) {
        return su->server->submit("resnet-s", su->images[static_cast<std::size_t>(a.image)], so);
      },
      [&](const Arrival& a, const QTensor& out) {
        return same_logits(out, ref[static_cast<std::size_t>(a.image)]);
      });
  summarize_open_loop(su->arrivals, rec, opts.warmup_s, opts.seconds, kOverloadDeadline,
                      su->resnet, r);
  if (opts.traced()) {
    add_server_layers(su->server->stats(), r);
    replay_main(opts, "resnet_a2", su->resnet,
                std::vector<Tensor>(su->images.begin(), su->images.begin() + 8), r);
  }
  finish_setup(opts, su, setups, build, "runtime.server.start_s", r);
  return r;
}

/// decode_sessions: closed-loop session threads on bswp::SessionServer.
Result decode_sessions(const Options& opts) {
  struct Setup {
    std::vector<std::vector<int>> prompts;
    bswp::Session lm;
    std::unique_ptr<bswp::SessionServer> server;
  };
  const auto build = [&](SetupTimes& t) {
    bswp::Rng rng(derive_seed(opts.seed, 4));
    std::vector<std::vector<int>> prompts(kPrompts);
    for (std::vector<int>& p : prompts) {
      p.resize(4 + rng.uniform_int(9));
      for (int& tok : p) tok = static_cast<int>(rng.uniform_int(64));
    }
    bswp::Session lm = compile_token_lm(t);
    const TimePoint s0 = Clock::now();
    bswp::runtime::ServerOptions so;
    so.workers = 2;
    auto server = std::make_unique<bswp::SessionServer>(so);
    server->add("lm", lm, lm_options());
    t.start_s = s_between(s0, Clock::now());
    return std::unique_ptr<Setup>(new Setup{std::move(prompts), std::move(lm), std::move(server)});
  };
  Result r;
  SetupLog setups;
  std::unique_ptr<Setup> su;
  set_up(opts, su, setups, build);
  std::vector<std::vector<int>> ref;
  std::vector<Tensor> step_inputs;  // the first prompt's decode steps feed the replay
  for (const std::vector<int>& p : su->prompts) {
    ref.push_back(reference_decode(su->lm, p, kDecodeTokens, ref.empty() ? &step_inputs : nullptr));
  }

  struct ThreadLog {
    Histogram gaps, warm_gaps;
    std::uint64_t tokens = 0, failed = 0, mismatched = 0;
  };
  std::vector<ThreadLog> logs(kDecodeThreads);
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> gen_ids{0};
  const TimePoint epoch = Clock::now();
  const TimePoint window_start = after(epoch, opts.warmup_s);
  const TimePoint window_end = after(window_start, opts.seconds);

  const auto session_loop = [&](int tid) {
    ThreadLog& log = logs[static_cast<std::size_t>(tid)];
    bswp::Rng rng(derive_seed(opts.seed, 100 + static_cast<std::uint64_t>(tid)));
    while (!stop.load(std::memory_order_relaxed)) try {
      const std::size_t p = rng.uniform_int(kPrompts);
      const std::vector<int>& want = ref[p];
      const bswp::runtime::SessionId id = su->server->open("lm");
      const TimePoint t0 = Clock::now();
      TimePoint last = t0;
      const bswp::runtime::GenerationResult g = su->server->generate(
          id, su->prompts[p], kDecodeTokens, [&](const bswp::runtime::TokenEvent& e) {
            const TimePoint now = Clock::now();
            const double gap = us_between(last, now);
            last = now;
            if (e.token != want[static_cast<std::size_t>(e.index)]) ++log.mismatched;
            if (now >= window_start && now < window_end) {
              log.gaps.add(gap);
              ++log.tokens;
            } else if (now < window_start) {
              log.warm_gaps.add(gap);
            }
          });
      su->server->close(id);
      span("generate", t0, Clock::now(), gen_ids.fetch_add(1) + 1, 0,
           kLaneSession0 + static_cast<std::uint32_t>(tid));
      if (!g.completed || g.tokens.size() != want.size()) {
        log.failed += want.size() - std::min(want.size(), g.tokens.size());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bswp_bench: session thread %d: %s\n", tid, e.what());
      log.failed += kDecodeTokens;
      return;
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kDecodeThreads; ++t) threads.emplace_back(session_loop, t);
  std::this_thread::sleep_until(window_start);
  const bswp::runtime::ServerStats before = su->server->stats();
  std::this_thread::sleep_until(window_end);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const bswp::runtime::ServerStats end = su->server->stats();

  Histogram gaps, warm;
  std::uint64_t tokens = 0;
  for (const ThreadLog& l : logs) {
    gaps.merge(l.gaps);
    warm.merge(l.warm_gaps);
    tokens += l.tokens;
    r.failed += l.failed + l.mismatched;
    r.mismatched += l.mismatched;
  }
  r.attempted = tokens + r.failed - r.mismatched;
  add_e2e(r, static_cast<double>(tokens) / opts.seconds, gaps.percentile(0.50), su->lm);
  r.set("p90_us", gaps.percentile(0.90));
  r.set("p99_us", gaps.percentile(0.99));
  r.set("warmup_p99_us", warm.percentile(0.99));
  if (opts.traced()) {
    add_server_layers(end, r);
    const double hits =
        static_cast<double>(end.session_affinity_hits - before.session_affinity_hits);
    const double misses =
        static_cast<double>(end.session_affinity_misses - before.session_affinity_misses);
    r.set("runtime.server.session_affinity_hit_rate",
          hits + misses > 0 ? hits / (hits + misses) : 0.0);
    r.set("runtime.sessions.token_p50_us", end.sessions.token_latency.p50_us);
    r.set("runtime.sessions.deadline_misses",
          static_cast<double>(end.sessions.deadline_misses - before.sessions.deadline_misses));
    r.set("runtime.sessions.generations",
          static_cast<double>(end.sessions.generations - before.sessions.generations));
    step_inputs.resize(8);
    replay_main(opts, "token_lm", su->lm, step_inputs, r);
  }
  finish_setup(opts, su, setups, build, "runtime.server.start_s", r);
  return r;
}

/// batch_offline: Session::run_batch over a fixed image set, back to back.
Result batch_offline(const Options& opts) {
  struct Setup {
    std::vector<Tensor> images;
    bswp::Session resnet;
  };
  const auto build = [&](SetupTimes& t) {
    std::vector<Tensor> images = make_images(opts.seed, kBatchImages);
    bswp::Session resnet = compile_resnet(8, t);
    // The serving pool starts lazily: one small batch brings its workers up.
    const TimePoint s0 = Clock::now();
    resnet.run_batch(std::span<const Tensor>(images.data(), kBatchThreads), kBatchThreads);
    t.start_s = s_between(s0, Clock::now());
    return std::unique_ptr<Setup>(new Setup{std::move(images), std::move(resnet)});
  };
  Result r;
  SetupLog setups;
  std::unique_ptr<Setup> su;
  set_up(opts, su, setups, build);
  const std::vector<QTensor> ref = reference_logits(su->resnet, su->images);

  const TimePoint window_start = after(Clock::now(), opts.warmup_s);
  const TimePoint window_end = after(window_start, opts.seconds);
  std::vector<double> call_us, warm_us, image_p50, image_p99;
  double window_call_s = 0.0;
  std::uint64_t images = 0;
  std::uint32_t call = 0;
  for (TimePoint t0 = Clock::now(); t0 < window_end || call_us.empty(); t0 = Clock::now()) {
    std::vector<QTensor> out;
    if (opts.traced()) {
      bswp::BatchResult b = su->resnet.run_batch_stats(su->images, kBatchThreads);
      out = std::move(b.logits);
      if (t0 >= window_start) {
        image_p50.push_back(b.stats.latency.p50_us);
        image_p99.push_back(b.stats.latency.p99_us);
      }
    } else {
      out = su->resnet.run_batch(su->images, kBatchThreads);
    }
    const TimePoint t1 = Clock::now();
    span("run_batch", t0, t1, ++call);
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (i >= out.size() || !same_logits(out[i], ref[i])) ++wrong;
    }
    r.mismatched += wrong;
    if (t0 < window_start) {
      warm_us.push_back(us_between(t0, t1));
      continue;
    }
    call_us.push_back(us_between(t0, t1));
    window_call_s += s_between(t0, t1);
    images += ref.size();
    r.attempted += ref.size();
    r.failed += wrong;
  }
  add_e2e(r, static_cast<double>(images) / window_call_s, percentile(call_us, 0.50), su->resnet);
  r.set("p90_us", percentile(call_us, 0.90));
  r.set("p99_us", percentile(call_us, 0.99));
  r.set("warmup_p99_us", percentile(warm_us, 0.99));
  if (opts.traced()) {
    r.set("runtime.serving_pool.image_p50_us", median(image_p50));
    r.set("runtime.serving_pool.image_p99_us", median(image_p99));
    replay_main(opts, "resnet_a8", su->resnet,
                std::vector<Tensor>(su->images.begin(), su->images.begin() + 8), r);
  }
  finish_setup(opts, su, setups, build, "runtime.serving_pool.start_s", r);
  return r;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void print_result(const std::string& workload, const Result& r, bool traced) {
  const std::vector<Metric>& json_metrics = traced ? r.layer : r.e2e;
  for (const Metric& m : r.e2e) {
    std::printf("%s %s %.17g %s\n", workload.c_str(), m.name.c_str(), m.value, m.unit.c_str());
  }
  // Failed operations over attempted, late ones included: 0 except on
  // serve_overload, so it is printed here but kept out of the JSON metrics.
  const double attempted = static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
  std::printf("%s failed_ratio %.17g ratio\n", workload.c_str(),
              static_cast<double>(r.failed + r.late) / attempted);
  if (traced) {
    for (const Metric& m : r.layer) {
      std::printf("%s %s %.17g %s\n", workload.c_str(), m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < json_metrics.size(); ++i) {
    const Metric& m = json_metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: bswp_bench --workload serve_mixed|serve_overload|decode_sessions|"
               "batch_offline [--seed N] [--seconds T] [--trace-dir DIR] [--quick]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  Options opts;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      opts.quick = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v, nullptr);
      seconds_given = true;
    } else if (a == "--trace-dir") {
      opts.trace_dir = v;
    } else {
      return usage();
    }
  }
  if (opts.quick) {
    opts.warmup_s = kQuickWarmupS;
    if (!seconds_given) opts.seconds = kQuickSeconds;
  }
  if (!(opts.seconds > 0.0)) return usage();

  const std::map<std::string, std::function<Result(const Options&)>> workloads = {
      {"serve_mixed", serve_mixed},
      {"serve_overload", serve_overload},
      {"decode_sessions", decode_sessions},
      {"batch_offline", batch_offline},
  };
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end()) return usage();

  std::unique_ptr<SpanLog> spans;
  if (opts.traced()) {
    spans = std::make_unique<SpanLog>(std::size_t{1} << 18, Clock::now());
    g_spans = spans.get();
  }
  const Result r = it->second(opts);
  if (spans != nullptr) {
    const std::string path = opts.trace_dir + "/" + opts.workload + ".trace.json";
    if (!spans->write_chrome(path)) {
      std::fprintf(stderr, "bswp_bench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "bswp_bench: %zu spans (%zu dropped) -> %s\n", spans->recorded(),
                 spans->dropped(), path.c_str());
  }
  print_result(opts.workload, r, spans != nullptr);
  if (!r.correct()) {
    std::fprintf(stderr,
                 "bswp_bench: %llu operations failed, %llu outputs differ from the reference\n",
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.mismatched));
    return 3;
  }
  if (!opts.quick && r.lag_p99_us > kMaxLagP99Us) {
    std::fprintf(stderr, "bswp_bench: generator lag p99 %.0f us exceeds %.0f us\n", r.lag_p99_us,
                 kMaxLagP99Us);
    return 4;
  }
  return 0;
}

}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bswp_bench: %s\n", e.what());
    return 1;
  }
}
