#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "api/bswp.h"
#include "runtime/serialize.h"

namespace bswp {

namespace {

using WallClock = std::chrono::steady_clock;

/// Images per batched executor call in run_batch: each thread takes chunks
/// of this many images from a shared cursor.
constexpr std::size_t kChunk = 8;

double micros_since(WallClock::time_point t0) {
  return std::chrono::duration<double, std::micro>(WallClock::now() - t0).count();
}

}  // namespace

Session::Session(runtime::CompiledNetwork net)
    : net_(std::make_unique<runtime::CompiledNetwork>(std::move(net))) {
  check(!net_->plans.empty(), "Session: empty compiled network");
}

QTensor Session::run(const Tensor& image, sim::CostCounter* counter) const {
  runtime::Executor exec(*net_);
  return exec.run(image, counter);
}

Tensor Session::run_logits(const Tensor& image, sim::CostCounter* counter) const {
  return run(image, counter).dequantize();
}

std::vector<QTensor> Session::run_batch(std::span<const Tensor> images, int n_threads) const {
  check(n_threads >= 1, "Session::run_batch: n_threads must be >= 1");
  return run_batch_stats(images, n_threads).logits;
}

BatchResult Session::run_batch_stats(std::span<const Tensor> images, int n_threads) const {
  check(n_threads >= 1, "Session::run_batch_stats: n_threads must be >= 1");
  BatchResult r;
  r.logits.resize(images.size());
  if (images.empty()) return r;

  const int threads =
      static_cast<int>(std::min(static_cast<std::size_t>(n_threads), images.size()));
  std::vector<double> lat_us(images.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  const WallClock::time_point t_call = WallClock::now();

  const auto work = [&] {
    try {
      runtime::Executor exec(*net_, static_cast<int>(std::min(kChunk, images.size())));
      // Checking the failure flag before every chunk is the early-stop
      // contract: once any chunk fails, no thread starts another.
      while (!failed) {
        const std::size_t i = next.fetch_add(kChunk);
        if (i >= images.size()) break;
        const std::size_t n = std::min(kChunk, images.size() - i);
        const WallClock::time_point t0 = WallClock::now();
        exec.run_batch_view(images.subspan(i, n));
        // An image's latency is its share of the chunk's wall time — the
        // quantity a capacity planner needs under batched execution.
        const double per_image = micros_since(t0) / static_cast<double>(n);
        for (std::size_t k = 0; k < n; ++k) {
          r.logits[i + k] = exec.logits_view(static_cast<int>(k)).to_qtensor();
          lat_us[i + k] = per_image;
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
      failed = true;
    }
  };
  {
    std::vector<std::jthread> helpers;  // joined when the scope closes
    helpers.reserve(static_cast<std::size_t>(threads - 1));
    for (int t = 1; t < threads; ++t) helpers.emplace_back(work);
    work();
  }
  if (error) std::rethrow_exception(error);

  r.stats.images = images.size();
  r.stats.workers = threads;
  r.stats.wall_seconds = std::chrono::duration<double>(WallClock::now() - t_call).count();
  r.stats.throughput_ips =
      r.stats.wall_seconds > 0.0 ? static_cast<double>(images.size()) / r.stats.wall_seconds : 0.0;
  r.stats.latency = runtime::LatencyRecorder::summarize(std::move(lat_us));
  return r;
}

float Session::evaluate(const data::Dataset& ds, int max_samples) const {
  return runtime::evaluate_accuracy(*net_, ds, max_samples);
}

sim::MemoryFootprint Session::footprint() const { return runtime::footprint(*net_); }

std::vector<int> Session::input_chw() const {
  for (const runtime::LayerPlan& p : net_->plans) {
    if (p.kind == runtime::PlanKind::kInput) return p.out_chw;
  }
  throw std::runtime_error("Session: compiled network has no input plan");
}

runtime::LatencyReport Session::estimate_latency(const sim::McuProfile& mcu) const {
  const std::vector<int> chw = input_chw();
  check(chw.size() == 3, "Session::estimate_latency: input plan is not CHW");
  return estimate_latency(mcu, Tensor({1, chw[0], chw[1], chw[2]}));
}

runtime::LatencyReport Session::estimate_latency(const sim::McuProfile& mcu,
                                                 const Tensor& image) const {
  return runtime::estimate_latency(*net_, mcu, image);
}

void Session::save(const std::string& path) const { runtime::save_network(*net_, path); }

Session Session::load(const std::string& path) {
  return Session(runtime::load_network(path));
}

std::size_t Session::export_firmware(const std::string& path,
                                     const std::string& symbol_prefix) const {
  return runtime::export_c_header(*net_, path, symbol_prefix);
}

}  // namespace bswp
