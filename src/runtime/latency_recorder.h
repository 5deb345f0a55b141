// Shared latency accounting for the serving layers.
//
// Session::run_batch's BatchStats and the InferenceServer's ServerStats both report
// nearest-rank percentiles over per-request latencies; LatencyRecorder is the
// one implementation of that accounting. It records microsecond samples into
// an optionally bounded window (a long-running server must not grow a sample
// vector forever — with a cap, the oldest samples are overwritten ring-style
// and percentiles describe the most recent `cap` requests) and summarizes on
// demand.
//
// Thread safety: none. Callers that record from multiple threads (run_batch
// threads write per-image slots, the inference server records under its
// state mutex) synchronize externally.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace bswp::runtime {

/// Nearest-rank latency distribution (microseconds) of `count` samples.
struct LatencySummary {
  std::size_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

class LatencyRecorder {
 public:
  /// `window` caps the retained samples (0 = unbounded). A capped recorder
  /// summarizes the most recent `window` samples.
  explicit LatencyRecorder(std::size_t window = 0) : window_(window) {}

  void record(double us) {
    if (window_ == 0 || samples_.size() < window_) {
      samples_.push_back(us);
    } else {
      samples_[next_] = us;
      next_ = (next_ + 1) % window_;
    }
    ++total_;
  }

  /// Samples currently retained (<= window when capped).
  std::size_t size() const { return samples_.size(); }
  /// Samples ever recorded (monotonic, not capped).
  std::size_t total() const { return total_; }

  void clear() {
    samples_.clear();
    next_ = 0;
    total_ = 0;
  }

  /// Append `other`'s retained window (oldest sample first) into this
  /// recorder, as if every one of those samples had been record()ed here.
  /// This is how aggregate percentiles must be computed: summarizing a
  /// merged window equals summarizing the concatenation of the windows,
  /// whereas averaging per-source p99s is meaningless (the "mean of p99s"
  /// trap). Subject to this recorder's own cap — merging more samples than
  /// `window` keeps the most recently appended ones.
  void merge(const LatencyRecorder& other) {
    const std::size_t n = other.samples_.size();
    for (std::size_t i = 0; i < n; ++i) {
      // Chronological walk of the other ring: once capped, `next_` points
      // at the oldest retained sample.
      record(other.samples_[(other.next_ + i) % n]);
    }
  }

  LatencySummary summary() const { return summarize(samples_); }

  /// The retained window, unsorted (ring order once capped). Callers that
  /// must not sort under a lock copy this and summarize() outside it.
  const std::vector<double>& samples() const { return samples_; }

  /// Nearest-rank percentiles + mean over an unsorted sample vector
  /// (copies + sorts; empty input yields an all-zero summary).
  static LatencySummary summarize(std::vector<double> lat_us) {
    LatencySummary s;
    if (lat_us.empty()) return s;
    std::sort(lat_us.begin(), lat_us.end());
    const auto rank = [&](double q) {
      const auto n = static_cast<double>(lat_us.size());
      auto idx = static_cast<std::size_t>(std::ceil(q * n));
      return lat_us[std::min(lat_us.size() - 1, idx > 0 ? idx - 1 : 0)];
    };
    s.count = lat_us.size();
    s.p50_us = rank(0.50);
    s.p95_us = rank(0.95);
    s.p99_us = rank(0.99);
    double sum = 0.0;
    for (double v : lat_us) sum += v;
    s.mean_us = sum / static_cast<double>(lat_us.size());
    return s;
  }

 private:
  std::vector<double> samples_;
  std::size_t window_ = 0;
  std::size_t next_ = 0;   // ring cursor, used once samples_ hits the cap
  std::size_t total_ = 0;
};

}  // namespace bswp::runtime
