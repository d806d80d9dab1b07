// The benchmark's own arithmetic: percentile selection, throughput
// aggregation and layer-sum ratios. Kept apart from the workloads so the
// tests can pin it down exactly.
#pragma once

#include <chrono>
#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median, averaging the middle pair of an even-sized sample.
[[nodiscard]] double median(std::vector<double> v);

/// A tail latency together with what it rests on.
struct Tail {
  double value = 0;
  double pct = 0;           ///< nearest-rank percentile taken, in (0, 100]
  std::size_t beyond = 0;   ///< samples strictly above the selected rank
  std::size_t samples = 0;
};

/// The q-th nearest-rank percentile (the smallest sample with at least q*n
/// samples at or below it) when at least `min_beyond` samples lie beyond it; otherwise the highest rank that still leaves `min_beyond`
/// samples beyond. Below min_beyond + 1 samples the maximum is taken and
/// `beyond` reports the shortfall.
[[nodiscard]] Tail tail(std::vector<double> v, double q = 0.99,
                        std::size_t min_beyond = 10);

/// Bytes moved over the busy seconds spent moving them.
struct Throughput {
  double bytes = 0;
  double seconds = 0;
  std::size_t ops = 0;

  void add(double op_bytes, double op_seconds) {
    bytes += op_bytes;
    seconds += op_seconds;
    ++ops;
  }
  /// 1e9 bytes per second; 0 when nothing was timed.
  [[nodiscard]] double gbps() const {
    return seconds > 0 ? bytes / seconds / 1e9 : 0.0;
  }
};

/// Throughput of one pass over distinct items, from each item's repeated
/// timings: sum of bytes over the sum of per-item median seconds. A slow
/// repeat moves only its own item's median, never the whole figure.
/// Items without timings are skipped.
[[nodiscard]] double median_pass_gbps(
    std::span<const double> bytes,
    const std::vector<std::vector<double>>& seconds);

/// Sum of the serial per-layer seconds over the end-to-end seconds of the
/// same work: above 1 the pipeline overlaps its stages, below 1 some time is
/// spent outside every measured layer.
[[nodiscard]] double layer_sum_ratio(std::span<const double> layer_seconds,
                                     double end_to_end_seconds);

}  // namespace perfbench
