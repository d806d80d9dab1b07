#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 0-based index of the nearest-rank q-percentile in a sorted sample of n.
std::size_t rank_index(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  const auto k = static_cast<std::size_t>(std::max(r, 1.0));
  return std::min(k, n) - 1;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, double q, std::size_t min_beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t k = rank_index(n, q);
  if (n - 1 - k < min_beyond) k = n > min_beyond ? n - 1 - min_beyond : n - 1;
  t.value = v[k];
  t.beyond = n - 1 - k;
  t.pct = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return t;
}

double median_pass_gbps(std::span<const double> bytes,
                        const std::vector<std::vector<double>>& seconds) {
  double b = 0, s = 0;
  for (std::size_t i = 0; i < bytes.size() && i < seconds.size(); ++i) {
    if (seconds[i].empty()) continue;
    b += bytes[i];
    s += median(seconds[i]);
  }
  return s > 0 ? b / s / 1e9 : 0.0;
}

double layer_sum_ratio(std::span<const double> layer_seconds,
                       double end_to_end_seconds) {
  if (end_to_end_seconds <= 0) return 0.0;
  double sum = 0;
  for (const double s : layer_seconds) sum += s;
  return sum / end_to_end_seconds;
}

}  // namespace perfbench
