#include "metrics/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "device/launch.hh"
#include "device/reduce.hh"

namespace szi::metrics {

namespace {

/// |a - b| under the non-finite contract: 0 where the values are equal or
/// both NaN, +inf for any other mismatch involving a non-finite value.
double abs_error(double a, double b) {
  if (a == b || (std::isnan(a) && std::isnan(b))) return 0;
  const double e = std::abs(a - b);
  return std::isfinite(e) ? e : std::numeric_limits<double>::infinity();
}

template <typename T>
Distortion distortion_impl(std::span<const T> original,
                           std::span<const T> reconstructed) {
  if (original.size() != reconstructed.size())
    throw std::invalid_argument("distortion: size mismatch");
  Distortion d;
  if (original.empty()) return d;

  struct Acc {
    double sum_sq = 0;
    double max_abs = 0;
    double lo = 0, hi = 0;
  };
  const std::size_t n = original.size();
  const std::size_t chunk = 1 << 16;
  const std::size_t nchunks = dev::ceil_div(n, chunk);
  std::vector<Acc> partial(nchunks);
  dev::launch_linear(
      nchunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        Acc a;
        a.lo = a.hi = original[begin];
        for (std::size_t i = begin; i < end; ++i) {
          const double e = abs_error(original[i], reconstructed[i]);
          a.sum_sq += e * e;
          a.max_abs = std::max(a.max_abs, e);
          a.lo = std::min(a.lo, static_cast<double>(original[i]));
          a.hi = std::max(a.hi, static_cast<double>(original[i]));
        }
        partial[c] = a;
      },
      1);

  Acc t = partial[0];
  for (std::size_t c = 1; c < nchunks; ++c) {
    t.sum_sq += partial[c].sum_sq;
    t.max_abs = std::max(t.max_abs, partial[c].max_abs);
    t.lo = std::min(t.lo, partial[c].lo);
    t.hi = std::max(t.hi, partial[c].hi);
  }

  d.mse = t.sum_sq / static_cast<double>(n);
  d.max_err = t.max_abs;
  d.range = t.hi - t.lo;
  if (d.mse == 0) {
    d.psnr = std::numeric_limits<double>::infinity();
    d.nrmse = 0;
  } else if (d.range == 0) {
    d.psnr = -std::numeric_limits<double>::infinity();
    d.nrmse = std::numeric_limits<double>::infinity();
  } else {
    d.psnr = 20.0 * std::log10(d.range) - 10.0 * std::log10(d.mse);
    d.nrmse = std::sqrt(d.mse) / d.range;
  }
  return d;
}

template <typename T>
bool error_bounded_impl(std::span<const T> original,
                        std::span<const T> reconstructed, double bound,
                        double slack) {
  if (original.size() != reconstructed.size()) return false;
  const double base_limit = bound * (1.0 + slack) + 1e-30;
  // 4 ulps of the value type, relative.
  constexpr double kUlps =
      4.0 * static_cast<double>(std::numeric_limits<T>::epsilon());
  const std::size_t n = original.size();
  const std::size_t chunk = 1 << 16;
  const std::size_t nchunks = dev::ceil_div(n, chunk);
  std::vector<char> ok(nchunks, 1);
  dev::launch_linear(
      nchunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        for (std::size_t i = begin; i < end; ++i) {
          const double a = original[i], b = reconstructed[i];
          const double e = abs_error(a, b);
          if (e == 0) continue;
          const double limit =
              base_limit + kUlps * std::max(std::abs(a), std::abs(b));
          if (std::isinf(e) || e > limit) {
            ok[c] = 0;
            return;
          }
        }
      },
      1);
  for (char c : ok)
    if (!c) return false;
  return true;
}

}  // namespace

Distortion distortion(std::span<const float> original,
                      std::span<const float> reconstructed) {
  return distortion_impl<float>(original, reconstructed);
}
Distortion distortion(std::span<const double> original,
                      std::span<const double> reconstructed) {
  return distortion_impl<double>(original, reconstructed);
}

double value_range(std::span<const float> data) {
  if (data.empty()) return 0;
  const auto mm = dev::minmax(data);
  return static_cast<double>(mm.max) - static_cast<double>(mm.min);
}
double value_range(std::span<const double> data) {
  if (data.empty()) return 0;
  const auto mm = dev::minmax(data);
  return mm.max - mm.min;
}

bool error_bounded(std::span<const float> original,
                   std::span<const float> reconstructed, double bound,
                   double slack) {
  return error_bounded_impl<float>(original, reconstructed, bound, slack);
}
bool error_bounded(std::span<const double> original,
                   std::span<const double> reconstructed, double bound,
                   double slack) {
  return error_bounded_impl<double>(original, reconstructed, bound, slack);
}

}  // namespace szi::metrics
