#include "oracle.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

template <typename T>
double range_of(std::span<const T> data) {
  if (data.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(data.begin(), data.end());
  return static_cast<double>(*hi) - static_cast<double>(*lo);
}

template <typename T>
std::size_t violations(std::span<const T> x, std::span<const T> y,
                       double eb) {
  if (x.size() != y.size()) return std::max(x.size(), y.size());
  constexpr double kUlps =
      4.0 * static_cast<double>(std::numeric_limits<T>::epsilon());
  const double base = eb * (1.0 + 1e-6);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double a = x[i], b = y[i];
    const double limit = base + kUlps * std::max(std::abs(a), std::abs(b));
    // Written so that a NaN on either side counts as a violation.
    if (!(std::abs(a - b) <= limit)) ++bad;
  }
  return bad;
}

}  // namespace

std::uint64_t fnv1a(std::span<const std::byte> bytes, std::uint64_t h) {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string digest_hex(const std::vector<std::uint64_t>& digests) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(
                    std::as_bytes(std::span<const std::uint64_t>(digests)))));
  return buf;
}

double abs_bound(const szi::CompressParams& params,
                 std::span<const float> data) {
  return params.mode == szi::ErrorMode::Rel ? params.value * range_of(data)
                                            : params.value;
}

double abs_bound(const szi::CompressParams& params,
                 std::span<const double> data) {
  return params.mode == szi::ErrorMode::Rel ? params.value * range_of(data)
                                            : params.value;
}

std::size_t bound_violations(std::span<const float> x,
                             std::span<const float> y, double eb) {
  return violations(x, y, eb);
}

std::size_t bound_violations(std::span<const double> x,
                             std::span<const double> y, double eb) {
  return violations(x, y, eb);
}

}  // namespace perfbench
