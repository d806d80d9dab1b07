// Output oracle: every decoded value is checked against the input it came
// from, every ROI and preview against a reference full decode, and every
// archive is digested so two runs of the same code can be compared exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/compressor_iface.hh"
#include "device/dims.hh"

namespace perfbench {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// FNV-1a (64-bit) of `bytes`, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::byte> bytes,
                                  std::uint64_t h = kFnvOffset);

/// One digest for a list of archive digests, as 16 hex digits.
[[nodiscard]] std::string digest_hex(const std::vector<std::uint64_t>& digests);

/// The absolute bound the compressor must honour for `params` on `data`:
/// Abs as given, Rel times the value range (max - min, in double).
[[nodiscard]] double abs_bound(const szi::CompressParams& params,
                               std::span<const float> data);
[[nodiscard]] double abs_bound(const szi::CompressParams& params,
                               std::span<const double> data);

/// Number of positions where |x - y| exceeds the error bound. The stated
/// rounding slack is eb * 1e-6 plus four units in the last place of the
/// larger magnitude in the value type (the reconstruction is evaluated in
/// that type). A size mismatch counts every position of the longer input.
[[nodiscard]] std::size_t bound_violations(std::span<const float> x,
                                           std::span<const float> y,
                                           double eb);
[[nodiscard]] std::size_t bound_violations(std::span<const double> x,
                                           std::span<const double> y,
                                           double eb);

/// The box [lo, lo + ext) of a row-major field.
template <typename T>
[[nodiscard]] std::vector<T> crop(std::span<const T> full,
                                  const szi::dev::Dim3& dims,
                                  const szi::RoiBox& box) {
  std::vector<T> out(box.ext.volume());
  std::size_t o = 0;
  for (std::size_t z = 0; z < box.ext.z; ++z)
    for (std::size_t y = 0; y < box.ext.y; ++y) {
      const std::size_t base =
          ((box.lo.z + z) * dims.y + (box.lo.y + y)) * dims.x + box.lo.x;
      for (std::size_t x = 0; x < box.ext.x; ++x) out[o++] = full[base + x];
    }
  return out;
}

/// Bitwise equality of two arrays (sizes included).
template <typename T>
[[nodiscard]] bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::equal(std::as_bytes(a).begin(), std::as_bytes(a).end(),
                    std::as_bytes(b).begin());
}

}  // namespace perfbench
