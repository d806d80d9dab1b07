// Device-style exclusive prefix sum (scan-then-propagate), used to turn
// per-chunk Huffman bit counts into chunk offsets.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "device/launch.hh"

namespace szi::dev {

/// Exclusive scan of `in` into `out` (same length); returns the grand total.
/// Three phases, as on a GPU: per-chunk local scan, serial scan of chunk
/// totals, parallel propagation of chunk bases.
template <typename T>
T exclusive_scan(std::span<const T> in, std::span<T> out,
                 std::size_t chunk = 1 << 15) {
  const std::size_t n = in.size();
  if (n == 0) return T{};
  const std::size_t nchunks = ceil_div(n, chunk);
  std::vector<T> totals(nchunks);

  launch_linear(
      nchunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        T acc{};
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = acc;
          acc += in[i];
        }
        totals[c] = acc;
      },
      1);

  T running{};
  for (std::size_t c = 0; c < nchunks; ++c) {
    const T t = totals[c];
    totals[c] = running;
    running += t;
  }

  launch_linear(
      nchunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        const T base = totals[c];
        for (std::size_t i = begin; i < end; ++i) out[i] += base;
      },
      1);
  return running;
}

}  // namespace szi::dev
