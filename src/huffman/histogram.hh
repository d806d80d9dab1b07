// Quant-code histogram kernels feeding the Huffman codebook (§VI-A).
//
// histogram_topk() is cuSZ-i's optimization of cuSZ's generic privatized
// histogram (one private histogram per *worker*, 4 interleaved counter
// banks each; the generic scheme survives as the test and ablation
// reference in tests/reference_pipeline.hh). G-Interp's codes concentrate
// in a small band r_k around the zero code, so each "thread" caches the
// top-k hottest bins in registers (here: a small local array, also
// interleaved) and only touches the full private histogram for the cold
// tail. On a GPU this slashes shared-memory traffic; the CPU realization
// keeps the identical structure so the ablation bench can compare the two
// paths, and gracefully degrades to k=1 when asked (§VI-A).
//
// The per-worker private histograms come from the pooled arena (one flat
// block). The merged result is deterministic regardless of worker count:
// uint32 counter addition commutes, and partials are combined serially in
// worker order.
//
// The building blocks (histogram_workers / accumulate_banked /
// merge_histograms) are exposed inline so the fused predictors count codes
// with the same banked layout inside their own worker loops: Lorenzo row by
// row, G-Interp slice by slice as it re-buckets each tile into the level
// streams. The fused pipeline thus skips the separate full read pass over
// `codes` while producing bit-identical totals (addition commutes, so
// partitioning the elements by tile instead of by contiguous range changes
// nothing).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "device/arena.hh"
#include "device/thread_pool.hh"
#include "quant/quantizer.hh"

namespace szi::huffman {

/// Interleaved counter banks per worker-private histogram. Concentrated code
/// streams (>90% of G-Interp codes hit one bin) serialize on the
/// store-to-load dependency of a single counter; striping consecutive
/// elements across independent banks lets the increments overlap. Banks are
/// folded by merge_histograms().
inline constexpr std::size_t kHistogramBanks = 4;

/// Minimum elements one histogram worker is worth spinning up for.
inline constexpr std::size_t kHistogramMinPerWorker = 1 << 16;

/// Worker count for accumulating over `n` elements: one worker per
/// kHistogramMinPerWorker elements, capped at the pool size, at least 1.
[[nodiscard]] inline std::size_t histogram_workers(std::size_t n) {
  const std::size_t maxw =
      std::max<std::size_t>(1, dev::ThreadPool::instance().worker_count());
  return std::clamp<std::size_t>((n + kHistogramMinPerWorker - 1) /
                                     kHistogramMinPerWorker,
                                 1, maxw);
}

/// Accumulates `n` codes (each < nbins) into the caller's banked private
/// histogram `h` of kHistogramBanks * nbins counters. `h` must be zeroed
/// before the first call; repeated calls accumulate. Code i lands in bank
/// i mod kHistogramBanks of *this call*, which is irrelevant to the folded
/// totals (addition commutes) but keeps the increments independent.
inline void accumulate_banked(const quant::Code* codes, std::size_t n,
                              std::uint32_t* h, std::size_t nbins) {
  std::uint32_t* h0 = h;
  std::uint32_t* h1 = h + nbins;
  std::uint32_t* h2 = h + 2 * nbins;
  std::uint32_t* h3 = h + 3 * nbins;
  static_assert(kHistogramBanks == 4, "unrolled for 4 banks");
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++h0[codes[i]];
    ++h1[codes[i + 1]];
    ++h2[codes[i + 2]];
    ++h3[codes[i + 3]];
  }
  for (; i < n; ++i) ++h0[codes[i]];
}

/// Folds `nparts` flat private histograms (nbins counters each) into one
/// total, serially in part order — the deterministic merge every
/// accumulation site shares. Uses 8-wide AVX2 adds when the host supports
/// them; uint32 addition is exact, so the vector and scalar folds are
/// trivially identical.
[[nodiscard]] std::vector<std::uint32_t> merge_histograms(
    std::span<const std::uint32_t> parts, std::size_t nparts,
    std::size_t nbins);

/// Hot-band cached histogram: bins in [center-k, center+k] go through a
/// per-chunk register cache; everything else through the private histogram.
/// `center` is normally the quantizer radius (the zero-error code).
[[nodiscard]] std::vector<std::uint32_t> histogram_topk(
    std::span<const quant::Code> codes, std::size_t nbins, std::size_t center,
    std::size_t k, dev::Workspace& ws);

/// Shannon entropy of `data`'s byte distribution, in bits per byte
/// (0 for empty or constant input, 8 for uniform). Accumulated through the
/// same 4-bank interleaved counters as the code histograms, so concentrated
/// streams don't serialize on one counter. The lossless orchestration layer
/// uses this as its incompressibility shortcut: a sample within noise of
/// 8 bits/byte cannot gain from any de-redundancy pipeline, so the sampled
/// chooser skips the candidate compressions entirely.
[[nodiscard]] double byte_entropy(std::span<const std::byte> data);

}  // namespace szi::huffman
