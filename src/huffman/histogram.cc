#include "huffman/histogram.hh"

#include <algorithm>
#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "device/launch.hh"
#include "device/simd.hh"

namespace szi::huffman {

namespace {

#if defined(__x86_64__)
/// total[0..nbins) += part[0..nbins), 8 counters per step. Exact integer
/// adds — bit-identical to the scalar fold by construction.
[[gnu::target("avx2")]] void add_part_avx2(std::uint32_t* total,
                                           const std::uint32_t* part,
                                           std::size_t nbins) {
  std::size_t b = 0;
  for (; b + 8 <= nbins; b += 8) {
    const __m256i t =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(total + b));
    const __m256i p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(part + b));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(total + b),
                        _mm256_add_epi32(t, p));
  }
  for (; b < nbins; ++b) total[b] += part[b];
}
#endif
/// Alias for the shared bank count (layout documented in histogram.hh).
constexpr std::size_t kInterleave = kHistogramBanks;

/// Fixed worker -> element-range partition: contiguous ranges of
/// ceil(n / nworkers) elements. The totals are order-independent (uint32
/// addition commutes), and the serial worker-order merge keeps the result
/// bit-identical for every worker count anyway.
std::size_t partition(std::size_t n, std::size_t& per) {
  const std::size_t nw = histogram_workers(n);
  per = dev::ceil_div(n, nw);
  return nw;
}
}  // namespace

std::vector<std::uint32_t> merge_histograms(
    std::span<const std::uint32_t> parts, std::size_t nparts,
    std::size_t nbins) {
  std::vector<std::uint32_t> total(nbins, 0);
#if defined(__x86_64__)
  if (dev::has_avx2()) {
    for (std::size_t c = 0; c < nparts; ++c)
      add_part_avx2(total.data(), parts.data() + c * nbins, nbins);
    return total;
  }
#endif
  for (std::size_t c = 0; c < nparts; ++c) {
    const std::uint32_t* p = parts.data() + c * nbins;
    for (std::size_t b = 0; b < nbins; ++b) total[b] += p[b];
  }
  return total;
}

std::vector<std::uint32_t> histogram_topk(std::span<const quant::Code> codes,
                                          std::size_t nbins, std::size_t center,
                                          std::size_t k, dev::Workspace& ws) {
  // Register-file budget: at most 2k+1 hot counters per thread (§VI-A notes
  // large k raises register pressure; callers can fall back to k = 1).
  constexpr std::size_t kMaxHot = 33;
  if (2 * k + 1 > kMaxHot) k = (kMaxHot - 1) / 2;
  const std::size_t lo = center >= k ? center - k : 0;
  const std::size_t hi = std::min(center + k, nbins - 1);
  const std::size_t hot_n = hi - lo + 1;

  std::size_t per = 0;
  const std::size_t nworkers = partition(codes.size(), per);
  auto parts = ws.make<std::uint32_t>(nworkers * nbins);
  dev::launch_linear(
      nworkers,
      [&](std::size_t w) {
        std::uint32_t* h = parts.data() + w * nbins;
        std::fill_n(h, nbins, 0u);
        // The hot band gets the same interleaving treatment as the generic
        // kernel: nearly every element lands here, so the counter banks are
        // what actually overlap the increments.
        std::array<std::array<std::uint32_t, kMaxHot>, kInterleave> hot{};
        const std::size_t begin = w * per;
        const std::size_t end = std::min(begin + per, codes.size());
        auto bump = [&](std::size_t sub, std::size_t b) {
          if (b - lo < hot_n)  // unsigned wrap => b < lo also fails this
            ++hot[sub][b - lo];
          else
            ++h[b];
        };
        std::size_t i = begin;
        for (; i + 4 <= end; i += 4) {
          bump(0, codes[i]);
          bump(1, codes[i + 1]);
          bump(2, codes[i + 2]);
          bump(3, codes[i + 3]);
        }
        for (; i < end; ++i) bump(0, codes[i]);
        for (std::size_t s = 0; s < kInterleave; ++s)
          for (std::size_t j = 0; j < hot_n; ++j) h[lo + j] += hot[s][j];
      },
      1);
  return merge_histograms(parts, nworkers, nbins);
}

double byte_entropy(std::span<const std::byte> data) {
  if (data.empty()) return 0.0;
  // Banked byte histogram on the stack — samples are small (the chooser
  // caps them at a few hundred KiB), so one serial banked pass beats the
  // worker fan-out the code histograms need.
  std::array<std::uint32_t, kInterleave * 256> banks{};
  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  const std::size_t n = data.size();
  std::uint32_t* h0 = banks.data();
  std::uint32_t* h1 = banks.data() + 256;
  std::uint32_t* h2 = banks.data() + 512;
  std::uint32_t* h3 = banks.data() + 768;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++h0[p[i]];
    ++h1[p[i + 1]];
    ++h2[p[i + 2]];
    ++h3[p[i + 3]];
  }
  for (; i < n; ++i) ++h0[p[i]];

  const double inv_n = 1.0 / static_cast<double>(n);
  double bits = 0.0;
  for (std::size_t b = 0; b < 256; ++b) {
    const std::uint64_t c = static_cast<std::uint64_t>(h0[b]) + h1[b] +
                            h2[b] + h3[b];
    if (c == 0) continue;
    const double prob = static_cast<double>(c) * inv_n;
    bits -= prob * std::log2(prob);
  }
  return bits;
}

}  // namespace szi::huffman
