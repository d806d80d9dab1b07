// Fig. 5 reproduction: counts of nonzero quant-codes produced by CPU SZ3,
// GPU G-Interp, and GPU Lorenzo on Miranda/pressure at relative error
// bounds 1e-3 and 1e-4. Fewer (and smaller-amplitude) nonzero codes mean a
// more concentrated histogram and a higher ratio after Huffman — the
// paper's §V-E showcase of why G-Interp wins.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "baselines/cpu_interp.hh"
#include "bench_common.hh"
#include "predictor/autotune.hh"
#include "predictor/ginterp.hh"
#include "predictor/lorenzo.hh"
#include "reference_pipeline.hh"

namespace {

using namespace szi;

struct CodeStats {
  std::size_t nonzero = 0;
  double nonzero_pct = 0;
  double mean_abs = 0;  ///< mean |q| over nonzero codes
  std::size_t outliers = 0;
};

CodeStats stats_of(const std::vector<quant::Code>& codes, int radius,
                   std::size_t outlier_count) {
  CodeStats s;
  s.outliers = outlier_count;
  double sum_abs = 0;
  for (const auto c : codes) {
    if (c == quant::kOutlierMarker) continue;
    const int q = static_cast<int>(c) - radius;
    if (q != 0) {
      ++s.nonzero;
      sum_abs += std::abs(q);
    }
  }
  s.nonzero += outlier_count;
  s.nonzero_pct = 100.0 * static_cast<double>(s.nonzero) /
                  static_cast<double>(codes.size());
  s.mean_abs = s.nonzero > 0 ? sum_abs / static_cast<double>(s.nonzero) : 0;
  return s;
}

void print_row(const char* name, const CodeStats& s) {
  std::printf("%-14s %12zu %9.3f%% %12.2f %10zu\n", name, s.nonzero,
              s.nonzero_pct, s.mean_abs, s.outliers);
}

}  // namespace

int main() {
  std::printf("Fig. 5: nonzero quant-codes on Miranda/pressure\n\n");
  const auto& fields = bench::dataset("miranda");
  const Field* pressure = nullptr;
  for (const auto& f : fields)
    if (f.name == "pressure") pressure = &f;
  if (!pressure) {
    std::fprintf(stderr, "missing pressure field\n");
    return 1;
  }
  const Field& f = *pressure;
  const double range = metrics::value_range(f.data);

  for (const double rel : {1e-3, 1e-4}) {
    const double eb = rel * range;
    std::printf("relative eb = %.0e  (n = %zu)\n", rel, f.size());
    std::printf("%-14s %12s %10s %12s %10s\n", "predictor", "nonzero q",
                "pct", "mean |q|", "outliers");
    bench::print_rule(64);

    // CPU SZ3 (global interpolation, the paper's reference).
    {
      baselines::CpuInterpParams ip;
      ip.anchor_stride = baselines::pow2_at_least(
          std::max({f.dims.x, f.dims.y, f.dims.z}));
      ip.alpha = 1.0;
      const auto out = baselines::cpu_interp_compress(f.data, f.dims, eb, ip);
      print_row("SZ3 (CPU)", stats_of(out.codes, ip.radius, out.outliers.count()));
    }
    // G-Interp (cuSZ-i).
    {
      const auto prof = predictor::autotune(f.data, f.dims, eb);
      const auto out = predictor::ginterp_compress(f.data, f.dims, eb,
                                                   prof.config);
      print_row("G-Interp (GPU)",
                stats_of(out.codes, quant::kDefaultRadius, out.outliers.count()));
    }
    // Lorenzo (cuSZ).
    {
      const auto out = predictor::lorenzo_compress(f.data, f.dims, eb);
      print_row("Lorenzo (GPU)",
                stats_of(out.codes, quant::kDefaultRadius, out.outliers.count()));
    }
    std::printf("\n");
  }
  std::printf(
      "Shape target: G-Interp produces far fewer / smaller nonzero codes\n"
      "than Lorenzo and approaches CPU SZ3 (paper Fig. 5).\n");
  return 0;
}
