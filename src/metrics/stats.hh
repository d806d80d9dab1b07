// Quality and size metrics used throughout the paper's evaluation (§VII-B):
// value range, PSNR, NRMSE, max error, compression ratio, bit rate.
#pragma once

#include <cstddef>
#include <span>

namespace szi::metrics {

/// Summary of the distortion between an original and a reconstruction.
struct Distortion {
  double psnr = 0;      ///< 20*log10(range) - 10*log10(mse)
  double nrmse = 0;     ///< sqrt(mse)/range
  double max_err = 0;   ///< max |orig - recon|; +inf on a non-finite mismatch
  double mse = 0;
  double range = 0;     ///< max(orig) - min(orig)
};

/// Computes all distortion metrics in one parallel pass.
[[nodiscard]] Distortion distortion(std::span<const float> original,
                                    std::span<const float> reconstructed);
[[nodiscard]] Distortion distortion(std::span<const double> original,
                                    std::span<const double> reconstructed);

/// max - min of `data` (the denominator of value-range-relative error bounds).
[[nodiscard]] double value_range(std::span<const float> data);
[[nodiscard]] double value_range(std::span<const double> data);

/// True iff every position is equal, NaN in both, or finite with
/// |orig-recon| <= bound*(1+slack) + a few float ulps of the operand
/// magnitude. The ulp term matches what GPU compressors guarantee:
/// all reconstruction arithmetic is single-precision, so a value far from
/// zero can overshoot a tiny absolute bound by half an ulp (cuSZ's
/// dual-quant scale-back does exactly this).
[[nodiscard]] bool error_bounded(std::span<const float> original,
                                 std::span<const float> reconstructed,
                                 double bound, double slack = 1e-6);
[[nodiscard]] bool error_bounded(std::span<const double> original,
                                 std::span<const double> reconstructed,
                                 double bound, double slack = 1e-6);

/// original bytes / compressed bytes.
[[nodiscard]] constexpr double compression_ratio(std::size_t original_bytes,
                                                 std::size_t compressed_bytes) {
  return compressed_bytes == 0
             ? 0.0
             : static_cast<double>(original_bytes) /
                   static_cast<double>(compressed_bytes);
}

/// Average compressed bits per input element (32 / CR for f32 inputs).
[[nodiscard]] constexpr double bit_rate(std::size_t n_elements,
                                        std::size_t compressed_bytes) {
  return n_elements == 0 ? 0.0
                         : 8.0 * static_cast<double>(compressed_bytes) /
                               static_cast<double>(n_elements);
}

}  // namespace szi::metrics
