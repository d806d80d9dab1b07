// Two-sided uniform error quantization — the "error quantization" stage of
// the cuSZ / cuSZ-i pipelines (§III-A, §IV).
//
// A prediction error is mapped to an integer quant-code q = round(err/2eb);
// the reconstruction pred + 2eb*q is within eb of the original. Codes with
// |q| >= radius are "outliers" (§VI-A): the original value is stored
// losslessly on the side and the stored code becomes the reserved marker 0.
// Non-outlier codes are stored biased by +radius, so the code stream is
// unsigned and centered at `radius` — the centralization §VI-A exploits.
//
// All reconstruction arithmetic runs in double and is truncated to the
// value type T (float or double), mirroring the precision behaviour of the
// GPU kernels.
#pragma once

#include <cmath>
#include <cstdint>

namespace szi::quant {

using Code = std::uint16_t;

/// Reserved stored-code announcing "reconstruction comes from the outlier
/// store, not from prediction".
inline constexpr Code kOutlierMarker = 0;

/// Default quantization radius (cuSZ's dictionary size 1024 / 2).
inline constexpr int kDefaultRadius = 512;

class Quantizer {
 public:
  /// `eb` is the absolute error bound for this stage (G-Interp passes a
  /// per-level bound here); `radius` bounds representable codes.
  Quantizer(double eb, int radius = kDefaultRadius)
      : eb_(eb), twice_eb_(2.0 * eb), inv_twice_eb_(1.0 / (2.0 * eb)),
        code_limit_(radius - 0.5), radius_(radius) {}

  [[nodiscard]] double eb() const { return eb_; }
  [[nodiscard]] int radius() const { return radius_; }
  /// The constants quantize() and dequantize() compute with, for vector
  /// kernels that replicate them lane by lane.
  [[nodiscard]] double twice_eb() const { return twice_eb_; }
  [[nodiscard]] double inv_twice_eb() const { return inv_twice_eb_; }
  [[nodiscard]] double code_limit() const { return code_limit_; }

  template <typename T>
  struct Result {
    Code stored;       ///< biased code, or kOutlierMarker
    T recon;           ///< value the decompressor will reproduce
    bool is_outlier;
  };

  /// Quantizes one prediction. On outlier, recon is the exact original (the
  /// decompressor scatters it from the outlier store before prediction).
  template <typename T>
  [[nodiscard]] Result<T> quantize(T original, T predicted) const {
    const double err = static_cast<double>(original) - predicted;
    // q = std::lround(x) without the libm call. |lround(x)| >= radius
    // exactly when |x| >= radius - 0.5, and NaN/±Inf fail the comparison,
    // so every outlier is caught before the conversion; below that bound
    // x - trunc(x) is the exact fraction and the ±0.5 test rounds half away
    // from zero, as lround does.
    const double x = err * inv_twice_eb_;
    if (!(std::abs(x) < code_limit_)) return {kOutlierMarker, original, true};
    auto q = static_cast<long>(x);
    const double frac = x - static_cast<double>(q);
    if (frac >= 0.5)
      ++q;
    else if (frac <= -0.5)
      --q;
    const auto recon = static_cast<T>(
        static_cast<double>(predicted) + twice_eb_ * static_cast<double>(q));
    // Rounding of the reconstruction to T can nudge the error past eb for
    // huge magnitudes; fall back to outlier in that rare case.
    if (std::abs(static_cast<double>(original) - recon) > eb_)
      return {kOutlierMarker, original, true};
    return {static_cast<Code>(q + radius_), recon, false};
  }

  /// Inverse mapping. `scattered` is the working-buffer value at this
  /// position (holds the exact original when `stored` is the marker).
  template <typename T>
  [[nodiscard]] T dequantize(Code stored, T predicted, T scattered) const {
    if (stored == kOutlierMarker) return scattered;
    const long q = static_cast<long>(stored) - radius_;
    return static_cast<T>(static_cast<double>(predicted) +
                          twice_eb_ * static_cast<double>(q));
  }

 private:
  double eb_;
  double twice_eb_;
  double inv_twice_eb_;
  double code_limit_;  ///< radius - 0.5: |x| at or past it is an outlier
  int radius_;
};

}  // namespace szi::quant
