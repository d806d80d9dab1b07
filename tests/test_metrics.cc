// Metrics unit tests: PSNR/NRMSE math against hand-computed values,
// error-bound verification edges, size accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "metrics/stats.hh"

namespace {

using szi::metrics::bit_rate;
using szi::metrics::compression_ratio;
using szi::metrics::distortion;
using szi::metrics::error_bounded;
using szi::metrics::value_range;

TEST(Metrics, DistortionKnownValues) {
  // orig in [0, 3] (range 3), every error exactly 0.1 -> mse 0.01,
  // psnr = 20 log10(3) - 10 log10(0.01) = 9.542 + 20 = 29.542.
  std::vector<float> orig{0.0f, 1.0f, 2.0f, 3.0f};
  std::vector<float> recon{0.1f, 1.1f, 2.1f, 3.1f};
  const auto d = distortion(orig, recon);
  EXPECT_NEAR(d.mse, 0.01, 1e-6);
  EXPECT_NEAR(d.range, 3.0, 1e-9);
  EXPECT_NEAR(d.max_err, 0.1, 1e-6);
  EXPECT_NEAR(d.psnr, 20.0 * std::log10(3.0) + 20.0, 1e-3);
  EXPECT_NEAR(d.nrmse, 0.1 / 3.0, 1e-6);

  // A NaN where the original is finite is an unbounded error, not a skipped
  // position; NaN in both is a match.
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> finite{1.0f, 2.0f, 3.0f};
  const std::vector<float> holed{1.0f, kNaN, 3.0f};
  const auto dn = distortion(finite, holed);
  EXPECT_TRUE(std::isinf(dn.max_err) && dn.max_err > 0);
  EXPECT_FALSE(std::isnan(dn.psnr));
  const auto both = distortion(holed, holed);
  EXPECT_EQ(both.max_err, 0.0);
  EXPECT_EQ(both.mse, 0.0);
}

TEST(Metrics, PerfectReconstructionIsInfinitePsnr) {
  std::vector<float> v{1.0f, 2.0f, 5.0f};
  const auto d = distortion(v, v);
  EXPECT_TRUE(std::isinf(d.psnr));
  EXPECT_EQ(d.max_err, 0.0);
}

TEST(Metrics, DistortionRejectsSizeMismatch) {
  std::vector<float> a(4), b(5);
  EXPECT_THROW((void)distortion(a, b), std::invalid_argument);
}

TEST(Metrics, ErrorBoundedEdges) {
  std::vector<float> orig{1.0f, 2.0f};
  std::vector<float> within{1.0009f, 1.9991f};
  std::vector<float> outside{1.02f, 2.0f};
  EXPECT_TRUE(error_bounded(orig, within, 1e-3));
  EXPECT_FALSE(error_bounded(orig, outside, 1e-3));
  std::vector<float> other(3);
  EXPECT_FALSE(error_bounded(orig, other, 1.0));  // size mismatch

  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> finite{1.0f, 2.0f, 3.0f};
  const std::vector<float> holed{1.0f, kNaN, 3.0f};
  const std::vector<float> blown{1.0f, kInf, 3.0f};
  EXPECT_FALSE(error_bounded(finite, holed, 1e-3));  // NaN where finite
  EXPECT_FALSE(error_bounded(holed, finite, 1e-3));  // NaN lost
  EXPECT_FALSE(error_bounded(finite, blown, 1e-3));  // Inf where finite
  EXPECT_FALSE(error_bounded(blown, holed, 1e-3));   // Inf became NaN
  EXPECT_FALSE(error_bounded(blown, std::vector<float>{1.0f, -kInf, 3.0f},
                             1e-3));                  // sign of Inf lost
  EXPECT_TRUE(error_bounded(holed, holed, 1e-3));    // NaN kept
  EXPECT_TRUE(error_bounded(blown, blown, 1e-3));    // Inf kept
}

TEST(Metrics, ErrorBoundedUlpToleranceScalesWithMagnitude) {
  // A half-ulp overshoot at magnitude 1e6 (ulp ~ 0.06) must pass even for a
  // tiny absolute bound — the documented GPU float-arithmetic allowance.
  std::vector<float> orig{1.0e6f};
  std::vector<float> recon{std::nextafter(1.0e6f, 2.0e6f)};
  EXPECT_TRUE(error_bounded(orig, recon, 1e-6));
}

TEST(Metrics, ValueRange) {
  std::vector<float> v{-2.0f, 5.0f, 1.0f};
  EXPECT_DOUBLE_EQ(value_range(v), 7.0);
  EXPECT_DOUBLE_EQ(value_range(std::vector<float>{}), 0.0);
  std::vector<double> dv{-2.0, 5.0, 1.0};
  EXPECT_DOUBLE_EQ(value_range(dv), 7.0);
}

TEST(Metrics, RatioAndBitRate) {
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 100), 10.0);
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 0), 0.0);
  // 1M floats -> 1 MB compressed = 8 bits/value; 32/CR identity.
  EXPECT_DOUBLE_EQ(bit_rate(1u << 20, 1u << 20), 8.0);
  EXPECT_DOUBLE_EQ(bit_rate(0, 10), 0.0);
  const double cr = compression_ratio((1u << 20) * 4, 1u << 20);
  EXPECT_DOUBLE_EQ(32.0 / cr, bit_rate(1u << 20, 1u << 20));
}

TEST(Metrics, DoubleOverloadsAgreeWithFloat) {
  std::vector<float> of{0.5f, 1.5f, 2.5f};
  std::vector<float> rf{0.6f, 1.4f, 2.5f};
  std::vector<double> od(of.begin(), of.end());
  std::vector<double> rd(rf.begin(), rf.end());
  const auto df = distortion(of, rf);
  const auto dd = distortion(od, rd);
  EXPECT_NEAR(df.psnr, dd.psnr, 1e-4);
  EXPECT_NEAR(df.max_err, dd.max_err, 1e-7);
}

}  // namespace
