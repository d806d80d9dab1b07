// Interior/rim equivalence tests: the optimized predictor kernels
// (branchless interior walk + guarded boundary rim, hoisted dispatch,
// incremental indices) must be *byte-identical* to the retained naive
// formulations in tests/reference.cc — same quant codes, anchors,
// outliers, and reconstruction bits on every shape, because the
// optimization only restructures control flow, never the arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "datagen/rng.hh"
#include "predictor/autotune.hh"
#include "predictor/ginterp.hh"
#include "predictor/lorenzo.hh"
#include "reference.hh"
#include "reference_pipeline.hh"

namespace {

using szi::dev::Dim3;
using szi::predictor::InterpConfig;

// Shapes chosen to exercise every rim case: odd/even extents, dims smaller
// than one 32x8x8 tile, single-element axes (2D/1D degeneration), extents
// that leave 1-wide tile remainders, and multi-tile grids.
const Dim3 kShapes[] = {
    {40, 33, 29},  // odd extents, partial tiles on every axis
    {64, 16, 16},  // exact multiples of the tile
    {33, 9, 9},    // one tile plus a 1-wide remainder on each axis
    {7, 5, 3},     // smaller than one tile in every dimension
    {1, 1, 1},     // degenerate single point
    {257, 3, 1},   // 2D with a tiny y extent
    {100, 1, 1},   // 1D
    {2, 2, 2},     // tiny even cube
    {31, 8, 7},    // just under the tile on x and z
};

template <typename T>
std::vector<T> smooth_field(const Dim3& dims, std::uint64_t seed) {
  szi::datagen::Rng rng(seed);
  const double fx = rng.uniform(0.5, 2.0), fy = rng.uniform(0.5, 2.0),
               fz = rng.uniform(0.5, 2.0);
  std::vector<T> v(dims.volume());
  for (std::size_t z = 0; z < dims.z; ++z)
    for (std::size_t y = 0; y < dims.y; ++y)
      for (std::size_t x = 0; x < dims.x; ++x)
        v[szi::dev::linearize(dims, x, y, z)] = static_cast<T>(
            std::sin(fx * x * 0.1) * std::cos(fy * y * 0.07) +
            0.5 * std::sin(fz * z * 0.05) + 0.05 * rng.gaussian());
  return v;
}

template <typename T>
void expect_bit_equal(const std::vector<T>& got, const std::vector<T>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (got.empty()) return;  // memcmp must not see an empty vector's null data
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(T)))
      << what << " differ";
}

template <typename T>
void check_ginterp(const Dim3& dims, double eb, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "dims " << dims.x << "x" << dims.y
                                    << "x" << dims.z << " eb " << eb);
  const auto data = smooth_field<T>(dims, seed);
  const auto prof = szi::predictor::autotune(data, dims, eb);

  const auto opt = szi::predictor::ginterp_compress(data, dims, eb, prof.config);
  const auto ref =
      szi::predictor::reference::ginterp_compress(data, dims, eb, prof.config);

  expect_bit_equal(opt.codes, ref.codes, "quant codes");
  expect_bit_equal(opt.anchors, ref.anchors, "anchors");
  expect_bit_equal(opt.outliers.indices, ref.outliers.indices,
                   "outlier indices");
  expect_bit_equal(opt.outliers.values, ref.outliers.values, "outlier values");

  const auto opt_dec = szi::predictor::ginterp_decompress(
      opt.codes, opt.anchors, opt.outliers, dims, eb, prof.config);
  const auto ref_dec = szi::predictor::reference::ginterp_decompress(
      ref.codes, ref.anchors, ref.outliers, dims, eb, prof.config);
  expect_bit_equal(opt_dec, ref_dec, "reconstruction");
}

TEST(PredictorEquiv, GInterpF32MatchesReferenceAcrossShapes) {
  std::uint64_t seed = 100;
  for (const auto& dims : kShapes) check_ginterp<float>(dims, 1e-3, seed++);
}

TEST(PredictorEquiv, GInterpF64MatchesReferenceAcrossShapes) {
  std::uint64_t seed = 200;
  for (const auto& dims : kShapes) check_ginterp<double>(dims, 1e-4, seed++);
}

TEST(PredictorEquiv, GInterpTightBoundMatchesReference) {
  // Tight bound => many outliers, exercising the stored-code border path.
  check_ginterp<float>({40, 33, 29}, 1e-6, 7);
  check_ginterp<float>({33, 9, 9}, 1e-6, 8);
}

TEST(PredictorEquiv, GInterpNonDefaultConfigMatchesReference) {
  // Force a fixed config (every cubic kind + a non-identity dim order) so the
  // equivalence does not depend on what autotune happens to pick.
  InterpConfig cfg;
  cfg.dim_order = {2, 0, 1};
  cfg.cubic = {szi::predictor::CubicKind::NotAKnot,
               szi::predictor::CubicKind::Natural,
               szi::predictor::CubicKind::NotAKnot};
  cfg.alpha = 1.5;
  for (const auto& dims : kShapes) {
    SCOPED_TRACE(::testing::Message()
                 << "dims " << dims.x << "x" << dims.y << "x" << dims.z);
    const auto data = smooth_field<float>(dims, 300);
    const auto opt = szi::predictor::ginterp_compress(data, dims, 1e-3, cfg);
    const auto ref =
        szi::predictor::reference::ginterp_compress(data, dims, 1e-3, cfg);
    expect_bit_equal(opt.codes, ref.codes, "quant codes");
    expect_bit_equal(opt.outliers.values, ref.outliers.values,
                     "outlier values");
  }
}

TEST(PredictorEquiv, LorenzoMatchesReferenceAcrossShapes) {
  std::uint64_t seed = 400;
  for (const auto& dims : kShapes) {
    SCOPED_TRACE(::testing::Message()
                 << "dims " << dims.x << "x" << dims.y << "x" << dims.z);
    const auto data = smooth_field<float>(dims, seed++);
    const auto opt = szi::predictor::lorenzo_compress(data, dims, 1e-3);
    const auto ref =
        szi::predictor::reference::lorenzo_compress(data, dims, 1e-3);
    expect_bit_equal(opt.codes, ref.codes, "quant codes");
    expect_bit_equal(opt.outliers.indices, ref.outliers.indices,
                     "outlier indices");
    expect_bit_equal(opt.outliers.values, ref.outliers.values,
                     "outlier values");
  }
}

TEST(PredictorEquiv, LorenzoTightBoundMatchesReference) {
  const Dim3 dims{40, 33, 29};
  const auto data = smooth_field<float>(dims, 500);
  const auto opt = szi::predictor::lorenzo_compress(data, dims, 1e-7);
  const auto ref =
      szi::predictor::reference::lorenzo_compress(data, dims, 1e-7);
  expect_bit_equal(opt.codes, ref.codes, "quant codes");
  expect_bit_equal(opt.outliers.values, ref.outliers.values, "outlier values");
}

}  // namespace
