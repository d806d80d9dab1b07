// Interior/rim equivalence tests: the optimized predictor kernels
// (branchless interior walk + guarded boundary rim, hoisted dispatch,
// incremental indices) must be *byte-identical* to the retained naive
// formulations in tests/reference.cc — same quant codes, anchors,
// outliers, and reconstruction bits on every shape, because the
// optimization only restructures control flow, never the arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
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

// Every dim order with every per-dim cubic kind (8 masks): each spline case
// at both local strides of the vector rows, and the x pass on tiles of x
// extent 33 and 32 (64 and 65 wide) beside the scalar rims of odd shapes.
std::vector<InterpConfig> all_configs() {
  std::vector<InterpConfig> out;
  std::array<std::uint8_t, 3> order = {0, 1, 2};
  do {
    for (unsigned mask = 0; mask < 8; ++mask) {
      InterpConfig cfg;
      cfg.dim_order = order;
      for (unsigned d = 0; d < 3; ++d)
        cfg.cubic[d] = (mask >> d) & 1u ? szi::predictor::CubicKind::Natural
                                        : szi::predictor::CubicKind::NotAKnot;
      cfg.alpha = 1.5;
      out.push_back(cfg);
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return out;
}

/// Small integers: at eb 0.25 the not-a-knot, quadratic and linear
/// predictions of the finest level are multiples of 1/16, so the quantizer
/// meets exact ±0.5 fractions and must round them away from zero.
template <typename T>
std::vector<T> integer_field(const Dim3& dims, std::uint64_t seed) {
  auto v = smooth_field<T>(dims, seed);
  for (auto& x : v) x = static_cast<T>(std::round(20.0 * x));
  return v;
}

/// A smooth field sprinkled with NaN, ±Inf, ±3e38, a denormal and -0,
/// beside a corner block of -0 holding slightly negative values, so the
/// vector rows meet predictions of -0 and codes of 0.
template <typename T>
std::vector<T> special_field(const Dim3& dims, std::uint64_t seed) {
  auto v = smooth_field<T>(dims, seed);
  for (std::size_t z = 0; z < dims.z; ++z)
    for (std::size_t y = 0; y < (dims.y + 1) / 2; ++y)
      for (std::size_t x = 0; x < (dims.x + 1) / 2; ++x) {
        const std::size_t i = szi::dev::linearize(dims, x, y, z);
        v[i] = static_cast<T>(i % 5 == 0 ? -1e-4 : -0.0);
      }
  const T specials[] = {std::numeric_limits<T>::quiet_NaN(),
                        std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity(),
                        static_cast<T>(3e38),
                        static_cast<T>(-3e38),
                        std::numeric_limits<T>::denorm_min() * 3,
                        static_cast<T>(-0.0)};
  std::size_t k = 0;
  for (std::size_t i = seed % 5; i < v.size(); i += 11 + (i % 7))
    v[i] = specials[k++ % std::size(specials)];
  return v;
}

/// Values near ±1.5e37, where one f32 ulp (2^100, about 1.27e30) lies
/// between eb and 2 eb at eb 1e30: the codes are mostly in range, yet
/// rounding the reconstruction to f32 often lands one ulp from the
/// original, past eb: the quantizer's second outlier fallback. (Near 3e37
/// the ulp exceeds 2 eb and the rounding always lands on the original.)
template <typename T>
std::vector<T> huge_field(const Dim3& dims, std::uint64_t seed) {
  auto v = smooth_field<T>(dims, seed);
  szi::datagen::Rng rng(seed + 1);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double sign = (i / 97) % 2 ? -1.0 : 1.0;
    v[i] = static_cast<T>(sign * 1.5e37 *
                          (1.0 + 1e-5 * v[i] + 1e-6 * rng.gaussian()));
  }
  return v;
}

/// The fused kernel and the slab reconstructor against the naive reference
/// over every shape, config and adversarial field: codes, outliers and the
/// reconstruction bit for bit. Reports the first few differing runs and
/// how many of all differ.
template <typename T>
void check_adversarial(std::uint64_t seed) {
  const Dim3 shapes[] = {{40, 33, 29}, {64, 16, 16}, {33, 9, 9},
                         {7, 5, 3},    {1, 1, 1},    {257, 3, 1},
                         {100, 1, 1},  {2, 2, 2},    {31, 8, 7},
                         {65, 24, 17}};
  struct Field {
    const char* name;
    std::vector<T> (*make)(const Dim3&, std::uint64_t);
    double eb;
  };
  const Field fields[] = {{"integer", integer_field<T>, 0.25},
                          {"special", special_field<T>, 1e-3},
                          {"huge", huge_field<T>, 1e30}};
  const auto configs = all_configs();
  std::size_t runs = 0, failed = 0;
  for (const auto& dims : shapes)
    for (const auto& f : fields) {
      const auto data = f.make(dims, seed++);
      for (const auto& cfg : configs) {
        ++runs;
        const auto opt = szi::predictor::ginterp_compress(data, dims, f.eb, cfg);
        const auto ref =
            szi::predictor::reference::ginterp_compress(data, dims, f.eb, cfg);
        const auto same = [](const auto& a, const auto& b) {
          return a.size() == b.size() &&
                 (a.empty() || std::memcmp(a.data(), b.data(),
                                           a.size() * sizeof(a[0])) == 0);
        };
        bool ok = same(opt.codes, ref.codes) &&
                  same(opt.outliers.indices, ref.outliers.indices) &&
                  same(opt.outliers.values, ref.outliers.values);
        if (ok)
          ok = same(szi::predictor::ginterp_decompress(
                        opt.codes, opt.anchors, opt.outliers, dims, f.eb, cfg),
                    szi::predictor::reference::ginterp_decompress(
                        ref.codes, ref.anchors, ref.outliers, dims, f.eb,
                        cfg));
        if (!ok && ++failed <= 5)
          ADD_FAILURE() << f.name << " field, dims " << dims.x << "x"
                        << dims.y << "x" << dims.z << ", order "
                        << int(cfg.dim_order[0]) << int(cfg.dim_order[1])
                        << int(cfg.dim_order[2]) << ", natural x/y/z "
                        << (cfg.cubic[0] == szi::predictor::CubicKind::Natural)
                        << (cfg.cubic[1] == szi::predictor::CubicKind::Natural)
                        << (cfg.cubic[2] == szi::predictor::CubicKind::Natural);
      }
    }
  EXPECT_EQ(failed, 0u) << "runs differing from the reference, of " << runs;
}

TEST(PredictorEquiv, GInterpNonDefaultConfigMatchesReference) {
  check_adversarial<float>(300);
}

TEST(PredictorEquiv, GInterpNonDefaultConfigF64MatchesReference) {
  check_adversarial<double>(600);
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
