// G-Interp predictor round-trip and invariant tests (§V).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <tuple>
#include <vector>

#include "datagen/rng.hh"
#include "device/arena.hh"
#include "device/thread_pool.hh"
#include "metrics/stats.hh"
#include "predictor/anchor.hh"
#include "predictor/autotune.hh"
#include "predictor/ginterp.hh"
#include "predictor/interp_config.hh"
#include "quant/quantizer.hh"

namespace {

using szi::dev::Dim3;
using szi::predictor::anchor_dims;
using szi::predictor::autotune;
using szi::predictor::geometry_for;
using szi::predictor::ginterp_compress;
using szi::predictor::ginterp_decompress;
using szi::predictor::InterpConfig;

std::vector<float> smooth_field(const Dim3& dims, std::uint64_t seed) {
  szi::datagen::Rng rng(seed);
  const double fx = rng.uniform(0.5, 2.0), fy = rng.uniform(0.5, 2.0),
               fz = rng.uniform(0.5, 2.0);
  std::vector<float> v(dims.volume());
  for (std::size_t z = 0; z < dims.z; ++z)
    for (std::size_t y = 0; y < dims.y; ++y)
      for (std::size_t x = 0; x < dims.x; ++x)
        v[szi::dev::linearize(dims, x, y, z)] = static_cast<float>(
            std::sin(fx * x * 0.1) * std::cos(fy * y * 0.07) +
            0.5 * std::sin(fz * z * 0.05));
  return v;
}

std::vector<float> noisy_field(const Dim3& dims, std::uint64_t seed) {
  szi::datagen::Rng rng(seed);
  std::vector<float> v(dims.volume());
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

void roundtrip_expect_bounded(const std::vector<float>& data, const Dim3& dims,
                              double eb) {
  const auto prof = autotune(data, dims, eb);
  const auto enc = ginterp_compress(data, dims, eb, prof.config);
  const auto dec = ginterp_decompress(enc.codes, enc.anchors, enc.outliers,
                                      dims, eb, prof.config);
  ASSERT_EQ(dec.size(), data.size());
  EXPECT_TRUE(szi::metrics::error_bounded(data, dec, eb))
      << "max err " << szi::metrics::distortion(data, dec).max_err
      << " bound " << eb;
}

TEST(GInterp, RoundTrip3DSmooth) {
  const Dim3 dims{40, 33, 29};
  roundtrip_expect_bounded(smooth_field(dims, 1), dims, 1e-3);
}

TEST(GInterp, RoundTrip3DNoisy) {
  const Dim3 dims{37, 21, 18};
  roundtrip_expect_bounded(noisy_field(dims, 2), dims, 1e-2);
}

TEST(GInterp, RoundTrip2D) {
  const Dim3 dims{130, 77, 1};
  roundtrip_expect_bounded(smooth_field(dims, 3), dims, 1e-4);
}

TEST(GInterp, RoundTrip1D) {
  const Dim3 dims{3001, 1, 1};
  roundtrip_expect_bounded(smooth_field(dims, 4), dims, 1e-3);
}

TEST(GInterp, ExactOnAnchors) {
  const Dim3 dims{48, 24, 16};
  const auto data = smooth_field(dims, 5);
  const double eb = 1e-2;
  const InterpConfig cfg;  // default config, no tuning needed for exactness
  const auto enc = ginterp_compress(data, dims, eb, cfg);
  const auto dec = ginterp_decompress(enc.codes, enc.anchors, enc.outliers,
                                      dims, eb, cfg);
  const auto geo = geometry_for(dims);
  for (std::size_t z = 0; z < dims.z; z += geo.anchor.z)
    for (std::size_t y = 0; y < dims.y; y += geo.anchor.y)
      for (std::size_t x = 0; x < dims.x; x += geo.anchor.x) {
        const auto i = szi::dev::linearize(dims, x, y, z);
        EXPECT_EQ(data[i], dec[i]) << "anchor at " << x << "," << y << "," << z;
      }
}

TEST(GInterp, AnchorCountRoughlyOneIn512) {
  const Dim3 dims{256, 128, 64};
  const auto ad = anchor_dims(dims, geometry_for(dims).anchor);
  const double frac =
      static_cast<double>(ad.volume()) / static_cast<double>(dims.volume());
  // Exactly 1/512 for multiple-of-8 dims; slightly more with edge planes.
  EXPECT_GE(frac, 1.0 / 512);
  EXPECT_LT(frac, 1.35 / 512);
}

TEST(GInterp, PerfectPredictionOnLinearRamp) {
  // A linear ramp is reproduced exactly by every two-sided spline. With
  // anchor-aligned dims (8k+1: an anchor plane on both edges) every target
  // has both near neighbors, so all codes are the zero code and there are no
  // outliers. (Non-aligned dims legitimately fall back to one-sided copies
  // at the far edge.)
  const Dim3 dims{65, 33, 17};
  std::vector<float> data(dims.volume());
  for (std::size_t z = 0; z < dims.z; ++z)
    for (std::size_t y = 0; y < dims.y; ++y)
      for (std::size_t x = 0; x < dims.x; ++x)
        data[szi::dev::linearize(dims, x, y, z)] =
            static_cast<float>(x) + 2.0f * static_cast<float>(y) +
            0.5f * static_cast<float>(z);
  const double eb = 1e-3;
  const auto enc = ginterp_compress(data, dims, eb, InterpConfig{});
  EXPECT_EQ(enc.outliers.count(), 0u);
  std::size_t nonzero = 0;
  for (const auto c : enc.codes)
    if (c != szi::quant::kDefaultRadius) ++nonzero;
  EXPECT_EQ(nonzero, 0u);
}

TEST(GInterp, OutliersAreExact) {
  // Spiky data forces outliers; their reconstruction must be exact.
  const Dim3 dims{33, 17, 9};
  auto data = smooth_field(dims, 6);
  szi::datagen::Rng rng(7);
  std::vector<std::size_t> spikes;
  for (int k = 0; k < 40; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform() * data.size());
    data[i] += (rng.uniform() < 0.5 ? -1.0f : 1.0f) * 1e4f;
    spikes.push_back(i);
  }
  const double eb = 1e-4;
  const auto enc = ginterp_compress(data, dims, eb, InterpConfig{});
  EXPECT_GT(enc.outliers.count(), 0u);
  const auto dec = ginterp_decompress(enc.codes, enc.anchors, enc.outliers,
                                      dims, eb, InterpConfig{});
  EXPECT_TRUE(szi::metrics::error_bounded(data, dec, eb));
  for (const auto i : spikes) EXPECT_NEAR(data[i], dec[i], eb);
}

TEST(GInterp, RejectsBadArguments) {
  const Dim3 dims{8, 8, 8};
  std::vector<float> data(dims.volume());
  EXPECT_THROW(ginterp_compress(std::span<const float>(data.data(), 7), dims,
                                1e-3, InterpConfig{}),
               std::invalid_argument);
  EXPECT_THROW(ginterp_compress(data, dims, 0.0, InterpConfig{}),
               std::invalid_argument);
  EXPECT_THROW(ginterp_compress(data, dims, -1.0, InterpConfig{}),
               std::invalid_argument);
}

// Error-bound property sweep: every (shape, eb, field character) combination
// must produce a bounded reconstruction.
class GInterpSweep
    : public ::testing::TestWithParam<std::tuple<Dim3, double, bool>> {};

TEST_P(GInterpSweep, ErrorBoundHolds) {
  const auto& [dims, eb, noisy] = GetParam();
  const auto data =
      noisy ? noisy_field(dims, dims.volume()) : smooth_field(dims, dims.volume());
  roundtrip_expect_bounded(data, dims, eb);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndBounds, GInterpSweep,
    ::testing::Combine(
        ::testing::Values(Dim3{32, 32, 32}, Dim3{33, 9, 9}, Dim3{8, 8, 8},
                          Dim3{7, 7, 7}, Dim3{65, 33, 17}, Dim3{5, 3, 2},
                          Dim3{100, 10, 3}, Dim3{17, 1, 1}, Dim3{257, 129, 1},
                          Dim3{1024, 1, 1}),
        ::testing::Values(1e-1, 1e-2, 1e-3, 1e-4),
        ::testing::Bool()));

// The fused predict kernel indexes its private per-level histogram slots by
// launch loop index. Running it from inside an outer parallel_for makes its
// internal launch degrade to an inline walk (g_in_launch); the codes, the
// per-level streams and the folded per-level histograms must still come out
// identical to a top-level run.
TEST(GInterpFused, NestedLaunchMatchesTopLevel) {
  const Dim3 dims{96, 96, 48};
  const auto data = smooth_field(dims, 7);
  const double eb = 1e-3;
  const auto prof = autotune(data, dims, eb);

  // Codes, per-level streams and histograms, copied out of workspace
  // memory.
  struct Levels {
    std::vector<szi::quant::Code> codes;
    std::vector<std::vector<szi::quant::Code>> streams;
    std::vector<std::vector<std::uint32_t>> hists;
  };
  const auto run = [&](szi::dev::Workspace& ws) {
    const auto fl = szi::predictor::ginterp_compress_fused_levels(
        std::span<const float>(data), dims, eb, prof.config,
        szi::quant::kDefaultRadius, ws);
    Levels out;
    out.codes.assign(fl.pred.codes.begin(), fl.pred.codes.end());
    for (const auto& st : fl.levels.streams)
      out.streams.emplace_back(st.begin(), st.end());
    out.hists = fl.levels.histograms;
    return out;
  };

  szi::dev::Arena ref_arena;
  szi::dev::Workspace ref_ws(ref_arena);
  const Levels ref = run(ref_ws);
  ASSERT_FALSE(ref.streams.empty());

  std::vector<Levels> got(3);
  szi::dev::ThreadPool::instance().parallel_for(
      got.size(),
      [&](std::size_t i) {
        szi::dev::Arena arena;
        szi::dev::Workspace ws(arena);
        got[i] = run(ws);
      },
      1);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].hists, ref.hists) << "outer launch index " << i;
    EXPECT_EQ(got[i].codes, ref.codes) << "outer launch index " << i;
    EXPECT_EQ(got[i].streams, ref.streams) << "outer launch index " << i;
  }
}

// The closed-form level populations must tile the field exactly: every
// position is either an anchor or belongs to exactly one level, for smooth
// and awkward shapes alike (degenerate dims, odd extents, 1D/2D fields).
TEST(GInterpLevels, ClosedFormsTileTheVolume) {
  for (const auto& dims :
       {Dim3{32, 32, 32}, Dim3{33, 9, 9}, Dim3{7, 7, 7}, Dim3{65, 33, 17},
        Dim3{5, 3, 2}, Dim3{100, 10, 3}, Dim3{17, 1, 1}, Dim3{257, 129, 1},
        Dim3{1024, 1, 1}, Dim3{48, 40, 24}}) {
    SCOPED_TRACE(::testing::Message() << dims.x << "x" << dims.y << "x"
                                      << dims.z);
    const int nlevels = szi::predictor::ginterp_level_count(dims);
    ASSERT_GE(nlevels, 1);
    const std::size_t anchors =
        anchor_dims(dims, geometry_for(dims).anchor).volume();
    std::size_t sum = 0;
    for (int l = 1; l <= nlevels; ++l) {
      const std::size_t lv = szi::predictor::ginterp_level_volume(dims, l);
      // Level ℓ's positions are exactly the stride-2^(ℓ-1) grid minus the
      // stride-2^ℓ grid — the preview-dim volumes give the same closed form.
      const auto fine = szi::predictor::ginterp_preview_dims(dims, l);
      const auto coarse = szi::predictor::ginterp_preview_dims(dims, l + 1);
      EXPECT_EQ(lv, fine.volume() - coarse.volume()) << "level " << l;
      sum += lv;
    }
    EXPECT_EQ(sum + anchors, dims.volume());
    const auto top =
        szi::predictor::ginterp_preview_dims(dims, nlevels + 1);
    EXPECT_EQ(top.volume(), anchors);
    const auto full = szi::predictor::ginterp_preview_dims(dims, 1);
    EXPECT_EQ(full.volume(), dims.volume());
  }
}

// Split and scatter are exact inverses: re-bucketing a code array into
// per-level streams and scattering every stream back over a prefilled array
// must reproduce the original codes bit for bit, and each stream's length
// must match the closed-form level volume. The one-pass plane-parallel
// ginterp_scatter_levels must rebuild the same array from the same streams,
// for both precisions' code arrays, over odd, tiny, 2D (z = 1), 1x1xN and
// paper-size-plane (384x384) shapes.
TEST(GInterpLevels, SplitScatterRoundTrip) {
  for (const auto& dims :
       {Dim3{33, 9, 9}, Dim3{65, 33, 17}, Dim3{100, 10, 3}, Dim3{257, 129, 1},
        Dim3{7, 7, 7}, Dim3{5, 3, 2}, Dim3{2, 2, 2}, Dim3{1, 1, 1},
        Dim3{31, 17, 1}, Dim3{1024, 1, 1}, Dim3{1, 1, 300},
        Dim3{384, 384, 20}}) {
    SCOPED_TRACE(::testing::Message() << dims.x << "x" << dims.y << "x"
                                      << dims.z);
    const auto data = smooth_field(dims, dims.volume());
    const double eb = 1e-3;
    const auto prof = autotune(data, dims, eb);
    const int radius = szi::quant::kDefaultRadius;
    const auto enc =
        ginterp_compress(std::span<const float>(data), dims, eb, prof.config,
                         radius);

    szi::dev::Arena arena;
    szi::dev::Workspace ws(arena);
    const auto split = szi::predictor::ginterp_split_levels(
        enc.codes, dims, 2 * static_cast<std::size_t>(radius), ws);
    const int nlevels = szi::predictor::ginterp_level_count(dims);
    ASSERT_EQ(split.streams.size(), static_cast<std::size_t>(nlevels));

    std::vector<szi::quant::Code> rebuilt(
        dims.volume(), static_cast<szi::quant::Code>(radius));
    for (int l = 1; l <= nlevels; ++l) {
      const auto& stream = split.streams[static_cast<std::size_t>(l - 1)];
      EXPECT_EQ(stream.size(),
                szi::predictor::ginterp_level_volume(dims, l))
          << "level " << l;
      // Histogram of the stream must match a direct count.
      std::vector<std::uint32_t> hist(2 * static_cast<std::size_t>(radius), 0);
      for (const auto c : stream) ++hist[c];
      EXPECT_EQ(hist, split.histograms[static_cast<std::size_t>(l - 1)])
          << "level " << l;

      szi::predictor::LevelScatterCursor cur(dims, l);
      // Scatter in two uneven chunks to exercise resumability.
      const std::size_t half = stream.size() / 3;
      cur.advance(stream, half, rebuilt);
      const std::size_t mark = cur.advance(stream, stream.size(), rebuilt);
      EXPECT_EQ(cur.consumed(), stream.size()) << "level " << l;
      EXPECT_EQ(mark, dims.volume()) << "level " << l;
    }
    EXPECT_EQ(rebuilt, enc.codes);

    // A non-prefill starting value proves the scatter writes every position.
    const auto fill = static_cast<szi::quant::Code>(radius);
    const auto other = static_cast<szi::quant::Code>(fill + 1);
    std::vector<szi::quant::Code> scattered(dims.volume(), other);
    szi::predictor::ginterp_scatter_levels(dims, split.streams, fill,
                                           scattered);
    EXPECT_EQ(scattered, enc.codes);

    const std::vector<double> data64(data.begin(), data.end());
    const auto enc64 = ginterp_compress(std::span<const double>(data64), dims,
                                        eb, prof.config, radius);
    const auto split64 = szi::predictor::ginterp_split_levels(
        enc64.codes, dims, 2 * static_cast<std::size_t>(radius), ws);
    std::vector<szi::quant::Code> scattered64(dims.volume(), other);
    szi::predictor::ginterp_scatter_levels(dims, split64.streams, fill,
                                           scattered64);
    EXPECT_EQ(scattered64, enc64.codes);
  }
}

// The fused per-level emission must be byte-identical to splitting the full
// code array after the fact — streams, histograms, and the prefilled full
// array alike.
TEST(GInterpLevels, FusedLevelsMatchesSplit) {
  const Dim3 dims{96, 48, 48};
  const auto data = smooth_field(dims, 11);
  const double eb = 1e-3;
  const auto prof = autotune(data, dims, eb);
  const int radius = szi::quant::kDefaultRadius;

  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto fused = szi::predictor::ginterp_compress_fused_levels(
      std::span<const float>(data), dims, eb, prof.config, radius, ws);

  const auto ref = ginterp_compress(std::span<const float>(data), dims, eb,
                                    prof.config, radius);
  ASSERT_EQ(fused.pred.codes.size(), ref.codes.size());
  EXPECT_EQ(0, std::memcmp(fused.pred.codes.data(), ref.codes.data(),
                           ref.codes.size() * sizeof(szi::quant::Code)));

  szi::dev::Arena arena2;
  szi::dev::Workspace ws2(arena2);
  const auto split = szi::predictor::ginterp_split_levels(
      ref.codes, dims, 2 * static_cast<std::size_t>(radius), ws2);
  ASSERT_EQ(fused.levels.streams.size(), split.streams.size());
  for (std::size_t l = 0; l < split.streams.size(); ++l) {
    ASSERT_EQ(fused.levels.streams[l].size(), split.streams[l].size())
        << "level " << l + 1;
    EXPECT_EQ(0, std::memcmp(fused.levels.streams[l].data(),
                             split.streams[l].data(),
                             split.streams[l].size() *
                                 sizeof(szi::quant::Code)))
        << "level " << l + 1;
    EXPECT_EQ(fused.levels.histograms[l], split.histograms[l])
        << "level " << l + 1;
  }
}

// Partial reconstruction must agree with the subsample of the full decode at
// every level — passes at stride s only ever touch stride-s positions, so
// stopping early changes nothing on the coarse grid. The preview runs on its
// own lattice, so the shapes cover every geometry a lattice-scale slip could
// hide in: 3-D (odd, tiny, 1x1xN, degenerate x), 2-D (top stride 8, z = 1)
// and 1-D (top stride 256), in f32 and one in f64.
template <typename T>
void expect_preview_matches_subsample(const Dim3& dims) {
  SCOPED_TRACE(::testing::Message() << dims.x << "x" << dims.y << "x"
                                    << dims.z << " f" << 8 * sizeof(T));
  const auto f32 = smooth_field(dims, 5);
  const std::vector<T> data(f32.begin(), f32.end());
  const double eb = 1e-3;
  const auto prof = autotune(f32, dims, eb);
  const int radius = szi::quant::kDefaultRadius;
  const auto enc = ginterp_compress(std::span<const T>(data), dims, eb,
                                    prof.config, radius);
  const auto full = ginterp_decompress(enc.codes, enc.anchors, enc.outliers,
                                       dims, eb, prof.config, radius);

  const szi::quant::OutlierViewT<T> oview{enc.outliers.indices,
                                          enc.outliers.values};
  const int nlevels = szi::predictor::ginterp_level_count(dims);
  for (int l = 1; l <= nlevels + 1; ++l) {
    szi::dev::Arena arena;
    szi::dev::Workspace ws(arena);
    const auto part = szi::predictor::ginterp_decompress_to_level(
        enc.codes, std::span<const T>(enc.anchors), oview, dims, eb,
        prof.config, radius, l, ws);
    const auto sub =
        szi::predictor::ginterp_subsample(std::span<const T>(full), dims, l);
    ASSERT_EQ(part.size(), sub.size()) << "level " << l;
    EXPECT_EQ(0, std::memcmp(part.data(), sub.data(), sub.size() * sizeof(T)))
        << "level " << l;
  }
}

TEST(GInterpLevels, DecompressToLevelMatchesSubsample) {
  for (const auto& dims :
       {Dim3{65, 33, 17}, Dim3{300, 211, 1}, Dim3{70000, 1, 1},
        Dim3{1, 1, 300}, Dim3{1, 300, 211}, Dim3{2, 2, 2}, Dim3{5, 3, 2},
        Dim3{257, 9, 1}})
    expect_preview_matches_subsample<float>(dims);
  expect_preview_matches_subsample<double>(Dim3{100, 90, 20});
}

// The lround-based Quantizer::quantize body the call-free rounding
// replaced, kept verbatim as the reference it must reproduce.
template <typename T>
szi::quant::Quantizer::Result<T> quantize_lround(double eb, int radius,
                                                 T original, T predicted) {
  const double twice_eb = 2.0 * eb;
  const double inv_twice_eb = 1.0 / (2.0 * eb);
  const double err = static_cast<double>(original) - predicted;
  const auto q = static_cast<long>(std::lround(err * inv_twice_eb));
  if (q <= -radius || q >= radius)
    return {szi::quant::kOutlierMarker, original, true};
  const auto recon = static_cast<T>(static_cast<double>(predicted) +
                                    twice_eb * static_cast<double>(q));
  if (std::abs(static_cast<double>(original) - recon) > eb)
    return {szi::quant::kOutlierMarker, original, true};
  return {static_cast<szi::quant::Code>(q + radius), recon, false};
}

template <typename T>
void expect_matches_lround(double eb, int radius, T original, T predicted,
                           int& outliers, int& inliers) {
  const szi::quant::Quantizer qz(eb, radius);
  const auto got = qz.quantize(original, predicted);
  const auto want = quantize_lround(eb, radius, original, predicted);
  ASSERT_EQ(got.is_outlier, want.is_outlier)
      << "original " << original << " predicted " << predicted << " eb "
      << eb << " radius " << radius;
  ASSERT_EQ(got.stored, want.stored)
      << "original " << original << " predicted " << predicted << " eb "
      << eb << " radius " << radius;
  // Bitwise, so NaN recon (an outlier carrying its NaN original) compares.
  ASSERT_EQ(0, std::memcmp(&got.recon, &want.recon, sizeof(T)))
      << "original " << original << " predicted " << predicted << " eb "
      << eb << " radius " << radius;
  (got.is_outlier ? outliers : inliers) += 1;
}

template <typename T>
void quantizer_matches_lround() {
  using lim = std::numeric_limits<double>;
  int outliers = 0, inliers = 0;
  for (const int radius : {szi::quant::kDefaultRadius, 7}) {
    const double r = radius;
    // eb = 0.5 makes x = err * inv_twice_eb equal the error itself, so the
    // listed values are the rounding inputs (after the cast to T).
    std::vector<double> xs = {0.0,
                              -0.0,
                              0.5,
                              -0.5,
                              std::nextafter(0.5, 0.0),
                              -std::nextafter(0.5, 0.0),
                              0.49999999999999994,
                              lim::denorm_min(),
                              -lim::denorm_min(),
                              lim::min() / 4,
                              1e300,
                              -1e300,
                              lim::infinity(),
                              -lim::infinity(),
                              lim::quiet_NaN()};
    for (int k = 0; k <= radius; ++k) {
      xs.push_back(k + 0.5);
      xs.push_back(-(k + 0.5));
    }
    for (const double edge : {r - 0.5, r - 1.5, r + 0.5}) {
      for (const double v : {edge, std::nextafter(edge, 0.0),
                             std::nextafter(edge, lim::infinity())}) {
        xs.push_back(v);
        xs.push_back(-v);
      }
    }
    for (const double x : xs) {
      expect_matches_lround<T>(0.5, radius, static_cast<T>(x), T(0), outliers,
                               inliers);
      expect_matches_lround<T>(0.5, radius, static_cast<T>(3.25 + x),
                               static_cast<T>(3.25), outliers, inliers);
    }
    expect_matches_lround<T>(0.5, radius, std::numeric_limits<T>::max(),
                             -std::numeric_limits<T>::max(), outliers, inliers);
    expect_matches_lround<T>(0.5, radius, std::numeric_limits<T>::infinity(),
                             std::numeric_limits<T>::infinity(), outliers,
                             inliers);

    std::mt19937_64 rng(0x5eedULL + static_cast<std::uint64_t>(radius));
    std::uniform_real_distribution<double> around(-r - 2, r + 2);
    std::uniform_real_distribution<double> value(-1e3, 1e3);
    std::uniform_int_distribution<int> exponent(-12, 2);
    for (int i = 0; i < 20000; ++i) {
      expect_matches_lround<T>(0.5, radius, static_cast<T>(around(rng)), T(0),
                               outliers, inliers);
      const double eb = std::ldexp(1.0, exponent(rng)) * (1 + value(rng) / 2e3);
      const auto pred = static_cast<T>(value(rng));
      const auto orig =
          static_cast<T>(static_cast<double>(pred) + 2 * eb * around(rng));
      expect_matches_lround<T>(eb, radius, orig, pred, outliers, inliers);
    }
  }
  // Both outcomes are exercised, not just one side of the bound.
  EXPECT_GT(outliers, 1000);
  EXPECT_GT(inliers, 1000);
}

TEST(Quantizer, MatchesLroundReference) {
  quantizer_matches_lround<float>();
  quantizer_matches_lround<double>();
}

}  // namespace
