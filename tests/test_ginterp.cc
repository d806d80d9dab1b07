// G-Interp predictor round-trip and invariant tests (§V).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/bytes.hh"
#include "datagen/rng.hh"
#include "device/arena.hh"
#include "device/thread_pool.hh"
#include "metrics/stats.hh"
#include "predictor/anchor.hh"
#include "predictor/autotune.hh"
#include "predictor/ginterp.hh"
#include "predictor/interp_config.hh"
#include "quant/outlier.hh"
#include "quant/quantizer.hh"
#include "reference.hh"
#include "reference_pipeline.hh"

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
// internal launch degrade to an inline walk (g_in_launch); the per-level
// streams (the kernel's only code output) and the folded per-level
// histograms must still come out identical to a top-level run.
TEST(GInterpFused, NestedLaunchMatchesTopLevel) {
  const Dim3 dims{96, 96, 48};
  const auto data = smooth_field(dims, 7);
  const double eb = 1e-3;
  const auto prof = autotune(data, dims, eb);

  // Per-level streams and histograms, copied out of workspace memory.
  struct Levels {
    std::vector<std::vector<szi::quant::Code>> streams;
    std::vector<std::vector<std::uint32_t>> hists;
  };
  const auto run = [&](szi::dev::Workspace& ws) {
    const auto fl = szi::predictor::ginterp_compress_fused_levels(
        std::span<const float>(data), dims, eb, prof.config,
        szi::quant::kDefaultRadius, ws);
    Levels out;
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

// The fused per-level emission must be byte-identical to splitting the naive
// kernel's full code array after the fact — streams, histograms, and the
// full array the streams scatter back to alike. Each tile's codes pass
// through a tile-local array shaped by the geometry's tile (32x8x8, 16x16x1,
// 512x1x1) and clipped at the field's far edges, so the inputs cover all
// three geometries, partial tiles on every axis, degenerate axes, a noisy
// field full of outliers and one f64 field.
template <typename T>
void expect_fused_levels_match_split(const Dim3& dims,
                                     const std::vector<float>& f32) {
  SCOPED_TRACE(::testing::Message() << dims.x << "x" << dims.y << "x"
                                    << dims.z << " f" << 8 * sizeof(T));
  const std::vector<T> data(f32.begin(), f32.end());
  const double eb = 1e-3;
  const auto prof = autotune(f32, dims, eb);
  const int radius = szi::quant::kDefaultRadius;

  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto fused = szi::predictor::ginterp_compress_fused_levels(
      std::span<const T>(data), dims, eb, prof.config, radius, ws);

  const auto ref = szi::predictor::reference::ginterp_compress(
      std::span<const T>(data), dims, eb, prof.config, radius);
  std::vector<szi::quant::Code> scattered(dims.volume());
  szi::predictor::ginterp_scatter_levels(
      dims, fused.levels.streams, static_cast<szi::quant::Code>(radius),
      scattered);
  ASSERT_EQ(scattered.size(), ref.codes.size());
  EXPECT_EQ(0, std::memcmp(scattered.data(), ref.codes.data(),
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

TEST(GInterpLevels, FusedLevelsMatchesSplit) {
  for (const auto& dims :
       {Dim3{96, 48, 48}, Dim3{40, 33, 29}, Dim3{33, 9, 9}, Dim3{7, 5, 3},
        Dim3{300, 211, 1}, Dim3{257, 3, 1}, Dim3{70000, 1, 1},
        Dim3{1, 1, 300}})
    expect_fused_levels_match_split<float>(dims, smooth_field(dims, 11));
  const Dim3 noisy{37, 21, 18};
  expect_fused_levels_match_split<float>(noisy, noisy_field(noisy, 12));
  const Dim3 wide{100, 90, 20};
  expect_fused_levels_match_split<double>(wide, smooth_field(wide, 13));
}

// Partial reconstruction must agree with the subsample of the full decode at
// every level — passes at stride s only ever touch stride-s positions, so
// stopping early changes nothing on the coarse grid. The preview runs on its
// own lattice, so the shapes cover every geometry a lattice-scale slip could
// hide in: 3-D (odd, tiny, 1x1xN, degenerate x), 2-D (top stride 8, z = 1)
// and 1-D (top stride 256), in f32 and one in f64. The full decode comes
// from the naive staged tile walk (reference::ginterp_decompress), so the
// preview is checked against a second tile driver.
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
  const auto full = szi::predictor::reference::ginterp_decompress(
      enc.codes, enc.anchors, enc.outliers, dims, eb, prof.config, radius);

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

// The reconstructor's only code input is its per-level windows, so a window
// that misses a rank a covered tile reads must be rejected up front:
// std::invalid_argument before anything is written to `out`. Whole lattice:
// each level stream one symbol short at either end. Box: windows cut to
// exactly the ranks the halo'd box holds (first > 0 on every level)
// reconstruct the box bit-identically to the whole-lattice run, and one
// rank less at either end throws.
TEST(GInterpLevels, ReconstructorRejectsWindowsMissingARank) {
  using szi::predictor::GInterpReconstructorT;
  using Windows = std::vector<std::span<const szi::quant::Code>>;
  const Dim3 dims{70, 41, 37};
  const auto data = smooth_field(dims, 17);
  const double eb = 1e-3;
  const auto prof = autotune(data, dims, eb);
  const int radius = szi::quant::kDefaultRadius;
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto fl = szi::predictor::ginterp_compress_fused_levels(
      std::span<const float>(data), dims, eb, prof.config, radius, ws);
  const Windows streams(fl.levels.streams.begin(), fl.levels.streams.end());
  const std::size_t nlv = streams.size();
  constexpr float kSentinel = -7.25e11f;
  // Runs `run(w, first, out)` on a sentinel-filled `out` of `size` values
  // and expects a throw that left every value untouched.
  const auto expect_rejected = [&](std::size_t size, const auto& run,
                                   const Windows& w,
                                   const std::vector<std::size_t>& first) {
    std::vector<float> out(size, kSentinel);
    EXPECT_THROW(run(w, first, out), std::invalid_argument);
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [&](float x) { return x == kSentinel; }));
  };

  // Whole lattice.
  const auto whole = [&](const Windows& w,
                         const std::vector<std::size_t>& first,
                         std::vector<float>& out) {
    GInterpReconstructorT<float>(w, first, fl.pred.anchors, fl.pred.outliers,
                                 dims, eb, prof.config, radius, out)
        .run();
  };
  const std::vector<std::size_t> zeros(nlv, 0);
  std::vector<float> full(dims.volume(), kSentinel);
  whole(streams, zeros, full);
  EXPECT_TRUE(szi::metrics::error_bounded(data, full, eb));
  for (std::size_t v = 0; v < nlv; ++v) {
    SCOPED_TRACE(::testing::Message() << "whole lattice, level " << v + 1);
    Windows w = streams;
    w[v] = streams[v].first(streams[v].size() - 1);
    expect_rejected(dims.volume(), whole, w, zeros);
    std::vector<std::size_t> first = zeros;
    w[v] = streams[v].subspan(1);
    first[v] = 1;
    expect_rejected(dims.volume(), whole, w, first);
  }

  // Box: the level windows a random-access decode fetches, cut exactly.
  const auto plan =
      szi::predictor::ginterp_roi_plan(dims, {33, 9, 10}, {20, 14, 11});
  Windows win(nlv);
  std::vector<std::size_t> first(nlv);
  for (std::size_t v = 0; v < nlv; ++v) {
    std::size_t r0 = streams[v].size(), r1 = 0;
    szi::predictor::ginterp_level_box_runs(
        dims, static_cast<int>(v) + 1, plan.box_lo, plan.box_dims,
        [&](std::size_t rank, std::size_t count, std::size_t, std::size_t,
            std::size_t, std::size_t) {
          r0 = std::min(r0, rank);
          r1 = std::max(r1, rank + count);
        });
    ASSERT_GT(r0, 0u) << "level " << v + 1;
    ASSERT_LT(r0, r1) << "level " << v + 1;
    first[v] = r0;
    win[v] = streams[v].subspan(r0, r1 - r0);
  }
  const Dim3 ad = anchor_dims(dims, geometry_for(dims).anchor);
  std::vector<float> box_anchors;
  for (std::size_t az = plan.anchor_lo.z; az < plan.anchor_hi.z; ++az)
    for (std::size_t ay = plan.anchor_lo.y; ay < plan.anchor_hi.y; ++ay)
      for (std::size_t ax = plan.anchor_lo.x; ax < plan.anchor_hi.x; ++ax)
        box_anchors.push_back(
            fl.pred.anchors[szi::dev::linearize(ad, ax, ay, az)]);
  const auto box = [&](const Windows& w, const std::vector<std::size_t>& f,
                       std::vector<float>& out) {
    GInterpReconstructorT<float>(w, f, box_anchors, fl.pred.outliers, plan,
                                 dims, eb, prof.config, radius, out)
        .run();
  };
  std::vector<float> got(plan.box_dims.volume(), 0.0f);
  box(win, first, got);
  for (std::size_t z = 10; z < 21; ++z)
    for (std::size_t y = 9; y < 23; ++y)
      for (std::size_t x = 33; x < 53; ++x) {
        const float a = got[szi::dev::linearize(
            plan.box_dims, x - plan.box_lo.x, y - plan.box_lo.y,
            z - plan.box_lo.z)];
        const float b = full[szi::dev::linearize(dims, x, y, z)];
        ASSERT_EQ(0, std::memcmp(&a, &b, sizeof(float)))
            << x << "," << y << "," << z;
      }
  for (std::size_t v = 0; v < nlv; ++v) {
    SCOPED_TRACE(::testing::Message() << "box, level " << v + 1);
    Windows w = win;
    w[v] = win[v].first(win[v].size() - 1);
    expect_rejected(plan.box_dims.volume(), box, w, first);
    std::vector<std::size_t> late = first;
    w[v] = win[v].subspan(1);
    late[v] += 1;
    expect_rejected(plan.box_dims.volume(), box, w, late);
  }
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

/// Marker codes in four of gather_outliers' 32,768-code chunks — on both
/// sides of each chunk boundary, at the first and last position, and
/// scattered at random — must come back in ascending index order with
/// their originals, exactly as a serial scan finds them, from the
/// workspace gather and from its vector form alike.
template <typename T>
void expect_gather_matches_serial_scan() {
  SCOPED_TRACE(::testing::Message() << "f" << 8 * sizeof(T));
  constexpr std::size_t kChunk = std::size_t{1} << 15;
  const std::size_t n = 3 * kChunk + 1234;
  std::vector<szi::quant::Code> codes(
      n, static_cast<szi::quant::Code>(szi::quant::kDefaultRadius));
  std::vector<T> originals(n);
  for (std::size_t i = 0; i < n; ++i)
    originals[i] = static_cast<T>(0.5 * static_cast<double>(i) - 7.0);
  for (const std::size_t i :
       {std::size_t{0}, kChunk - 1, kChunk, 2 * kChunk - 1, 2 * kChunk,
        3 * kChunk - 1, 3 * kChunk, n - 1})
    codes[i] = szi::quant::kOutlierMarker;
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<std::size_t> pos(0, n - 1);
  for (int k = 0; k < 300; ++k) codes[pos(rng)] = szi::quant::kOutlierMarker;

  std::vector<std::uint64_t> want_idx;
  std::vector<T> want_val;
  for (std::size_t i = 0; i < n; ++i)
    if (codes[i] == szi::quant::kOutlierMarker) {
      want_idx.push_back(i);
      want_val.push_back(originals[i]);
    }

  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto got = szi::quant::gather_outliers<T>(codes, originals, ws);
  ASSERT_EQ(got.count(), want_idx.size());
  for (std::size_t k = 1; k < got.count(); ++k)
    EXPECT_LT(got.indices[k - 1], got.indices[k]) << "slot " << k;
  EXPECT_TRUE(std::equal(got.indices.begin(), got.indices.end(),
                         want_idx.begin()));
  EXPECT_TRUE(std::equal(got.values.begin(), got.values.end(),
                         want_val.begin()));

  const auto set = szi::quant::OutlierSetT<T>::gather(codes, originals);
  EXPECT_EQ(set.indices, want_idx);
  EXPECT_EQ(set.values, want_val);
}

TEST(Outliers, GatherMatchesSerialScanAcrossChunks) {
  expect_gather_matches_serial_scan<float>();
  expect_gather_matches_serial_scan<double>();
}

// The outlier blob codec: u64 n | n u64 indices | n values, written into an
// exactly sized span and parsed back from the start of a longer one.
template <typename T>
void expect_outlier_blob_codec() {
  using szi::core::CorruptArchive;
  namespace q = szi::quant;
  const std::vector<std::uint64_t> idx = {3, 70'000, std::uint64_t{1} << 40};
  const std::vector<T> val = {T(-1.5), std::numeric_limits<T>::max(),
                              std::numeric_limits<T>::denorm_min()};
  const q::OutlierViewT<T> ol{idx, val};
  const std::size_t n = idx.size();
  ASSERT_EQ(q::outlier_blob_bytes<T>(n),
            sizeof(std::uint64_t) + n * (sizeof(std::uint64_t) + sizeof(T)));

  std::vector<std::byte> blob(q::outlier_blob_bytes<T>(n) + 5, std::byte{0x7f});
  const std::span<std::byte> exact(blob.data(), q::outlier_blob_bytes<T>(n));
  q::write_outlier_blob(ol, exact);
  std::uint64_t stored_n = 0;
  std::memcpy(&stored_n, blob.data(), sizeof(stored_n));
  EXPECT_EQ(stored_n, n);
  EXPECT_EQ(std::memcmp(blob.data() + 8, idx.data(), n * 8), 0);
  EXPECT_EQ(std::memcmp(blob.data() + 8 + n * 8, val.data(), n * sizeof(T)), 0);
  EXPECT_EQ(blob.back(), std::byte{0x7f}) << "wrote past the blob";

  const auto serialized = q::OutlierSetT<T>{idx, val}.serialize();
  EXPECT_TRUE(std::equal(exact.begin(), exact.end(), serialized.begin(),
                         serialized.end()));

  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto back = q::parse_outlier_blob<T>(blob, ws);
  EXPECT_TRUE(std::equal(back.indices.begin(), back.indices.end(),
                         idx.begin(), idx.end()));
  EXPECT_TRUE(std::equal(back.values.begin(), back.values.end(), val.begin(),
                         val.end()));
  std::size_t consumed = 0;
  EXPECT_EQ(q::OutlierSetT<T>::deserialize(blob, &consumed).indices, idx);
  EXPECT_EQ(consumed, exact.size());

  // The writer takes only an exactly sized span and matched arrays.
  EXPECT_THROW(q::write_outlier_blob(ol, exact.first(exact.size() - 1)),
               std::invalid_argument);
  EXPECT_THROW(q::write_outlier_blob(ol, std::span<std::byte>(blob)),
               std::invalid_argument);
  EXPECT_THROW(
      q::write_outlier_blob(q::OutlierViewT<T>{idx, std::span(val).first(2)},
                            exact),
      std::invalid_argument);

  // Every truncation is a CorruptArchive at stage "outlier-set".
  for (std::size_t len = 0; len < exact.size(); ++len) {
    try {
      (void)q::parse_outlier_blob<T>(std::span(blob).first(len), ws);
      ADD_FAILURE() << "prefix of " << len << " bytes parsed";
    } catch (const CorruptArchive& e) {
      EXPECT_EQ(e.stage(), "outlier-set") << "prefix of " << len << " bytes";
    }
  }

  std::vector<std::byte> empty(q::outlier_blob_bytes<T>(0));
  q::write_outlier_blob(q::OutlierViewT<T>{}, empty);
  EXPECT_EQ(empty.size(), sizeof(std::uint64_t));
  EXPECT_EQ(q::parse_outlier_blob<T>(empty, ws).count(), 0u);
}

TEST(Outliers, BlobCodecRoundTripsAndRejectsBadSizes) {
  expect_outlier_blob_codec<float>();
  expect_outlier_blob_codec<double>();
}

}  // namespace
