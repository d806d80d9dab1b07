// Fused-pipeline equivalence: the phased compress/decompress paths
// (per-level histograms fused into the predict kernel, Huffman payload
// emitted into the final archive slot, LZSS blocks in one pool-wide launch)
// must produce archives and reconstructions byte-for-byte identical to the
// unfused reference pipeline, which keeps the pre-fusion stage structure the
// same way tests/reference.cc mirrors the optimized kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/bytes.hh"
#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/arena.hh"
#include "lossless/lzss.hh"
#include "reference_pipeline.hh"

namespace {

using szi::CompressParams;
using szi::ErrorMode;
using szi::StageTimings;
using szi::dev::Dim3;

constexpr CompressParams kRel{ErrorMode::Rel, 1e-3};

std::vector<std::byte> wrap_with_mode(std::span<const std::byte> inner,
                                      szi::lossless::LzssMode mode) {
  return szi::bitcomp_wrap_archive(inner, mode);
}

// Every field of every generated dataset: fused inner archive == unfused,
// fused bitcomp archive == wrap(unfused), and both decompress paths agree.
TEST(FusedEquiv, AllDatasetsByteIdentical) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (const auto& name : szi::datagen::dataset_names()) {
    const auto fields =
        szi::datagen::make_dataset(name, szi::datagen::Size::Small);
    for (const auto& f : fields) {
      const auto unfused = szi::cuszi_compress_unfused(
          std::span<const float>(f.data), f.dims, kRel);
      StageTimings t;
      const auto fused = szi::cuszi_compress(std::span<const float>(f.data),
                                             f.dims, kRel, &t);
      ASSERT_EQ(fused, unfused) << name << "/" << f.name;
      EXPECT_TRUE(t.histogram_fused);
      EXPECT_EQ(t.histogram, 0.0);
      EXPECT_GT(t.predict, 0.0);

      const auto wrapped = szi::cuszi_compress_bitcomp(
          std::span<const float>(f.data), f.dims, kRel, nullptr, ws);
      ASSERT_EQ(wrapped, szi::bitcomp_wrap_archive(unfused))
          << name << "/" << f.name;

      const auto ref = szi::cuszi_decompress_f32(unfused);
      ASSERT_EQ(szi::cuszi_decompress_f32(fused, ws), ref);
      ASSERT_EQ(szi::cuszi_decompress_bitcomp_f32(wrapped, ws), ref);
    }
  }
}

// The histogram source must not matter: counts in the fused kernel and in
// the unfused level split yield the same totals, hence the same codebooks
// and the same bytes.
TEST(FusedEquiv, TopkHistogramAgrees) {
  const auto f =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small)
          .front();
  const std::span<const float> d(f.data);
  ASSERT_EQ(szi::cuszi_compress(d, f.dims, kRel),
            szi::cuszi_compress_unfused(d, f.dims, kRel));
}

// Odd, even, and degenerate extents in both precisions: the fused kernels
// partition work differently from the reference passes, so shape edge cases
// (tiles straddling faces, single rows, scalar fields) are where a
// nondeterministic merge would first show.
TEST(FusedEquiv, ShapesAndPrecisions) {
  const Dim3 shapes[] = {{33, 17, 9}, {32, 16, 8}, {64, 64, 1}, {129, 1, 1},
                         {5, 3, 2},   {2, 2, 2},   {1, 1, 1},   {7, 1, 1}};
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (const auto& dims : shapes) {
    std::vector<float> v32(dims.volume());
    std::vector<double> v64(dims.volume());
    for (std::size_t i = 0; i < v32.size(); ++i) {
      v64[i] = std::sin(0.05 * static_cast<double>(i)) +
               0.3 * std::cos(0.011 * static_cast<double>(i * i % 1009));
      v32[i] = static_cast<float>(v64[i]);
    }
    const CompressParams abs{ErrorMode::Abs, 1e-4};

    const auto u32 = szi::cuszi_compress_unfused(
        std::span<const float>(v32), dims, abs);
    ASSERT_EQ(szi::cuszi_compress(std::span<const float>(v32), dims, abs),
              u32)
        << dims.x << "x" << dims.y << "x" << dims.z;
    ASSERT_EQ(szi::cuszi_compress_bitcomp(std::span<const float>(v32), dims,
                                          abs, nullptr, ws),
              szi::bitcomp_wrap_archive(u32));

    const auto u64a = szi::cuszi_compress_unfused(
        std::span<const double>(v64), dims, abs);
    ASSERT_EQ(szi::cuszi_compress(std::span<const double>(v64), dims, abs),
              u64a)
        << dims.x << "x" << dims.y << "x" << dims.z;
    const auto w64 = szi::cuszi_compress_bitcomp(
        std::span<const double>(v64), dims, abs, nullptr, ws);
    ASSERT_EQ(w64, szi::bitcomp_wrap_archive(u64a));
    ASSERT_EQ(szi::cuszi_decompress_bitcomp_f64(w64, ws),
              szi::cuszi_decompress_f64(u64a));
  }
}

// Both LZSS parameterizations of the de-redundancy pass: the one-launch
// per-block wrap must reproduce the monolithic lzss_compress stream bit for
// bit under Greedy as well as Lazy matching.
TEST(FusedEquiv, BothLzssModes) {
  const auto f =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small).front();
  const std::span<const float> d(f.data);
  const auto inner = szi::cuszi_compress_unfused(d, f.dims, kRel);
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (const auto mode :
       {szi::lossless::LzssMode::Greedy, szi::lossless::LzssMode::Lazy}) {
    const auto fused =
        szi::cuszi_compress_bitcomp(d, f.dims, kRel, nullptr, ws, mode);
    ASSERT_EQ(fused, wrap_with_mode(inner, mode));
    ASSERT_EQ(szi::cuszi_decompress_bitcomp_f32(fused, ws),
              szi::cuszi_decompress_f32(inner));
  }
}

// Workspace reuse across many calls must not leak state between archives:
// compress/decompress a sequence of different fields through one workspace
// and compare each against the throwaway-arena reference.
TEST(FusedEquiv, WorkspaceReuseIsStateless) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (const auto& name : {"rtm", "s3d", "qmcpack"}) {
    const auto f =
        szi::datagen::make_dataset(name, szi::datagen::Size::Small).front();
    const std::span<const float> d(f.data);
    const auto ref = szi::cuszi_compress_unfused(d, f.dims, kRel);
    ASSERT_EQ(szi::cuszi_compress(d, f.dims, kRel, nullptr, ws), ref);
    const auto wrapped =
        szi::cuszi_compress_bitcomp(d, f.dims, kRel, nullptr, ws);
    ASSERT_EQ(szi::cuszi_decompress_bitcomp_f32(wrapped, ws),
              szi::cuszi_decompress_f32(ref));
  }
}

}  // namespace
