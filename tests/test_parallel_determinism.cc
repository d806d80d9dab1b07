// Multi-worker correctness: this binary is registered with ctest once per
// worker count — SZI_THREADS=1 (the reference, which writes goldens) and
// SZI_THREADS=2/3/4/8 plus a SZI_NO_AVX2=1 instance (see
// tests/CMakeLists.txt). The compressed archives AND the reconstructions
// must be byte-identical regardless of worker count — the tile
// decomposition recomputes shared borders instead of synchronizing, the
// decode path snapshots slab-boundary planes before reconstructing slabs
// concurrently, and the SIMD kernels replicate exact scalar op order — so
// neither scheduling nor vector width may ever leak into the output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "baselines/registry.hh"
#include "core/compressor_iface.hh"
#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/arena.hh"
#include "io/bin_io.hh"
#include "metrics/stats.hh"
#include "predictor/ginterp.hh"

namespace {

using szi::ErrorMode;

/// Golden archive hashes are impractical across platforms; instead each run
/// writes its archive digest to stdout and asserts determinism *within* the
/// process by compressing twice, plus bounded round trips. Cross-worker
/// byte-equality is asserted by comparing against a single-threaded
/// recompute: the pool is sized by SZI_THREADS at first use, so we spawn
/// the reference through the same code path before/after cannot differ —
/// the meaningful assertion is repeatability and boundedness under the
/// configured worker count.
TEST(ParallelDeterminism, RepeatableArchivesAndBoundedRoundTrips) {
  const char* threads = std::getenv("SZI_THREADS");
  SCOPED_TRACE(std::string("SZI_THREADS=") + (threads ? threads : "(unset)"));

  for (const char* name : {"cusz-i", "cusz", "fz-gpu", "cuszp"}) {
    auto c = szi::baselines::make_compressor(name);
    for (const auto& ds : {"miranda", "rtm"}) {
      const auto fields =
          szi::datagen::make_dataset(ds, szi::datagen::Size::Small);
      const auto& f = fields.front();
      const double rel = 1e-3;
      const auto a = c->compress(f, {ErrorMode::Rel, rel});
      const auto b = c->compress(f, {ErrorMode::Rel, rel});
      EXPECT_EQ(a.bytes, b.bytes) << name << " on " << f.label();
      const auto dec = c->decompress(a.bytes);
      const double eb = rel * szi::metrics::value_range(f.data);
      EXPECT_TRUE(szi::metrics::error_bounded(f.data, dec, eb))
          << name << " on " << f.label();
    }
  }
}

/// The archive AND both reconstruction paths must be identical across
/// worker counts. Goldens produced with SZI_THREADS=1 are written to
/// scratch files by the 1-thread ctest instance; every other instance
/// (2/3/4/8 workers and the SZI_NO_AVX2 run, which takes the scalar kernel
/// paths) verifies against them. The bitcomp-wrapped decode exercises the
/// phased decoder end to end: the pool-wide LZSS block decode, the
/// one-launch Huffman decode of every level's chunks, the plane-parallel
/// scatter and the slab-parallel reconstruction.
TEST(ParallelDeterminism, ArchivesAndReconsMatchAcrossWorkerCounts) {
  const char* threads_env = std::getenv("SZI_THREADS");
  if (!threads_env) GTEST_SKIP() << "run via ctest (sets SZI_THREADS)";
  const bool is_reference = std::string(threads_env) == "1" &&
                            std::getenv("SZI_NO_AVX2") == nullptr;
  const std::string path = "parallel_determinism_golden.bin";
  const std::string recon_path = "parallel_determinism_golden_recon.bin";
  const std::string wrap_path = "parallel_determinism_golden_wrap.bin";
  const std::string roi_path = "parallel_determinism_golden_roi.bin";

  auto c = szi::baselines::make_compressor("cusz-i");
  const auto fields =
      szi::datagen::make_dataset("s3d", szi::datagen::Size::Small);
  const auto enc = c->compress(fields.front(), {ErrorMode::Rel, 1e-3});

  // Plain decode (slab-parallel reconstruction) and the bitcomp-wrapped
  // phased decode must agree with each other at every worker count.
  const auto recon = szi::cuszi_decompress_f32(enc.bytes);
  const auto recon_bytes = std::as_bytes(std::span<const float>(recon));
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto wrapped = szi::bitcomp_wrap_archive(enc.bytes);
  const auto recon_bc = szi::cuszi_decompress_bitcomp_f32(wrapped, ws);
  ASSERT_EQ(recon_bc.size(), recon.size());
  EXPECT_EQ(0, std::memcmp(recon.data(), recon_bc.data(),
                           recon.size() * sizeof(float)))
      << "bitcomp decode diverges from plain decode at SZI_THREADS="
      << threads_env;

  // Full-fidelity progressive decode must be the same bytes again — raw and
  // wrapped — and a coarse preview must be the exact subsample of the full
  // reconstruction at every worker count.
  const auto prog = szi::cuszi_decompress_progressive_f32(enc.bytes, 1);
  ASSERT_EQ(prog.data.size(), recon.size());
  EXPECT_EQ(0, std::memcmp(prog.data.data(), recon.data(),
                           recon.size() * sizeof(float)))
      << "progressive(1) diverges from plain decode at SZI_THREADS="
      << threads_env;
  const auto progw = szi::cuszi_decompress_progressive_f32(wrapped, 1);
  ASSERT_EQ(progw.data.size(), recon.size());
  EXPECT_EQ(0, std::memcmp(progw.data.data(), recon.data(),
                           recon.size() * sizeof(float)))
      << "wrapped progressive(1) diverges at SZI_THREADS=" << threads_env;
  const auto pre = szi::cuszi_decompress_progressive_f32(enc.bytes, 2);
  const auto sub = szi::predictor::ginterp_subsample(
      std::span<const float>(recon), fields.front().dims, 2);
  ASSERT_EQ(pre.data.size(), sub.size());
  EXPECT_EQ(0,
            std::memcmp(pre.data.data(), sub.data(), sub.size() * sizeof(float)))
      << "level-2 preview diverges from subsample at SZI_THREADS="
      << threads_env;

  // The fused wrapped compress must agree with the after-the-fact wrap at
  // this worker count too — the BBC2 segment table pins the chooser's
  // per-segment method decisions, so any scheduling leak into the sampled
  // chooser or the pool-wide block launch shows up as a byte diff.
  szi::StageTimings wt;
  const auto fused_wrapped = szi::cuszi_compress_bitcomp(
      std::span<const float>(fields.front().data), fields.front().dims,
      {ErrorMode::Rel, 1e-3}, &wt, ws);
  EXPECT_EQ(fused_wrapped, wrapped)
      << "fused wrapped archive diverges at SZI_THREADS=" << threads_env;

  // The index-steered ROI decode reconstructs its slabs across the pool
  // like the full decode, but over a clipped working set with ranged
  // segment reads — a scheduling leak there would produce a box that
  // differs from the cropped full reconstruction only at some worker
  // counts. Pin it to the same golden mechanism with two boxes: an interior
  // box straddling 3 tile slabs, and a full-x/y box of 8 planes covering 2.
  // Over the sweep's worker counts each box takes both sides of the
  // reconstructor's slab-count branch: one pool launch over the slabs while
  // they are at least the workers, the slabs in turn beyond that.
  std::vector<std::byte> roi_bytes;
  for (const szi::RoiBox& box : {szi::RoiBox{{17, 30, 41}, {34, 25, 20}},
                                 szi::RoiBox{{0, 0, 36}, {96, 96, 8}}}) {
    const auto roi = szi::cuszi_decompress_roi_f32(enc.bytes, box);
    const auto b = std::as_bytes(std::span<const float>(roi.data));
    roi_bytes.insert(roi_bytes.end(), b.begin(), b.end());
    for (std::uint32_t z = 0; z < box.ext.z; ++z)
      for (std::uint32_t y = 0; y < box.ext.y; ++y)
        for (std::uint32_t x = 0; x < box.ext.x; ++x) {
          const auto full = recon[((box.lo.z + z) * fields.front().dims.y +
                                   (box.lo.y + y)) *
                                      fields.front().dims.x +
                                  (box.lo.x + x)];
          const auto got = roi.data[(z * box.ext.y + y) * box.ext.x + x];
          ASSERT_EQ(std::memcmp(&full, &got, sizeof(float)), 0)
              << "ROI decode diverges from cropped full decode at "
              << "SZI_THREADS=" << threads_env << " (" << x << "," << y
              << "," << z << ")";
        }
  }

  if (is_reference) {
    szi::io::write_bytes(path, enc.bytes);
    szi::io::write_bytes(recon_path, recon_bytes);
    szi::io::write_bytes(wrap_path, wrapped);
    szi::io::write_bytes(roi_path, roi_bytes);
    SUCCEED() << "golden archive + reconstruction written";
  } else {
    std::vector<std::byte> golden, golden_recon, golden_wrap, golden_roi;
    try {
      golden = szi::io::read_bytes(path);
      golden_recon = szi::io::read_bytes(recon_path);
      golden_wrap = szi::io::read_bytes(wrap_path);
      golden_roi = szi::io::read_bytes(roi_path);
    } catch (const std::exception&) {
      GTEST_SKIP() << "goldens missing (1-thread instance not run)";
    }
    EXPECT_EQ(golden, enc.bytes)
        << "archive differs between 1 and " << threads_env << " workers";
    ASSERT_EQ(golden_recon.size(), recon_bytes.size());
    EXPECT_EQ(0, std::memcmp(golden_recon.data(), recon_bytes.data(),
                             recon_bytes.size()))
        << "reconstruction differs between 1 and " << threads_env
        << " workers";
    EXPECT_EQ(golden_wrap, wrapped)
        << "wrapped archive (chosen methods) differs between 1 and "
        << threads_env << " workers";
    ASSERT_EQ(golden_roi.size(), roi_bytes.size());
    EXPECT_EQ(0,
              std::memcmp(golden_roi.data(), roi_bytes.data(), roi_bytes.size()))
        << "ROI decode differs between 1 and " << threads_env << " workers";
  }
}

}  // namespace
