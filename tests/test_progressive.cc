// Progressive (preview) decode over level-segmented SZI2 archives: preview
// == subsample of the full decode at every level, full-fidelity progressive
// decode bit-identical to the plain decode, quality monotonically
// non-decreasing as levels stream in, byte accounting (a preview reads only
// its prefix of segments, proven by truncation), and the unified-codebook
// ablation writer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/bytes.hh"
#include "core/compressor_iface.hh"
#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "lossless/orchestrate.hh"
#include "metrics/ssim.hh"
#include "metrics/stats.hh"
#include "predictor/ginterp.hh"
#include "reference_pipeline.hh"

namespace {

using szi::CompressParams;
using szi::ErrorMode;
using szi::dev::Dim3;

/// Nearest-neighbor upsample of a preview back onto the full grid (each
/// full-grid point takes its floor-stride preview neighbor). Dims the
/// preview kept at full extent (degenerate dims) map through unchanged.
template <typename T>
std::vector<T> nn_upsample(const std::vector<T>& pre, const Dim3& pd,
                           const Dim3& fd, int level) {
  const std::size_t s = std::size_t{1} << (level - 1);
  const auto map = [&](std::size_t x, std::size_t pn, std::size_t fn) {
    return pn == fn ? x : std::min(x / s, pn - 1);
  };
  std::vector<T> out(fd.volume());
  std::size_t i = 0;
  for (std::size_t z = 0; z < fd.z; ++z)
    for (std::size_t y = 0; y < fd.y; ++y)
      for (std::size_t x = 0; x < fd.x; ++x, ++i)
        out[i] = pre[(map(z, pd.z, fd.z) * pd.y + map(y, pd.y, fd.y)) * pd.x +
                     map(x, pd.x, fd.x)];
  return out;
}

std::vector<double> smooth_f64(const Dim3& dims) {
  std::vector<double> v(dims.volume());
  std::size_t i = 0;
  for (std::size_t z = 0; z < dims.z; ++z)
    for (std::size_t y = 0; y < dims.y; ++y)
      for (std::size_t x = 0; x < dims.x; ++x, ++i)
        v[i] = std::sin(0.07 * static_cast<double>(x)) *
                   std::cos(0.05 * static_cast<double>(y)) +
               0.3 * std::sin(0.11 * static_cast<double>(z));
  return v;
}

/// A smooth synthetic field of any rank.
szi::Field smooth_field(const Dim3& dims) {
  szi::Field f("synthetic", "smooth", dims);
  for (std::size_t z = 0; z < dims.z; ++z)
    for (std::size_t y = 0; y < dims.y; ++y)
      for (std::size_t x = 0; x < dims.x; ++x)
        f.at(x, y, z) = static_cast<float>(
            std::sin(0.013 * static_cast<double>(x)) *
                std::cos(0.021 * static_cast<double>(y)) +
            0.2 * std::sin(0.05 * static_cast<double>(z)) +
            0.01 * static_cast<double>((x + y) % 5));
  return f;
}

/// Every level's preview must be bitwise the subsample of the full decode:
/// coarse passes touch only coarse grid positions, so decoding fewer
/// segments cannot perturb the points it does reconstruct. Besides three
/// 3-D datasets, a 2-D field (top stride 8, z = 1) and a 1-D field (top
/// stride 256) cover the other preview lattices.
TEST(Progressive, PreviewMatchesSubsampleOfFullDecode) {
  std::vector<szi::Field> inputs;
  for (const char* ds : {"miranda", "nyx", "s3d"})
    inputs.push_back(
        szi::datagen::make_dataset(ds, szi::datagen::Size::Small).front());
  inputs.push_back(smooth_field({300, 211, 1}));
  inputs.push_back(smooth_field({70000, 1, 1}));
  for (const auto& f : inputs) {
    const std::string ds = f.label() + " " + std::to_string(f.dims.x) + "x" +
                           std::to_string(f.dims.y) + "x" +
                           std::to_string(f.dims.z);
    const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                           f.dims, {ErrorMode::Rel, 1e-3});
    const auto full = szi::cuszi_decompress_f32(bytes);
    const int nlevels = szi::predictor::ginterp_level_count(f.dims);
    const auto wrapped = szi::bitcomp_wrap_archive(bytes);
    for (int L = 1; L <= nlevels + 1; ++L) {
      const auto r = szi::cuszi_decompress_progressive_f32(bytes, L);
      EXPECT_EQ(r.level, L);
      const auto pd = szi::predictor::ginterp_preview_dims(f.dims, L);
      ASSERT_EQ(r.dims.x, pd.x);
      ASSERT_EQ(r.dims.y, pd.y);
      ASSERT_EQ(r.dims.z, pd.z);
      const auto sub = szi::predictor::ginterp_subsample(
          std::span<const float>(full), f.dims, L);
      ASSERT_EQ(r.data.size(), sub.size()) << ds << " L=" << L;
      EXPECT_EQ(0, std::memcmp(r.data.data(), sub.data(),
                               sub.size() * sizeof(float)))
          << ds << " L=" << L;
      // The wrapped archive previews to the same values, reading fewer
      // LZSS blocks for coarser levels.
      const auto rw = szi::cuszi_decompress_progressive_f32(wrapped, L);
      ASSERT_EQ(rw.data.size(), r.data.size());
      EXPECT_EQ(0, std::memcmp(rw.data.data(), r.data.data(),
                               r.data.size() * sizeof(float)))
          << ds << " wrapped L=" << L;
      EXPECT_LE(rw.bytes_read, wrapped.size());
    }
  }
}

/// max_level <= 1 must be the full-fidelity reconstruction, bit-identical
/// to the plain decode — raw and wrapped — and consume the whole archive.
TEST(Progressive, FullFidelityIsBitIdenticalToPlainDecode) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const auto full = szi::cuszi_decompress_f32(bytes);
  // The archive ends with the tile index, which previews never need: full
  // fidelity consumes exactly through the last level segment.
  const auto segs = szi::cuszi_archive_segments(bytes);
  std::uint64_t level_extent = 0;
  for (const auto& s : segs)
    if (s.kind == 2) level_extent = s.offset + s.size;
  for (const int L : {1, 0, -5}) {  // clamped to 1
    const auto r = szi::cuszi_decompress_progressive_f32(bytes, L);
    EXPECT_EQ(r.level, 1);
    ASSERT_EQ(r.data.size(), full.size());
    EXPECT_EQ(0, std::memcmp(r.data.data(), full.data(),
                             full.size() * sizeof(float)));
    EXPECT_EQ(r.bytes_read, level_extent);
    EXPECT_LT(r.bytes_read, bytes.size());
  }
  const auto wrapped = szi::bitcomp_wrap_archive(bytes);
  const auto rw = szi::cuszi_decompress_progressive_f32(wrapped, 1);
  ASSERT_EQ(rw.data.size(), full.size());
  EXPECT_EQ(0, std::memcmp(rw.data.data(), full.data(),
                           full.size() * sizeof(float)));
  // Wrapped: the tile index's wrapper payload trails everything the full
  // preview reads; the consumed prefix still decodes the identical field.
  EXPECT_LT(rw.bytes_read, wrapped.size());
  const std::vector<std::byte> prefix(
      wrapped.begin(),
      wrapped.begin() + static_cast<std::ptrdiff_t>(rw.bytes_read));
  const auto rt = szi::cuszi_decompress_progressive_f32(prefix, 1);
  ASSERT_EQ(rt.data.size(), full.size());
  EXPECT_EQ(0, std::memcmp(rt.data.data(), full.data(),
                           full.size() * sizeof(float)));
}

/// Streaming refinement: as max_level decreases toward full fidelity, the
/// NN-upsampled preview's PSNR and SSIM against the original must be
/// monotonically non-decreasing (0.5 dB / 1e-3 slack for level pairs whose
/// refinement is negligible on smooth data).
TEST(Progressive, QualityMonotoneAsLevelsStreamIn) {
  for (const char* ds : {"miranda", "s3d"}) {
    const auto fields = szi::datagen::make_dataset(ds, szi::datagen::Size::Small);
    const auto& f = fields.front();
    const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                           f.dims, {ErrorMode::Rel, 1e-3});
    const int nlevels = szi::predictor::ginterp_level_count(f.dims);
    double prev_psnr = -1e30;
    double prev_ssim = -1e30;
    for (int L = nlevels + 1; L >= 1; --L) {
      const auto r = szi::cuszi_decompress_progressive_f32(bytes, L);
      const auto up = nn_upsample(r.data, r.dims, f.dims, L);
      const double psnr = szi::metrics::distortion(f.data, up).psnr;
      const double s = szi::metrics::ssim(f.data, up, f.dims);
      EXPECT_GE(psnr, prev_psnr - 0.5) << ds << " level " << L;
      EXPECT_GE(s, prev_ssim - 1e-3) << ds << " level " << L;
      prev_psnr = psnr;
      prev_ssim = s;
    }
  }
}

/// Byte accounting: a preview at level L reads exactly through level L's
/// segment — bytes_read matches the directory's extent, and truncating the
/// archive to bytes_read still yields the identical preview.
TEST(Progressive, PreviewReadsOnlyItsPrefixOfSegments) {
  const auto fields =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const auto segs = szi::cuszi_archive_segments(bytes);
  const int nlevels = szi::predictor::ginterp_level_count(f.dims);
  ASSERT_EQ(segs.size(), static_cast<std::size_t>(nlevels) + 3);
  for (int L = 2; L <= nlevels + 1; ++L) {
    const auto r = szi::cuszi_decompress_progressive_f32(bytes, L);
    // Last segment the preview needs: the deepest with level >= L (or the
    // outlier segment when no level qualifies).
    std::size_t last = 1;
    for (std::size_t i = 2; i < segs.size() && segs[i].level >= L; ++i)
      last = i;
    EXPECT_EQ(r.bytes_read, segs[last].offset + segs[last].size)
        << "L=" << L;
    EXPECT_LT(r.bytes_read, bytes.size()) << "L=" << L;
    const std::vector<std::byte> prefix(
        bytes.begin(),
        bytes.begin() + static_cast<std::ptrdiff_t>(r.bytes_read));
    const auto rt = szi::cuszi_decompress_progressive_f32(prefix, L);
    EXPECT_EQ(rt.bytes_read, r.bytes_read);
    ASSERT_EQ(rt.data.size(), r.data.size());
    EXPECT_EQ(0, std::memcmp(rt.data.data(), r.data.data(),
                             r.data.size() * sizeof(float)));
  }
}

/// The wrapped ('BBC2') path honors the same truncation contract: the
/// wrapper segmentation mirrors the inner directory, so `bytes_read` lands
/// on a wrapper-payload boundary, truncating the wrapped archive there
/// decodes the identical preview, and cutting one byte deeper — into a
/// payload the preview needs — throws instead of misdecoding. Forced
/// transformed methods take the all-or-nothing payload path.
TEST(Progressive, WrappedPreviewDecodesFromItsOwnPrefix) {
  const auto fields =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto inner = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const int nlevels = szi::predictor::ginterp_level_count(f.dims);
  for (const auto policy :
       {szi::lossless::MethodPolicy::Auto, szi::lossless::MethodPolicy::ForceZeroRle,
        szi::lossless::MethodPolicy::ForceBitshuffle}) {
    const auto wrapped = szi::bitcomp_wrap_archive(
        inner, szi::lossless::LzssMode::Lazy, policy);
    for (int L = 2; L <= nlevels + 1; ++L) {
      const auto r = szi::cuszi_decompress_progressive_f32(wrapped, L);
      ASSERT_GT(r.bytes_read, 0u);
      EXPECT_LT(r.bytes_read, wrapped.size()) << "L=" << L;
      const std::vector<std::byte> prefix(
          wrapped.begin(),
          wrapped.begin() + static_cast<std::ptrdiff_t>(r.bytes_read));
      const auto rt = szi::cuszi_decompress_progressive_f32(prefix, L);
      EXPECT_EQ(rt.bytes_read, r.bytes_read) << "L=" << L;
      ASSERT_EQ(rt.data.size(), r.data.size());
      EXPECT_EQ(0, std::memcmp(rt.data.data(), r.data.data(),
                               r.data.size() * sizeof(float)))
          << "L=" << L;
      const std::vector<std::byte> cut(
          wrapped.begin(),
          wrapped.begin() + static_cast<std::ptrdiff_t>(r.bytes_read) - 1);
      EXPECT_THROW((void)szi::cuszi_decompress_progressive_f32(cut, L),
                   szi::core::CorruptArchive)
          << "L=" << L;
    }
  }
}

/// The coarsest preview (level_count + 1) is the raw anchor grid, which is
/// stored lossless: it must equal the subsample of the *original* exactly.
TEST(Progressive, AnchorGridPreviewIsLossless) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const int nlevels = szi::predictor::ginterp_level_count(f.dims);
  const auto r = szi::cuszi_decompress_progressive_f32(bytes, nlevels + 1);
  const auto sub = szi::predictor::ginterp_subsample(
      std::span<const float>(f.data), f.dims, nlevels + 1);
  ASSERT_EQ(r.data.size(), sub.size());
  EXPECT_EQ(0,
            std::memcmp(r.data.data(), sub.data(), sub.size() * sizeof(float)));
  // Levels beyond the range clamp to the anchor grid.
  const auto rc =
      szi::cuszi_decompress_progressive_f32(bytes, nlevels + 99);
  EXPECT_EQ(rc.level, nlevels + 1);
  EXPECT_EQ(rc.data, r.data);
}

/// The unified-codebook ablation writer emits valid SZI2: same decoded
/// field bit-for-bit (codes are identical; only the books differ), same
/// directory shape, progressive decode included.
TEST(Progressive, UnifiedBookArchiveRoundTrips) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const CompressParams p{ErrorMode::Rel, 1e-3};
  const auto per_level =
      szi::cuszi_compress(std::span<const float>(f.data), f.dims, p);
  const auto unified = szi::cuszi_compress_unified_book(
      std::span<const float>(f.data), f.dims, p);
  const auto a = szi::cuszi_decompress_f32(per_level);
  const auto b = szi::cuszi_decompress_f32(unified);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
  EXPECT_EQ(szi::cuszi_archive_segments(per_level).size(),
            szi::cuszi_archive_segments(unified).size());
  const auto r = szi::cuszi_decompress_progressive_f32(unified, 2);
  const auto sub =
      szi::predictor::ginterp_subsample(std::span<const float>(a), f.dims, 2);
  EXPECT_EQ(0,
            std::memcmp(r.data.data(), sub.data(), sub.size() * sizeof(float)));
}

/// The f64 instantiation of the same writer: the unified-book archive
/// decodes bit-for-bit like the per-level one, and its directory lists the
/// same segments with the same element counts.
TEST(Progressive, UnifiedBookArchiveRoundTripsF64) {
  const Dim3 dims{48, 40, 24};
  const auto data = smooth_f64(dims);
  const std::span<const double> d(data);
  const CompressParams p{ErrorMode::Rel, 1e-4};
  const auto per_level = szi::cuszi_compress(d, dims, p);
  const auto unified = szi::cuszi_compress_unified_book(d, dims, p);
  const auto a = szi::cuszi_decompress_f64(per_level);
  const auto b = szi::cuszi_decompress_f64(unified);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
  const auto sa = szi::cuszi_archive_segments(per_level);
  const auto sb = szi::cuszi_archive_segments(unified);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].kind, sb[i].kind) << "segment " << i;
    EXPECT_EQ(sa[i].level, sb[i].level) << "segment " << i;
    EXPECT_EQ(sa[i].count, sb[i].count) << "segment " << i;
  }
  const auto r = szi::cuszi_decompress_progressive_f64(unified, 2);
  const auto sub =
      szi::predictor::ginterp_subsample(std::span<const double>(a), dims, 2);
  ASSERT_EQ(r.data.size(), sub.size());
  EXPECT_EQ(0,
            std::memcmp(r.data.data(), sub.data(), sub.size() * sizeof(double)));
}

/// f64 archives go through the same segmented layout and progressive path.
TEST(Progressive, F64PreviewAndBackCompat) {
  const Dim3 dims{48, 40, 24};
  const auto data = smooth_f64(dims);
  const CompressParams p{ErrorMode::Rel, 1e-4};
  const auto bytes =
      szi::cuszi_compress(std::span<const double>(data), dims, p);
  const auto full = szi::cuszi_decompress_f64(bytes);
  const int nlevels = szi::predictor::ginterp_level_count(dims);
  for (int L = 1; L <= nlevels + 1; ++L) {
    const auto r = szi::cuszi_decompress_progressive_f64(bytes, L);
    const auto sub = szi::predictor::ginterp_subsample(
        std::span<const double>(full), dims, L);
    ASSERT_EQ(r.data.size(), sub.size()) << "L=" << L;
    EXPECT_EQ(0, std::memcmp(r.data.data(), sub.data(),
                             sub.size() * sizeof(double)))
        << "L=" << L;
  }
}

/// cuszi_archive_segments: validated directory view — contiguous offsets
/// ending exactly at the archive size, closed-form symbol counts, 'BBC2'
/// unwrapped transparently.
TEST(Progressive, ArchiveSegmentsDirectoryView) {
  const auto fields =
      szi::datagen::make_dataset("s3d", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const auto segs = szi::cuszi_archive_segments(bytes);
  const int nlevels = szi::predictor::ginterp_level_count(f.dims);
  ASSERT_EQ(segs.size(), static_cast<std::size_t>(nlevels) + 3);
  EXPECT_EQ(segs[0].kind, 0);
  EXPECT_EQ(segs[1].kind, 1);
  std::uint64_t cursor = segs[0].offset;
  std::uint64_t symbols = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs[i].offset, cursor) << "segment " << i;
    cursor += segs[i].size;
    if (i >= 2 && segs[i].kind == 2) {
      EXPECT_EQ(static_cast<int>(segs[i].level),
                nlevels - static_cast<int>(i) + 2);
      EXPECT_EQ(segs[i].count, szi::predictor::ginterp_level_volume(
                                   f.dims, segs[i].level));
      symbols += segs[i].count;
    }
  }
  // The trailing tile index: one entry per (level, tile z-slab).
  EXPECT_EQ(segs.back().kind, 3);
  EXPECT_EQ(segs.back().level, 0);
  EXPECT_GT(segs.back().count, 0u);
  EXPECT_EQ(cursor, bytes.size());
  // Levels + anchors partition the volume.
  EXPECT_EQ(symbols + segs[0].count, f.dims.volume());
  const auto wrapped = szi::bitcomp_wrap_archive(bytes);
  const auto segs_w = szi::cuszi_archive_segments(wrapped);
  ASSERT_EQ(segs_w.size(), segs.size());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(segs_w[i].offset, segs[i].offset);
    EXPECT_EQ(segs_w[i].size, segs[i].size);
  }
}

}  // namespace
