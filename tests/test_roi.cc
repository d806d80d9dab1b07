// Random-access (ROI) decode: every box must be bit-identical to the same
// crop of the full decompress — raw and 'BBC2'-wrapped, f32 and f64 — while
// the tile-index-steered read fetches only a fraction of the archive. The
// retired layouts (SZI1, 'BBCP', pre-index SZI2) are rejected by every
// decode entry point, and every ArchiveSource backend (memory, mmap, pread)
// returns the same bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <vector>

#include "core/bytes.hh"
#include "core/compressor_iface.hh"
#include "core/cuszi.hh"
#include "baselines/registry.hh"
#include "datagen/datasets.hh"
#include "io/archive_source.hh"
#include "io/bin_io.hh"
#include "lossless/lzss.hh"
#include "predictor/ginterp.hh"
#include "serve/serve.hh"

namespace {

namespace fs = std::filesystem;

using szi::CompressParams;
using szi::ErrorMode;
using szi::RoiBox;
using szi::dev::Dim3;

template <typename T>
std::vector<T> crop(const std::vector<T>& full, const Dim3& dims,
                    const RoiBox& box) {
  std::vector<T> out(box.ext.volume());
  for (std::size_t z = 0; z < box.ext.z; ++z)
    for (std::size_t y = 0; y < box.ext.y; ++y)
      std::memcpy(
          out.data() + szi::dev::linearize(box.ext, 0, y, z),
          full.data() + szi::dev::linearize(dims, box.lo.x, box.lo.y + y,
                                            box.lo.z + z),
          box.ext.x * sizeof(T));
  return out;
}

/// Directory surgery: rewrite an indexed SZI2 archive as its pre-index
/// form — drop the trailing TIDX entry and payload, shift the remaining
/// segment offsets back by one directory row. Minting these proves the
/// rejection contract without keeping an old writer around.
std::vector<std::byte> strip_tidx(std::span<const std::byte> bytes) {
  const auto segs = szi::cuszi_archive_segments(bytes);
  EXPECT_EQ(segs.back().kind, 3);
  constexpr std::size_t kFixed = 53;   // inner header through PackedConfig
  constexpr std::size_t kEntry = 32;   // directory row stride
  const auto nseg = static_cast<std::uint32_t>(segs.size());
  std::vector<std::byte> out(bytes.begin(), bytes.begin() + kFixed);
  const std::uint32_t n2 = nseg - 1;
  out.resize(kFixed + sizeof(n2));
  std::memcpy(out.data() + kFixed, &n2, sizeof(n2));
  for (std::uint32_t i = 0; i < n2; ++i) {
    std::byte entry[kEntry];
    std::memcpy(entry, bytes.data() + kFixed + 4 + i * kEntry, kEntry);
    std::uint64_t off = 0;
    std::memcpy(&off, entry + 16, sizeof(off));
    off -= kEntry;
    std::memcpy(entry + 16, &off, sizeof(off));
    out.insert(out.end(), entry, entry + kEntry);
  }
  // Payloads, minus the trailing tile-index payload.
  out.insert(out.end(),
             bytes.begin() + static_cast<std::ptrdiff_t>(segs[0].offset),
             bytes.begin() + static_cast<std::ptrdiff_t>(segs.back().offset));
  return out;
}

/// Every box — interior, origin corner, far corner, 1-wide slivers, a
/// full-x/y box of 8 planes (2 slabs: with more workers than that, its
/// slabs run in turn instead of in one pool launch), the whole field —
/// decodes bit-identical to the cropped full decompress, raw and wrapped,
/// with the tile index steering both.
TEST(Roi, MatchesCroppedFullDecode) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();  // 128 x 128 x 96
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const auto wrapped = szi::bitcomp_wrap_archive(bytes);
  const auto full = szi::cuszi_decompress_f32(bytes);
  const std::vector<RoiBox> boxes = {
      {{40, 33, 21}, {32, 32, 32}},                    // interior, unaligned
      {{0, 0, 0}, {16, 16, 16}},                       // origin corner
      {{128 - 17, 128 - 5, 96 - 9}, {17, 5, 9}},       // far corner
      {{63, 0, 0}, {1, 128, 96}},                      // 1-wide x sliver
      {{0, 0, 47}, {128, 128, 1}},                     // single z-plane
      {{0, 0, 44}, {128, 128, 8}},                     // 8 planes, 2 slabs
      {{0, 0, 0}, {128, 128, 96}},                     // whole field
  };
  for (const auto& box : boxes) {
    const auto want = crop(full, f.dims, box);
    const auto r = szi::cuszi_decompress_roi_f32(bytes, box);
    EXPECT_EQ(r.dims, box.ext);
    ASSERT_EQ(r.data.size(), want.size());
    EXPECT_EQ(0, std::memcmp(r.data.data(), want.data(),
                             want.size() * sizeof(float)))
        << "box lo=(" << box.lo.x << "," << box.lo.y << "," << box.lo.z << ")";
    const auto rw = szi::cuszi_decompress_roi_f32(wrapped, box);
    ASSERT_EQ(rw.data.size(), want.size());
    EXPECT_EQ(0, std::memcmp(rw.data.data(), want.data(),
                             want.size() * sizeof(float)));
  }
}

/// The point of the index: a small box touches a small fraction of the
/// archive. Headers, directory, anchors, and the whole outlier blob are
/// fixed overhead, so the bound here is loose; bench/roi checks the paper
/// target (<= 10% for a 64^3 box of the full-size field).
TEST(Roi, SmallBoxReadsSmallFractionOfArchive) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const RoiBox box{{48, 48, 32}, {16, 16, 16}};
  const auto r = szi::cuszi_decompress_roi_f32(bytes, box);
  EXPECT_GT(r.bytes_read, 0u);
  EXPECT_LT(r.bytes_read, bytes.size() / 2);
  // The wrapped archive reads only covering LZSS blocks. 64 KiB block
  // granularity dominates on this small archive (a couple of blocks span
  // most of it), so only strict improvement is asserted here; the bench
  // measures the real fraction on the paper-size field.
  const auto wrapped = szi::bitcomp_wrap_archive(bytes);
  const auto rw = szi::cuszi_decompress_roi_f32(wrapped, box);
  EXPECT_LT(rw.bytes_read, wrapped.size());
}

/// f64 archives steer through the identical index, on both sides of the
/// slab branch: a full-x/y box of 8 planes (slabs run in turn when workers
/// outnumber them) and a box through every slab (one pool launch).
TEST(Roi, F64MatchesCroppedFullDecode) {
  const Dim3 dims{96, 80, 64};
  std::vector<double> data(dims.volume());
  std::size_t i = 0;
  for (std::size_t z = 0; z < dims.z; ++z)
    for (std::size_t y = 0; y < dims.y; ++y)
      for (std::size_t x = 0; x < dims.x; ++x, ++i)
        data[i] = std::sin(0.07 * static_cast<double>(x)) *
                      std::cos(0.05 * static_cast<double>(y)) +
                  0.3 * std::sin(0.11 * static_cast<double>(z));
  const auto bytes = szi::cuszi_compress(std::span<const double>(data), dims,
                                         {ErrorMode::Rel, 1e-4});
  const auto full = szi::cuszi_decompress_f64(bytes);
  const auto wrapped = szi::bitcomp_wrap_archive(bytes);
  for (const RoiBox& box : {RoiBox{{17, 9, 30}, {40, 33, 20}},
                            RoiBox{{0, 0, 28}, {96, 80, 8}},
                            RoiBox{{5, 7, 0}, {30, 20, 64}}}) {
    SCOPED_TRACE(box.lo.z);
    const auto want = crop(full, dims, box);
    const auto r = szi::cuszi_decompress_roi_f64(bytes, box);
    ASSERT_EQ(r.data.size(), want.size());
    EXPECT_EQ(0, std::memcmp(r.data.data(), want.data(),
                             want.size() * sizeof(double)));
    const auto rw = szi::cuszi_decompress_roi_f64(wrapped, box);
    ASSERT_EQ(rw.data.size(), want.size());
    EXPECT_EQ(0, std::memcmp(rw.data.data(), want.data(),
                             want.size() * sizeof(double)));
  }
}

/// Lower-rank fields keep a single tile slab: 2-D and 1-D boxes (interior,
/// edge, whole field) decode bit-identical to the crop of the full decode,
/// raw and wrapped.
TEST(Roi, LowerRankFieldsMatchCroppedFullDecode) {
  struct Case {
    Dim3 dims;
    std::vector<RoiBox> boxes;
  };
  const std::vector<Case> cases = {
      {{300, 211, 1},
       {{{37, 50, 0}, {64, 80, 1}},
        {{300 - 9, 211 - 13, 0}, {9, 13, 1}},
        {{0, 0, 0}, {300, 211, 1}}}},
      {{70000, 1, 1},
       {{{12345, 0, 0}, {777, 1, 1}},
        {{0, 0, 0}, {1, 1, 1}},
        {{0, 0, 0}, {70000, 1, 1}}}},
  };
  for (const auto& c : cases) {
    std::vector<float> data(c.dims.volume());
    std::size_t i = 0;
    for (std::size_t y = 0; y < c.dims.y; ++y)
      for (std::size_t x = 0; x < c.dims.x; ++x, ++i)
        data[i] = static_cast<float>(
            std::sin(0.013 * static_cast<double>(x)) *
                std::cos(0.021 * static_cast<double>(y)) +
            0.01 * static_cast<double>(i % 5));
    const auto bytes = szi::cuszi_compress(std::span<const float>(data),
                                           c.dims, {ErrorMode::Rel, 1e-3});
    const auto wrapped = szi::bitcomp_wrap_archive(bytes);
    const auto full = szi::cuszi_decompress_f32(bytes);
    for (const auto& box : c.boxes) {
      SCOPED_TRACE(std::to_string(c.dims.x) + "x" + std::to_string(c.dims.y) +
                   " box lo=(" + std::to_string(box.lo.x) + "," +
                   std::to_string(box.lo.y) + ")");
      const auto want = crop(full, c.dims, box);
      const auto r = szi::cuszi_decompress_roi_f32(bytes, box);
      EXPECT_EQ(r.dims, box.ext);
      EXPECT_EQ(r.data, want);
      EXPECT_EQ(szi::cuszi_decompress_roi_f32(wrapped, box).data, want);
    }
  }
}

/// ROI stages run one after another, so each reported stage is a
/// wall-clock slice of `total` on both sides of the slab branch — the
/// reconstruction is timed as one span, never summed over workers.
TEST(Roi, StageTimingsAreWallSlicesOfTotal) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const auto wrapped = szi::bitcomp_wrap_archive(bytes);
  for (const RoiBox& box : {RoiBox{{0, 0, 44}, {128, 128, 8}},
                            RoiBox{{16, 16, 0}, {96, 96, 96}}}) {
    for (const auto* archive : {&bytes, &wrapped}) {
      SCOPED_TRACE(box.ext.z);
      const auto r = szi::cuszi_decompress_roi_f32(*archive, box);
      const auto& t = r.timings;
      EXPECT_GE(t.unwrap, 0.0);
      EXPECT_GT(t.huffman, 0.0);
      EXPECT_GT(t.reconstruct, 0.0);
      EXPECT_LE(t.unwrap + t.huffman + t.reconstruct, t.total);
    }
  }
}

/// Only the layout the writer emits decodes. An SZI1-magic archive, the
/// retired 'BBCP' framing, and a pre-index SZI2 archive — raw, and the SZI1
/// and pre-index ones also inside a 'BBC2' wrapper — each throw
/// core::CorruptArchive from every decode entry point, and a service
/// decompress request for any of them comes back Failed.
TEST(Roi, RetiredLayoutsAreRejected) {
  const auto fields =
      szi::datagen::make_dataset("s3d", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto v2 = szi::cuszi_compress(std::span<const float>(f.data), f.dims,
                                      {ErrorMode::Rel, 1e-3});

  auto v1 = v2;
  const std::uint32_t szi1 = 0x31495A53;  // 'SZI1'
  std::memcpy(v1.data(), &szi1, sizeof(szi1));
  // 'BBCP': u32 magic + a length-prefixed LZSS stream over the whole inner
  // archive.
  szi::core::ByteWriter w;
  w.put(std::uint32_t{0x50434242});
  w.put_blob(szi::lossless::lzss_compress(v2, szi::lossless::kLzssBlock,
                                          szi::lossless::LzssMode::Lazy));
  const auto bbcp = w.take();
  const auto pre = strip_tidx(v2);

  const std::vector<std::pair<const char*, std::vector<std::byte>>> inputs = {
      {"SZI1", v1},
      {"BBCP", bbcp},
      {"pre-index", pre},
      {"SZI1 in BBC2", szi::bitcomp_wrap_archive(v1)},
      {"pre-index in BBC2", szi::bitcomp_wrap_archive(pre)},
  };
  const RoiBox box{{10, 20, 30}, {24, 24, 24}};
  szi::serve::Service svc;
  szi::dev::Workspace ws;
  for (const auto& [name, bytes] : inputs) {
    SCOPED_TRACE(name);
    EXPECT_THROW((void)szi::cuszi_decompress_f32(bytes),
                 szi::core::CorruptArchive);
    EXPECT_THROW((void)szi::cuszi_decompress_bitcomp_f32(bytes, ws),
                 szi::core::CorruptArchive);
    ws.reset();
    EXPECT_THROW((void)szi::cuszi_decompress_progressive_f32(bytes, 2),
                 szi::core::CorruptArchive);
    EXPECT_THROW((void)szi::cuszi_decompress_roi_f32(bytes, box),
                 szi::core::CorruptArchive);
    EXPECT_THROW((void)szi::cuszi_archive_segments(bytes),
                 szi::core::CorruptArchive);
    EXPECT_EQ(svc.submit_decompress("retired", bytes).wait().status,
              szi::serve::Status::Failed);
  }
}

/// Memory, mmap, and pread sources return the identical box; file-backed
/// sources never need the archive in RAM.
TEST(Roi, AllArchiveSourcesAgree) {
  const auto fields =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  const fs::path dir = fs::temp_directory_path() /
                       ("szi_roi_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto path = (dir / "a.szi").string();
  szi::io::write_bytes(path, bytes);

  const RoiBox box{{30, 40, 50}, {20, 24, 28}};
  const auto rm = szi::cuszi_decompress_roi_f32(bytes, box);
  {
    szi::io::MmapSource src(path);
    auto r = szi::cuszi_decompress_roi_f32(src, box);
    EXPECT_EQ(r.data, rm.data);
    EXPECT_EQ(r.bytes_read, rm.bytes_read);
  }
  {
    szi::io::StreamSource src(path);
    auto r = szi::cuszi_decompress_roi_f32(src, box);
    EXPECT_EQ(r.data, rm.data);
    EXPECT_EQ(r.bytes_read, rm.bytes_read);
  }
  {
    auto src = szi::io::open_archive(path);
    auto r = szi::cuszi_decompress_roi_f32(*src, box);
    EXPECT_EQ(r.data, rm.data);
  }
  fs::remove_all(dir);
}

/// A 'BBC2' archive through file-backed sources: the covering LZSS blocks
/// decode in one pool launch, each task viewing its block through the
/// source with its own scratch (pread copies for a StreamSource), so every
/// source returns the same box and reports the same bytes read.
TEST(Roi, WrappedArchiveSourcesAgree) {
  const auto fields =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto wrapped = szi::bitcomp_wrap_archive(szi::cuszi_compress(
      std::span<const float>(f.data), f.dims, {ErrorMode::Rel, 1e-3}));
  const fs::path dir = fs::temp_directory_path() /
                       ("szi_roi_wrapped_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto path = (dir / "a.szi").string();
  szi::io::write_bytes(path, wrapped);

  for (const RoiBox& box : {RoiBox{{30, 40, 50}, {20, 24, 28}},
                            RoiBox{{0, 0, 0}, {96, 96, 40}}}) {
    const auto rm = szi::cuszi_decompress_roi_f32(wrapped, box);
    szi::io::MmapSource mm(path);
    const auto r1 = szi::cuszi_decompress_roi_f32(mm, box);
    EXPECT_EQ(r1.data, rm.data);
    EXPECT_EQ(r1.bytes_read, rm.bytes_read);
    szi::io::StreamSource st(path);
    const auto r2 = szi::cuszi_decompress_roi_f32(st, box);
    EXPECT_EQ(r2.data, rm.data);
    EXPECT_EQ(r2.bytes_read, rm.bytes_read);
  }
  fs::remove_all(dir);
}

/// Degenerate and out-of-range boxes are rejected up front, and baseline
/// compressors report no ROI support.
TEST(Roi, RejectsBadBoxesAndUnsupportedCompressors) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const CompressParams p{ErrorMode::Rel, 1e-3};
  const auto v2 = szi::cuszi_compress(std::span<const float>(f.data), f.dims, p);
  for (const auto& box : std::vector<RoiBox>{
           {{0, 0, 0}, {0, 8, 8}},        // empty extent
           {{0, 0, 0}, {129, 8, 8}},      // wider than the field
           {{128, 0, 0}, {1, 1, 1}},      // origin past the edge
           {{120, 0, 0}, {16, 8, 8}},     // spills past the edge
       }) {
    EXPECT_THROW((void)szi::cuszi_decompress_roi_f32(v2, box),
                 std::invalid_argument);
  }
  // Through the Compressor interface: cuSZ-i serves ROI (wrapped too),
  // baselines throw the not-supported error.
  auto cuszi = szi::make_cuszi();
  const auto r = cuszi->decompress_roi(v2, {{8, 8, 8}, {16, 16, 16}});
  EXPECT_EQ(r.dims, (Dim3{16, 16, 16}));
  auto sz3 = szi::baselines::make_compressor("sz3");
  const auto a = sz3->compress(f, p);
  EXPECT_THROW((void)sz3->decompress_roi(a.bytes, {{0, 0, 0}, {8, 8, 8}}),
               std::invalid_argument);
}

/// ROI reads are byte-identical across worker counts: the slab fan-out
/// changes scheduling, never values. (CI sweeps SZI_THREADS over this
/// suite; within one process the pool size is fixed, so this guards the
/// slabs-in-turn / slabs-across-the-pool boundary via 1-slab boxes vs a
/// many-slab box.)
TEST(Roi, ManySlabBoxMatchesSingleSlabUnion) {
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto bytes = szi::cuszi_compress(std::span<const float>(f.data),
                                         f.dims, {ErrorMode::Rel, 1e-3});
  // One tall box spanning many z-slabs...
  const RoiBox tall{{32, 32, 0}, {32, 32, 96}};
  const auto rt = szi::cuszi_decompress_roi_f32(bytes, tall);
  // ...must equal the concatenation of its single-slab slices.
  const std::size_t slab_z = 8;  // 3D tile depth
  for (std::size_t z0 = 0; z0 < 96; z0 += slab_z) {
    const RoiBox slice{{32, 32, z0}, {32, 32, slab_z}};
    const auto rs = szi::cuszi_decompress_roi_f32(bytes, slice);
    EXPECT_EQ(0, std::memcmp(
                     rs.data.data(),
                     rt.data.data() + z0 * 32 * 32,
                     rs.data.size() * sizeof(float)))
        << "slab at z=" << z0;
  }
}

}  // namespace
