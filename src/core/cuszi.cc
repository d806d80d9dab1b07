#include "core/cuszi.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/bytes.hh"
#include "core/cuszi_writer.hh"
#include "core/inner_bytes.hh"
#include "core/timer.hh"
#include "device/thread_pool.hh"
#include "huffman/huffman.hh"
#include "io/archive_source.hh"
#include "predictor/anchor.hh"
#include "predictor/autotune.hh"
#include "predictor/ginterp.hh"

namespace szi {

namespace {

constexpr std::uint32_t kMagic = 0x32495A53;  // "SZI2" (level-segmented)

struct PackedConfig {
  double alpha;
  std::uint8_t cubic[3];
  std::uint8_t order[3];
  std::uint16_t radius;
};
static_assert(sizeof(PackedConfig) == 16, "archive layout is padding-free");

/// Bytes of the fixed inner-archive header: magic | precision | dims | eb |
/// PackedConfig. The segment directory follows.
constexpr std::size_t kInnerFixedBytes =
    sizeof(std::uint32_t) + sizeof(std::uint8_t) + 3 * sizeof(std::uint64_t) +
    sizeof(double) + sizeof(PackedConfig);

/// One row of the SZI2 segment directory. Segments are laid out back to
/// back immediately after the directory: anchors, outliers, then one
/// independently framed Huffman stream per interpolation level in
/// descending level order (coarsest first), so a preview at level L is a
/// prefix of the archive. A trailing kind-3 tile-index segment
/// (TIDX) rides after the levels — behind every prefix a preview needs, so
/// progressive reads never pay for it. Reserved fields are written zero and
/// must read zero.
struct SegmentEntry {
  std::uint8_t kind = 0;   ///< kSegAnchors/kSegOutliers/kSegLevel/kSegTileIndex
  std::uint8_t level = 0;  ///< 1-based interpolation level (kind 2), else 0
  std::uint16_t reserved0 = 0;
  std::uint32_t reserved1 = 0;
  std::uint64_t count = 0;   ///< elements: anchors, outliers, or symbols
  std::uint64_t offset = 0;  ///< absolute byte offset of the payload
  std::uint64_t size = 0;    ///< payload bytes
};
static_assert(sizeof(SegmentEntry) == 32, "archive layout is padding-free");

constexpr std::uint8_t kSegAnchors = 0;
constexpr std::uint8_t kSegOutliers = 1;
constexpr std::uint8_t kSegLevel = 2;
constexpr std::uint8_t kSegTileIndex = 3;

/// TIDX — the random-access tile index (kind 3). One entry per (level,
/// z-slab) pair maps the slab's first level symbol to its exact coordinates
/// in the archive: stream rank, Huffman chunk, payload byte, and the 64 KiB
/// LZSS block a 'BBC2' wrapper would place that byte in. Every field is a
/// closed form of (dims, per-level chunk tables), so a box decode rebuilds
/// the index with build_tidx and compares bytes; reads follow the closed
/// forms and the chunk offset tables, never the index.
constexpr std::uint16_t kTidxVersion = 1;

/// Payload header: u16 version | u16 reserved | u32 slab_z | u32 nlevels |
/// u32 nslabs, then nlevels * nslabs entries (levels descending to match
/// the segment order, slabs ascending within a level).
constexpr std::size_t kTidxHeaderBytes =
    2 * sizeof(std::uint16_t) + 3 * sizeof(std::uint32_t);

struct TidxEntry {
  std::uint64_t sym_rank;    ///< level symbols strictly below the slab plane
  std::uint64_t code_byte;   ///< payload-relative byte of the covering chunk
  std::uint32_t huff_chunk;  ///< Huffman chunk index containing sym_rank
  std::uint32_t wrap_block;  ///< 64 KiB LZSS block of that byte (method 0)
};
static_assert(sizeof(TidxEntry) == 24, "archive layout is padding-free");

/// z-slab granularity of the tile index: the reconstruction tile depth, so
/// one index row covers exactly one reconstructor slab.
std::size_t tidx_slab_z(const dev::Dim3& dims) {
  return predictor::geometry_for(dims).tile.z;
}

std::size_t tidx_nslabs(const dev::Dim3& dims) {
  return dev::ceil_div(dims.z, tidx_slab_z(dims));
}

std::uint64_t tidx_entry_count(const dev::Dim3& dims, int nlevels) {
  return static_cast<std::uint64_t>(nlevels) * tidx_nslabs(dims);
}

std::uint64_t tidx_payload_bytes(const dev::Dim3& dims, int nlevels) {
  return kTidxHeaderBytes + tidx_entry_count(dims, nlevels) * sizeof(TidxEntry);
}

/// The tile index payload, a closed form of dims and each level's encode
/// plan (`plans[l - 1]` for level l): its chunk size, chunk count, payload
/// and header bytes, and chunk offsets.
std::vector<std::byte> build_tidx(const dev::Dim3& dims,
                                  std::span<const huffman::EncodePlan> plans) {
  const std::size_t slab_z = tidx_slab_z(dims);
  const std::size_t nslabs = tidx_nslabs(dims);
  const int nlevels = static_cast<int>(plans.size());
  core::ByteWriter w;
  w.reserve(static_cast<std::size_t>(tidx_payload_bytes(dims, nlevels)));
  w.put(kTidxVersion);
  w.put(static_cast<std::uint16_t>(0));
  w.put(static_cast<std::uint32_t>(slab_z));
  w.put(static_cast<std::uint32_t>(nlevels));
  w.put(static_cast<std::uint32_t>(nslabs));
  for (int level = nlevels; level >= 1; --level) {
    const auto& m = plans[static_cast<std::size_t>(level - 1)];
    for (std::size_t k = 0; k < nslabs; ++k) {
      const std::size_t rank =
          predictor::ginterp_level_prefix(dims, level, k * slab_z);
      // A slab starting past the level's last symbol (all of its positions
      // sit below the plane) points one past the payload.
      const std::size_t chunk = m.chunk_size == 0 ? 0 : rank / m.chunk_size;
      const std::uint64_t byte =
          chunk < m.nchunks ? m.offsets[chunk] : m.payload_bytes;
      w.put(TidxEntry{rank, byte, static_cast<std::uint32_t>(chunk),
                      static_cast<std::uint32_t>((m.header_bytes + byte) /
                                                 lossless::kLzssBlock)});
    }
  }
  return w.take();
}

/// Segments of an archive over `nlevels` levels: anchors, outliers, one
/// stream per level, and the trailing tile index.
constexpr std::size_t segment_count(int nlevels) {
  return static_cast<std::size_t>(nlevels) + 3;
}

/// Total header bytes of an archive over `nlevels` levels: fixed header,
/// u32 segment count, directory. Segment payloads start here.
constexpr std::size_t header_bytes(int nlevels) {
  return kInnerFixedBytes + sizeof(std::uint32_t) +
         segment_count(nlevels) * sizeof(SegmentEntry);
}

PackedConfig pack_config(const predictor::InterpConfig& cfg, int radius) {
  PackedConfig pc{};
  pc.alpha = cfg.alpha;
  for (int i = 0; i < 3; ++i) {
    pc.cubic[i] =
        static_cast<std::uint8_t>(cfg.cubic[static_cast<std::size_t>(i)]);
    pc.order[i] = cfg.dim_order[static_cast<std::size_t>(i)];
  }
  pc.radius = static_cast<std::uint16_t>(radius);
  return pc;
}

template <typename T>
constexpr Precision precision_of() {
  return sizeof(T) == 4 ? Precision::F32 : Precision::F64;
}

/// Builds the segment directory from the prediction output and the
/// per-level Huffman encode plans (`plans[l - 1]` for level l), before any
/// payload exists. Offsets are assigned contiguously from the end of the
/// header in archive order: anchors, outliers, levels descending, then the
/// trailing tile index (whose size is a closed form of dims).
template <typename T>
std::vector<SegmentEntry> make_directory(
    const predictor::GInterpViewT<T>& pred, const dev::Dim3& dims,
    std::span<const huffman::EncodePlan> plans) {
  const int nlevels = static_cast<int>(plans.size());
  std::vector<SegmentEntry> segs(segment_count(nlevels));
  std::uint64_t off = header_bytes(nlevels);
  segs[0].kind = kSegAnchors;
  segs[0].count = pred.anchors.size();
  segs[0].offset = off;
  segs[0].size = pred.anchors.size() * sizeof(T);
  off += segs[0].size;
  segs[1].kind = kSegOutliers;
  segs[1].count = pred.outliers.count();
  segs[1].offset = off;
  segs[1].size = quant::outlier_blob_bytes<T>(pred.outliers.count());
  off += segs[1].size;
  for (int j = 0; j < nlevels; ++j) {
    const int level = nlevels - j;
    auto& s = segs[2 + static_cast<std::size_t>(j)];
    s.kind = kSegLevel;
    s.level = static_cast<std::uint8_t>(level);
    const auto& plan = plans[static_cast<std::size_t>(level - 1)];
    s.count = plan.n;
    s.offset = off;
    s.size = plan.stream_bytes();
    off += s.size;
  }
  auto& tx = segs.back();
  tx.kind = kSegTileIndex;
  tx.count = tidx_entry_count(dims, nlevels);
  tx.offset = off;
  tx.size = tidx_payload_bytes(dims, nlevels);
  return segs;
}

}  // namespace

namespace detail {

template <typename T>
Tuned autotune_checked(std::span<const T> data, const dev::Dim3& dims,
                       const CompressParams& p, dev::Workspace& ws) {
  if (p.mode == ErrorMode::FixedRate)
    throw std::invalid_argument("cuSZ-i: fixed-rate mode not supported");
  if (p.mode == ErrorMode::PwRel)
    throw std::invalid_argument(
        "cuSZ-i: pointwise-relative mode requires with_pointwise_rel()");
  if (data.size() != dims.volume())
    throw std::invalid_argument("cuSZ-i: size/dims mismatch");

  auto prof = predictor::autotune(data, dims, p.value, ws);
  const double eb =
      p.mode == ErrorMode::Rel ? p.value * prof.value_range : p.value;
  if (eb <= 0) throw std::invalid_argument("cuSZ-i: non-positive error bound");
  if (p.mode == ErrorMode::Rel) {
    // ε changed meaning: recompute α for the absolute bound.
    prof.epsilon = p.value;
    prof.config.alpha = predictor::alpha_of_epsilon(prof.epsilon);
  }
  return {eb, prof.config};
}

/// The SZI2 writer behind every compress path, raw and wrapped, in phases
/// that each span the pool. Every level's Huffman stream is planned
/// (per-chunk sizes, then offsets), which freezes the directory — every
/// segment's offset and size — before the first payload byte. Then the
/// header, directory, anchors and outliers are written, each level's chunks
/// are emitted straight into their final slot, and the tile index follows
/// from the plans. The archive is assembled once, in `ws` memory (valid
/// until the caller resets `ws`). Level l's codes and codebook are
/// `levels.streams[l - 1]` and `books[l - 1]`.
template <typename T>
std::span<const std::byte> write_v2(const predictor::GInterpViewT<T>& pred,
                                    const predictor::GInterpLevelSplit& levels,
                                    std::span<const huffman::Codebook> books,
                                    const dev::Dim3& dims, const Tuned& tuned,
                                    int radius, dev::Workspace& ws) {
  const std::size_t nlevels = levels.streams.size();
  std::vector<huffman::EncodePlan> plans(nlevels);
  for (std::size_t i = 0; i < nlevels; ++i)
    plans[i] = huffman::encode_plan(levels.streams[i], books[i],
                                    huffman::kDefaultChunk, ws);
  const auto segs = make_directory<T>(pred, dims, plans);
  auto raw = ws.make<std::byte>(
      static_cast<std::size_t>(segs.back().offset + segs.back().size));

  std::byte* wp = raw.data();
  const auto put_raw = [&wp](std::span<const std::byte> b) {
    if (!b.empty()) std::memcpy(wp, b.data(), b.size());
    wp += b.size();
  };
  const auto put = [&put_raw](const auto& v) {
    put_raw(std::as_bytes(std::span(&v, 1)));
  };
  put(kMagic);
  put(static_cast<std::uint8_t>(precision_of<T>()));
  put(static_cast<std::uint64_t>(dims.x));
  put(static_cast<std::uint64_t>(dims.y));
  put(static_cast<std::uint64_t>(dims.z));
  put(tuned.eb);
  put(pack_config(tuned.cfg, radius));
  put(static_cast<std::uint32_t>(segs.size()));
  put_raw(std::as_bytes(std::span(segs)));
  put_raw(std::as_bytes(pred.anchors));
  quant::write_outlier_blob(
      pred.outliers, raw.subspan(static_cast<std::size_t>(segs[1].offset),
                                 static_cast<std::size_t>(segs[1].size)));

  for (std::size_t i = 0; i < nlevels; ++i) {
    const auto& seg = segs[2 + nlevels - 1 - i];  // levels run descending
    const auto dst = raw.subspan(static_cast<std::size_t>(seg.offset),
                                 static_cast<std::size_t>(seg.size));
    huffman::write_stream_header(plans[i], books[i], dst);
    huffman::encode_chunks(levels.streams[i], books[i], plans[i], 0,
                           plans[i].nchunks,
                           dst.subspan(plans[i].header_bytes));
  }
  const auto tidx = build_tidx(dims, plans);
  std::memcpy(raw.data() + static_cast<std::size_t>(segs.back().offset),
              tidx.data(), tidx.size());
  return raw;
}

template Tuned autotune_checked<float>(std::span<const float>,
                                      const dev::Dim3&, const CompressParams&,
                                      dev::Workspace&);
template Tuned autotune_checked<double>(std::span<const double>,
                                       const dev::Dim3&, const CompressParams&,
                                       dev::Workspace&);
template std::span<const std::byte> write_v2<float>(
    const predictor::GInterpViewT<float>&, const predictor::GInterpLevelSplit&,
    std::span<const huffman::Codebook>, const dev::Dim3&, const Tuned&, int,
    dev::Workspace&);
template std::span<const std::byte> write_v2<double>(
    const predictor::GInterpViewT<double>&,
    const predictor::GInterpLevelSplit&, std::span<const huffman::Codebook>,
    const dev::Dim3&, const Tuned&, int, dev::Workspace&);

}  // namespace detail

namespace {

/// Autotune, prediction, codebooks and the writer: everything up to the
/// inner archive, which lives in `ws` memory. The predict kernel re-buckets
/// each owned row's codes into per-level streams, with one exact histogram
/// per level as a byproduct. Fills `t` except `total`.
template <typename T>
std::span<const std::byte> compress_v2(std::span<const T> data,
                                       const dev::Dim3& dims,
                                       const CompressParams& p, StageTimings& t,
                                       dev::Workspace& ws) {
  core::Timer stage;
  const detail::Tuned tuned = detail::autotune_checked(data, dims, p, ws);
  constexpr int kRadius = quant::kDefaultRadius;
  const auto fl = predictor::ginterp_compress_fused_levels(
      data, dims, tuned.eb, tuned.cfg, kRadius, ws);
  t.predict = stage.lap();
  t.histogram_fused = true;

  const auto books = huffman::build_level_books(fl.levels.histograms);
  t.codebook = stage.lap();

  const auto raw = detail::write_v2<T>(fl.pred, fl.levels, books, dims, tuned,
                                       kRadius, ws);
  t.encode = stage.lap();
  return raw;
}

/// A raw SZI2 archive.
template <typename T>
std::vector<std::byte> compress_typed(std::span<const T> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& p,
                                      StageTimings* timings,
                                      dev::Workspace& ws) {
  core::Timer total;
  StageTimings t;
  const auto raw = compress_v2<T>(data, dims, p, t, ws);
  std::vector<std::byte> out(raw.begin(), raw.end());
  ws.reset();
  t.total = total.lap();
  if (timings) *timings = t;
  return out;
}

template <typename T>
std::vector<std::byte> compress_typed(std::span<const T> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& p,
                                      StageTimings* timings) {
  // Throwaway arena: malloc-equivalent lifetime, no global memory retained.
  // Pooling across calls is opt-in via the Workspace overload.
  dev::Arena local;
  dev::Workspace ws(local);
  return compress_typed<T>(data, dims, p, timings, ws);
}

/// A wrapped ('BBC2') archive: the same inner archive as compress_typed,
/// then the one wrap phase (bitcomp_wrap_archive's workspace form) over it,
/// so the bytes equal bitcomp_wrap_archive(compress_typed(...), mode) by
/// construction. Wrap time is folded into `encode`.
template <typename T>
std::vector<std::byte> compress_bitcomp_typed(std::span<const T> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& p,
                                              StageTimings* timings,
                                              dev::Workspace& ws,
                                              lossless::LzssMode mode) {
  core::Timer total;
  StageTimings t;
  const auto raw = compress_v2<T>(data, dims, p, t, ws);
  core::Timer wrap;
  auto out = bitcomp_wrap_archive(raw, mode, lossless::MethodPolicy::Auto,
                                  nullptr, ws);
  ws.reset();
  t.encode += wrap.lap();
  t.total = total.lap();
  if (timings) *timings = t;
  return out;
}

struct InnerHeader {
  dev::Dim3 dims;
  std::size_t volume = 0;
  double eb = 0;
  predictor::InterpConfig cfg;
  int radius = 0;
};

/// Parses + validates the fixed kInnerFixedBytes header.
template <typename T>
InnerHeader parse_inner_header(core::ByteReader& rd) {
  rd.expect_magic(kMagic);
  const auto prec_byte = rd.read<std::uint8_t>();
  if (prec_byte > static_cast<std::uint8_t>(Precision::F64))
    rd.fail("unknown precision byte");
  if (static_cast<Precision>(prec_byte) != precision_of<T>())
    rd.fail("archive precision mismatch");
  InnerHeader h;
  h.dims.x = rd.read<std::uint64_t>();
  h.dims.y = rd.read<std::uint64_t>();
  h.dims.z = rd.read<std::uint64_t>();
  h.volume =
      core::checked_volume("cusz-i", rd.offset(), h.dims.x, h.dims.y, h.dims.z);
  (void)rd.checked_array_bytes(h.volume, sizeof(T));
  h.eb = rd.read<double>();
  const auto pc = rd.read<PackedConfig>();
  h.cfg.alpha = pc.alpha;
  for (int i = 0; i < 3; ++i) {
    if (pc.cubic[i] > static_cast<std::uint8_t>(predictor::CubicKind::Natural))
      rd.fail("unknown cubic kind");
    if (pc.order[i] > 2) rd.fail("interpolation dim order out of range");
    h.cfg.cubic[static_cast<std::size_t>(i)] =
        static_cast<predictor::CubicKind>(pc.cubic[i]);
    h.cfg.dim_order[static_cast<std::size_t>(i)] = pc.order[i];
  }
  h.radius = pc.radius;
  return h;
}

/// Parses the outlier segment `seg`'s blob into workspace arrays and checks
/// its count against the directory's.
template <typename T>
quant::OutlierViewT<T> parse_outliers(std::span<const std::byte> blob,
                                      const SegmentEntry& seg,
                                      dev::Workspace& ws) {
  const auto v = quant::parse_outlier_blob<T>(blob, ws);
  if (v.count() != seg.count)
    throw core::CorruptArchive("cusz-i", seg.offset,
                               "outlier blob count disagrees with directory");
  return v;
}

/// Parses + validates the segment directory against the header's geometry:
/// the segment count, kinds, levels, counts, and sizes are all derivable
/// from `dims` (and the outlier count), so every field is checked against
/// its closed form; offsets must be exactly contiguous from the end of the
/// header. The caller's ByteReader sits right after the fixed header and is
/// left at the first segment payload.
template <typename T>
std::vector<SegmentEntry> parse_directory(core::ByteReader& rd,
                                          const InnerHeader& h) {
  const int nlevels = predictor::ginterp_level_count(h.dims);
  // Anchors + outliers + levels + the trailing tile index; anything else
  // (the pre-index layout included) is corrupt.
  const auto nseg = rd.read<std::uint32_t>();
  if (nseg != segment_count(nlevels)) rd.fail("segment count mismatch");
  std::vector<SegmentEntry> segs(nseg);
  for (auto& s : segs) s = rd.read<SegmentEntry>();
  std::uint64_t cursor = rd.offset();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto& s = segs[i];
    if (s.reserved0 != 0 || s.reserved1 != 0)
      rd.fail("reserved segment field set");
    if (s.offset != cursor) rd.fail("segment offsets not contiguous");
    if (s.size > std::numeric_limits<std::uint64_t>::max() - cursor)
      rd.fail("segment extent overflows");
    cursor += s.size;
    if (i == 0) {
      if (s.kind != kSegAnchors || s.level != 0)
        rd.fail("first segment is not the anchor grid");
      if (s.size != rd.checked_array_bytes(
                        static_cast<std::size_t>(s.count), sizeof(T)))
        rd.fail("anchor segment size mismatch");
    } else if (i == 1) {
      if (s.kind != kSegOutliers || s.level != 0)
        rd.fail("second segment is not the outlier set");
      if (s.count > h.volume) rd.fail("outlier count exceeds volume");
      if (s.size != quant::outlier_blob_bytes<T>(
                        static_cast<std::size_t>(s.count)))
        rd.fail("outlier segment size mismatch");
    } else if (i < 2 + static_cast<std::size_t>(nlevels)) {
      const int level = nlevels - static_cast<int>(i) + 2;
      if (s.kind != kSegLevel || s.level != level)
        rd.fail("level segments out of order");
      if (s.count != predictor::ginterp_level_volume(h.dims, level))
        rd.fail("level symbol count mismatch");
    } else {
      if (s.kind != kSegTileIndex || s.level != 0)
        rd.fail("trailing segment is not the tile index");
      if (s.count != tidx_entry_count(h.dims, nlevels))
        rd.fail("tile index entry count mismatch");
      if (s.size != tidx_payload_bytes(h.dims, nlevels))
        rd.fail("tile index size mismatch");
    }
  }
  return segs;
}

// ---- The decoder ----------------------------------------------------------
//
// One decoder serves every request. A full decode is the level-1 lattice of
// the whole field, a preview the level-L lattice (the positions whose
// interpolated coordinates are multiples of 2^(L-1); L = level_count + 1 is
// the anchor grid), an ROI the level-1 box. It runs in phases, each one
// pool-wide launch or none:
//   1. header      — the fixed header and the directory (whose size is a
//                    closed form of dims), validated;
//   2. fetch       — the inner byte ranges the request covers: views of a
//                    raw source, or the covering LZSS blocks of a 'BBC2'
//                    container decoded into workspace memory. A whole
//                    request fetches one contiguous range; a box request
//                    fetches the tile index first, then exactly the bytes
//                    covering its halo'd box;
//   3. huffman     — every covered (level, chunk) pair;
//   4. scatter     — plane-parallel onto the request's lattice window;
//   5. reconstruct — the covered slabs, straight into caller memory; a box
//                    reconstructs its halo'd box in scratch and crops it.
// The two request kinds differ only in the fetch, which fills the same
// per-level input for the phases after it. Work and memory scale with the
// request: a preview never touches a full-volume buffer, and a whole
// request never reads the tile index.

/// One decode: the level-`level` lattice of the whole field, or the box at
/// level 1. `all_blocks` makes a wrapped decode unwrap every block of the
/// container, as bitcomp_unwrap_archive does — the full-decode entry points
/// validate the whole archive, previews and boxes only what they read.
struct DecodeRequest {
  int level = 1;
  const RoiBox* box = nullptr;
  bool all_blocks = false;
};

/// The validated fixed header and segment directory.
struct ArchiveHeader {
  InnerHeader h;
  std::vector<SegmentEntry> segs;
  int nlevels = 0;
};

/// Header phase: the fixed header, whose dims fix the directory's size,
/// then the directory — exactly the archive's first header_bytes bytes.
template <typename T>
ArchiveHeader read_header(InnerBytes& inner) {
  const auto fixed = inner.fetch(0, kInnerFixedBytes);
  std::vector<std::byte> hdr(fixed.begin(), fixed.end());
  ArchiveHeader a;
  {
    core::ByteReader rd(hdr, "cusz-i");
    a.nlevels = predictor::ginterp_level_count(parse_inner_header<T>(rd).dims);
  }
  const auto dir =
      inner.fetch(kInnerFixedBytes, header_bytes(a.nlevels) - kInnerFixedBytes);
  hdr.insert(hdr.end(), dir.begin(), dir.end());
  core::ByteReader rd(hdr, "cusz-i");
  a.h = parse_inner_header<T>(rd);
  a.segs = parse_directory<T>(rd, a.h);
  return a;
}

/// Segment of level `level` in directory order (levels run descending).
/// Level level_count + 1, the anchor grid, maps to the outlier segment:
/// the last one a preview at that level needs.
std::size_t level_segment(int nlevels, int level) {
  return static_cast<std::size_t>(2 + nlevels - level);
}

/// Consecutive chunks [begin, end) of one level stream and the payload
/// bytes that hold them, which start at payload byte `at`.
struct ChunkRun {
  std::size_t begin = 0, end = 0;
  std::uint64_t at = 0;
  std::span<const std::byte> bytes;
};

/// What a fetch hands the phases after it for one level: the decode plan,
/// the inner offset of the payload, the covered chunk runs with their
/// bytes, and the rank window [first, first + window.size()) they decode
/// into.
struct LevelInput {
  huffman::DecodePlan plan;
  std::uint64_t payload_at = 0;
  std::vector<ChunkRun> runs;
  std::size_t first = 0;
  std::span<quant::Code> window;
};

template <typename T>
class Decoder {
 public:
  /// Reads the layout, runs the header phase and sizes the request.
  Decoder(io::ArchiveSource& src, const DecodeRequest& req, dev::Workspace& ws)
      : inner_(src, ws), ws_(ws), req_(req),
        a_(read_header<T>(inner_)),
        levels_(static_cast<std::size_t>(a_.nlevels)) {
    const auto& dims = a_.h.dims;
    level_ = std::clamp(req.level, 1, a_.nlevels + 1);
    if (req.box != nullptr) {
      level_ = 1;
      plan_ = predictor::ginterp_roi_plan(dims, req.box->lo, req.box->ext);
      // A box covering the field is a whole request.
      if (req.box->ext == dims) req_.box = nullptr;
    }
    out_dims_ = req_.box != nullptr
                    ? req_.box->ext
                    : predictor::ginterp_preview_dims(dims, level_);
  }

  [[nodiscard]] const dev::Dim3& out_dims() const { return out_dims_; }
  [[nodiscard]] int level() const { return level_; }

  /// Phases 2-5 into `out`, which is sized to out_dims() once the scratch
  /// is drawn — so a field-size output lands above the workspace blocks,
  /// not below them, and a freed output merges back into free memory.
  void run(std::vector<T>& out);

  [[nodiscard]] const DecodeTimings& timings() const { return t_; }

 private:
  void fetch_whole();
  void fetch_box();
  LevelInput& plan_level(int level, std::span<const std::byte> head);

  InnerBytes inner_;
  dev::Workspace& ws_;
  DecodeRequest req_;
  ArchiveHeader a_;
  int level_ = 1;
  predictor::GInterpRoiPlan plan_;
  dev::Dim3 out_dims_;
  std::span<const T> anchors_;  ///< the fetched anchors (a box: its window)
  quant::OutlierViewT<T> outliers_;
  std::vector<LevelInput> levels_;  ///< indexed by level - 1
  DecodeTimings t_;
};

/// Level `level`'s decode plan from `head`, its stream's leading bytes
/// (the header at least), checked against the directory's symbol count.
template <typename T>
LevelInput& Decoder<T>::plan_level(int level, std::span<const std::byte> head) {
  const auto& seg = a_.segs[level_segment(a_.nlevels, level)];
  auto& in = levels_[static_cast<std::size_t>(level - 1)];
  in.plan = huffman::decode_plan_header(head, seg.size, ws_);
  if (in.plan.n != seg.count)
    throw core::CorruptArchive("cusz-i", seg.offset,
                               "level stream symbol count mismatch");
  in.payload_at = seg.offset + huffman::stream_header_bytes(head, seg.size);
  return in;
}

/// A whole request's fetch: anchors, outliers and the levels >= L, one
/// contiguous range (every block of a container with `all_blocks`). Each
/// of those levels decodes whole, as one chunk run.
template <typename T>
void Decoder<T>::fetch_whole() {
  const auto& segs = a_.segs;
  const auto& last = segs[level_segment(a_.nlevels, level_)];
  const std::uint64_t base = segs[0].offset;
  const std::uint64_t need = last.offset + last.size - base;
  const auto body = inner_.fetch(
      base, req_.all_blocks ? inner_.size() - std::min(base, inner_.size())
                            : need);
  if (body.size() < need)
    throw core::CorruptArchive("cusz-i", base + body.size(),
                               "archive truncated");
  const auto take = [&](std::uint64_t off, std::uint64_t len) {
    return body.subspan(static_cast<std::size_t>(off - base),
                        static_cast<std::size_t>(len));
  };
  auto anchors = ws_.make<T>(static_cast<std::size_t>(segs[0].count));
  std::memcpy(anchors.data(), take(segs[0].offset, segs[0].size).data(),
              anchors.size_bytes());
  anchors_ = anchors;
  outliers_ =
      parse_outliers<T>(take(segs[1].offset, segs[1].size), segs[1], ws_);
  for (int level = level_; level <= a_.nlevels; ++level) {
    const auto& seg = segs[level_segment(a_.nlevels, level)];
    auto& in = plan_level(level, take(seg.offset, seg.size));
    in.runs.push_back({0, in.plan.nchunks, 0,
                       take(in.payload_at, in.plan.payload_bytes)});
    in.window = ws_.make<quant::Code>(in.plan.n);
  }
}

/// A box request's fetch, in exact reads: the tile index; then the
/// covering anchor rows, the outlier blob and each level's stream header,
/// grown in rounds that each fetch only the bytes earlier rounds did not;
/// then the chunk runs covering the halo'd box.
template <typename T>
void Decoder<T>::fetch_box() {
  const InnerHeader& h = a_.h;
  const auto& segs = a_.segs;
  const int nl = a_.nlevels;
  const auto nlv = levels_.size();

  const auto& tseg = segs.back();
  const auto tidx = inner_.fetch(tseg.offset, tseg.size);
  if (tidx.size() != tseg.size)
    throw core::CorruptArchive("cusz-i", tseg.offset, "tile index truncated");

  // Round 1: the covering anchor rows, the outlier blob, and the first
  // bytes of each level's stream header (levels in directory order).
  const auto geo = predictor::geometry_for(h.dims);
  const dev::Dim3 ad = predictor::anchor_dims(h.dims, geo.anchor);
  if (segs[0].count != ad.volume())
    throw core::CorruptArchive("cusz-i", segs[0].offset,
                               "anchor count mismatch");
  const dev::Dim3& a0 = plan_.anchor_lo;
  const dev::Dim3 an = {plan_.anchor_hi.x - a0.x, plan_.anchor_hi.y - a0.y,
                        plan_.anchor_hi.z - a0.z};
  const std::size_t nrows = an.volume() == 0 ? 0 : an.y * an.z;
  std::vector<InnerBytes::Range> ranges;
  for (std::size_t az = a0.z; az < plan_.anchor_hi.z && nrows > 0; ++az)
    for (std::size_t ay = a0.y; ay < plan_.anchor_hi.y; ++ay)
      ranges.push_back(
          {segs[0].offset + dev::linearize(ad, a0.x, ay, az) * sizeof(T),
           an.x * sizeof(T)});
  ranges.push_back({segs[1].offset, segs[1].size});
  std::vector<std::vector<std::byte>> head(nlv);
  const auto header_ranges = [&] {
    for (std::size_t j = 0; j < nlv; ++j) {
      const auto& seg = segs[2 + j];
      const std::uint64_t have = head[j].size();
      const auto want = huffman::stream_header_bytes(head[j], seg.size);
      ranges.push_back({seg.offset + have, want > have ? want - have : 0});
    }
  };
  const auto grow_headers = [&](std::span<const std::span<const std::byte>> b) {
    for (std::size_t j = 0; j < nlv; ++j)
      head[j].insert(head[j].end(), b[j].begin(), b[j].end());
  };
  header_ranges();
  const auto round1 = inner_.fetch(ranges);
  auto anchors = ws_.make<T>(an.volume());
  for (std::size_t r = 0; r < nrows; ++r) {
    if (round1[r].size() != an.x * sizeof(T))
      throw core::CorruptArchive("cusz-i", segs[0].offset,
                                 "anchor segment truncated");
    std::memcpy(anchors.data() + r * an.x, round1[r].data(), round1[r].size());
  }
  anchors_ = anchors;
  outliers_ = parse_outliers<T>(round1[nrows], segs[1], ws_);
  grow_headers(std::span(round1).subspan(nrows + 1));
  // Rounds 2 and 3: each header's fixed part, then its chunk offset table.
  for (int round = 2; round <= 3; ++round) {
    ranges.clear();
    header_ranges();
    grow_headers(inner_.fetch(ranges));
  }

  // The tile index must be the closed form the writer builds from dims
  // and the level streams' plans.
  std::vector<huffman::EncodePlan> written(nlv);
  for (std::size_t j = 0; j < nlv; ++j) {
    const int level = nl - static_cast<int>(j);
    const auto& in = plan_level(level, head[j]);
    written[static_cast<std::size_t>(level - 1)] = {
        .n = in.plan.n,
        .chunk_size = in.plan.chunk_size,
        .nchunks = in.plan.nchunks,
        .payload_bytes = in.plan.payload_bytes,
        .header_bytes =
            static_cast<std::size_t>(in.payload_at - segs[2 + j].offset),
        .offsets = in.plan.offsets};
  }
  const auto expect = build_tidx(h.dims, written);
  if (!std::equal(tidx.begin(), tidx.begin() + kTidxHeaderBytes,
                  expect.begin()))
    throw core::CorruptArchive("cusz-i", tseg.offset,
                               "tile index header mismatch");
  if (!std::equal(tidx.begin(), tidx.end(), expect.begin(), expect.end()))
    throw core::CorruptArchive("cusz-i", tseg.offset,
                               "tile index entry mismatch");

  // Per level, the chunk runs covering the halo'd box's rank runs. Runs
  // arrive in ascending rank order, so the chunks they touch merge into a
  // short list of disjoint runs; within a z-plane the box's y-band is a
  // contiguous rank band, which keeps the read set proportional to the box
  // in y and z, not just z.
  ranges.clear();
  for (int level = nl; level >= 1; --level) {
    auto& in = levels_[static_cast<std::size_t>(level - 1)];
    if (in.plan.n == 0) continue;
    const std::size_t cs = in.plan.chunk_size;
    predictor::ginterp_level_box_runs(
        h.dims, level, plan_.box_lo, plan_.box_dims,
        [&](std::size_t rank, std::size_t count, std::size_t, std::size_t,
            std::size_t, std::size_t) {
          const std::size_t cb = rank / cs;
          const std::size_t ce = (rank + count - 1) / cs + 1;
          if (!in.runs.empty() && cb <= in.runs.back().end)
            in.runs.back().end = std::max(in.runs.back().end, ce);
          else
            in.runs.push_back({cb, ce, 0, {}});
        });
    if (in.runs.empty()) continue;
    in.first = in.runs.front().begin * cs;
    in.window = ws_.make<quant::Code>(
        std::min(in.runs.back().end * cs, in.plan.n) - in.first);
    for (auto& r : in.runs) {
      r.at = in.plan.offsets[r.begin];
      const std::uint64_t hi = r.end < in.plan.nchunks
                                   ? in.plan.offsets[r.end]
                                   : in.plan.payload_bytes;
      ranges.push_back({in.payload_at + r.at, hi - r.at});
    }
  }
  const auto payloads = inner_.fetch(ranges);
  for (std::size_t level = nlv, k = 0; level >= 1; --level)
    for (auto& r : levels_[level - 1].runs) r.bytes = payloads[k++];
}

template <typename T>
void Decoder<T>::run(std::vector<T>& out) {
  const InnerHeader& h = a_.h;
  core::Timer hufft;
  const double unwrap0 = inner_.unwrap_seconds();
  if (req_.box != nullptr) fetch_box();
  else fetch_whole();

  // Huffman: every covered (level, chunk), coarsest level first, in one
  // launch.
  struct Task {
    const LevelInput* in;
    const ChunkRun* run;
    std::size_t chunk;
  };
  std::vector<Task> tasks;
  for (auto in = levels_.rbegin(); in != levels_.rend(); ++in)
    for (const auto& r : in->runs)
      for (std::size_t c = r.begin; c < r.end; ++c)
        tasks.push_back({&*in, &r, c});
  dev::ThreadPool::instance().parallel_for(
      tasks.size(),
      [&](std::size_t k) {
        const auto [in, r, c] = tasks[k];
        const std::size_t cs = in->plan.chunk_size;
        const std::size_t end = std::min((c + 1) * cs, in->plan.n);
        huffman::decode_chunks_range(
            in->plan, r->bytes, r->at, c, c + 1,
            in->window.subspan(c * cs - in->first, end - c * cs));
      },
      1);

  // Scatter onto the request's lattice window: the whole level-L lattice,
  // or a box's halo'd box at level 1.
  const bool box = req_.box != nullptr;
  const dev::Dim3 lo = box ? plan_.box_lo : dev::Dim3{0, 0, 0};
  const dev::Dim3& win = box ? plan_.box_dims : out_dims_;
  std::vector<std::span<const quant::Code>> streams;
  std::vector<std::size_t> first;
  for (const auto& in : levels_) {
    streams.push_back(in.window);
    first.push_back(in.first);
  }
  auto codes = ws_.make<quant::Code>(win.volume());
  predictor::ginterp_scatter_levels(h.dims, level_, lo, win, streams, first,
                                    static_cast<quant::Code>(h.radius), codes);
  t_.huffman = hufft.lap() - (inner_.unwrap_seconds() - unwrap0);

  // Reconstruct: straight into `out` for a whole request; a box's halo'd
  // box in scratch, then the box cropped from it.
  core::Timer recont;
  if (!box) {
    out.resize(out_dims_.volume());
    predictor::GInterpReconstructorT<T>(codes, anchors_, outliers_, h.dims,
                                        h.eb, h.cfg, h.radius,
                                        std::span<T>(out), level_)
        .run();
  } else {
    auto boxout = ws_.make<T>(win.volume());
    dev::launch_linear(
        win.z,
        [&](std::size_t z) {
          std::fill_n(boxout.data() + z * win.x * win.y, win.x * win.y, T{});
        },
        1);
    predictor::GInterpReconstructorT<T>(codes, anchors_, outliers_, plan_,
                                        h.dims, h.eb, h.cfg, h.radius, boxout)
        .run();
    const RoiBox& b = *req_.box;
    const dev::Dim3 o = {b.lo.x - lo.x, b.lo.y - lo.y, b.lo.z - lo.z};
    out.resize(b.ext.volume());
    dev::launch_linear(
        b.ext.z,
        [&](std::size_t z) {
          for (std::size_t y = 0; y < b.ext.y; ++y)
            std::memcpy(
                out.data() + dev::linearize(b.ext, 0, y, z),
                boxout.data() + dev::linearize(win, o.x, o.y + y, o.z + z),
                b.ext.x * sizeof(T));
        },
        1);
  }
  t_.reconstruct = recont.lap();
  t_.unwrap = inner_.unwrap_seconds();
}

/// One request over `src`, returned in a fresh vector with its grid, the
/// bytes it fetched and its timings.
template <typename T>
DecodeResultT<T> decode(io::ArchiveSource& src, const DecodeRequest& req,
                        dev::Workspace& ws) {
  core::Timer wall;
  const std::uint64_t before = src.bytes_read();
  DecodeResultT<T> r;
  Decoder<T> d(src, req, ws);
  r.dims = d.out_dims();
  r.level = d.level();
  d.run(r.data);
  ws.reset();
  r.bytes_read = static_cast<std::size_t>(src.bytes_read() - before);
  r.timings = d.timings();
  r.timings.total = wall.lap();
  return r;
}

/// Full decode of a raw or 'BBC2' archive.
template <typename T>
std::vector<T> decompress_typed(std::span<const std::byte> bytes,
                                dev::Workspace& ws, DecodeTimings* dt) {
  io::MemorySource src(bytes);
  auto r = decode<T>(src, {.all_blocks = true}, ws);
  if (dt) *dt = r.timings;
  return std::move(r.data);
}

/// A preview or box request, with scratch from the shared arena.
template <typename T>
DecodeResultT<T> request(io::ArchiveSource& src, const DecodeRequest& req) {
  dev::Workspace ws(dev::Arena::instance());
  return decode<T>(src, req, ws);
}

template <typename T>
DecodeResultT<T> request(std::span<const std::byte> bytes,
                         const DecodeRequest& req) {
  io::MemorySource src(bytes);
  return request<T>(src, req);
}

/// The Compressor-interface adapter over the f32 typed API: the fused
/// pipeline, with scratch pooled in Arena::instance(). with_bitcomp()
/// composes these with the wrap and unwrap.
class Cuszi final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "cuSZ-i"; }

  [[nodiscard]] CompressResult compress(const Field& field,
                                        const CompressParams& p) override {
    CompressResult r;
    dev::Workspace ws(dev::Arena::instance());
    r.bytes = compress_typed<float>(field.data, field.dims, p, &r.timings, ws);
    return r;
  }

  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::byte> bytes) override {
    dev::Workspace ws(dev::Arena::instance());
    return decompress_typed<float>(bytes, ws, nullptr);
  }
};

}  // namespace

std::unique_ptr<Compressor> make_cuszi() { return std::make_unique<Cuszi>(); }

std::vector<std::byte> cuszi_compress(std::span<const float> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings) {
  return compress_typed<float>(data, dims, params, timings);
}

std::vector<std::byte> cuszi_compress(std::span<const double> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings) {
  return compress_typed<double>(data, dims, params, timings);
}

std::vector<std::byte> cuszi_compress(std::span<const float> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings,
                                      dev::Workspace& ws) {
  return compress_typed<float>(data, dims, params, timings, ws);
}

std::vector<std::byte> cuszi_compress(std::span<const double> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings,
                                      dev::Workspace& ws) {
  return compress_typed<double>(data, dims, params, timings, ws);
}

std::vector<std::byte> cuszi_compress_bitcomp(std::span<const float> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& params,
                                              StageTimings* timings,
                                              dev::Workspace& ws,
                                              lossless::LzssMode mode) {
  return compress_bitcomp_typed<float>(data, dims, params, timings, ws, mode);
}

std::vector<std::byte> cuszi_compress_bitcomp(std::span<const double> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& params,
                                              StageTimings* timings,
                                              dev::Workspace& ws,
                                              lossless::LzssMode mode) {
  return compress_bitcomp_typed<double>(data, dims, params, timings, ws, mode);
}

Precision cuszi_archive_precision(std::span<const std::byte> bytes) {
  // Buffers shorter than magic + precision throw CorruptArchive (not UB),
  // and the magic is verified before the precision byte is interpreted.
  core::ByteReader rd(bytes, "cusz-i");
  rd.expect_magic(kMagic);
  const auto prec = rd.read<std::uint8_t>();
  if (prec > static_cast<std::uint8_t>(Precision::F64))
    rd.fail("unknown precision byte");
  return static_cast<Precision>(prec);
}

std::vector<SegmentInfo> cuszi_archive_segments(
    std::span<const std::byte> bytes) {
  // The decoder's header phase: through a 'BBC2' container only the blocks
  // covering the header and directory decode.
  io::MemorySource src(bytes);
  dev::Workspace ws(dev::Arena::instance());
  InnerBytes inner(src, ws);
  const auto segs =
      cuszi_archive_precision(inner.fetch(0, sizeof(kMagic) + 1)) ==
              Precision::F32
          ? read_header<float>(inner).segs
          : read_header<double>(inner).segs;
  std::vector<SegmentInfo> out(segs.size());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    out[i].kind = segs[i].kind;
    out[i].level = segs[i].level;
    out[i].count = segs[i].count;
    out[i].offset = segs[i].offset;
    out[i].size = segs[i].size;
  }
  return out;
}

DecodeResultT<float> cuszi_decompress_progressive_f32(
    std::span<const std::byte> bytes, int max_level) {
  return request<float>(bytes, {.level = max_level});
}

DecodeResultT<double> cuszi_decompress_progressive_f64(
    std::span<const std::byte> bytes, int max_level) {
  return request<double>(bytes, {.level = max_level});
}

DecodeResultT<float> cuszi_decompress_roi_f32(io::ArchiveSource& src,
                                              const RoiBox& box) {
  return request<float>(src, {.box = &box});
}

DecodeResultT<double> cuszi_decompress_roi_f64(io::ArchiveSource& src,
                                               const RoiBox& box) {
  return request<double>(src, {.box = &box});
}

DecodeResultT<float> cuszi_decompress_roi_f32(std::span<const std::byte> bytes,
                                              const RoiBox& box) {
  return request<float>(bytes, {.box = &box});
}

DecodeResultT<double> cuszi_decompress_roi_f64(
    std::span<const std::byte> bytes, const RoiBox& box) {
  return request<double>(bytes, {.box = &box});
}

std::vector<float> cuszi_decompress_f32(std::span<const std::byte> bytes,
                                        DecodeTimings* timings) {
  dev::Workspace ws(dev::Arena::instance());
  return decompress_typed<float>(bytes, ws, timings);
}

std::vector<double> cuszi_decompress_f64(std::span<const std::byte> bytes,
                                         DecodeTimings* timings) {
  dev::Workspace ws(dev::Arena::instance());
  return decompress_typed<double>(bytes, ws, timings);
}

std::vector<float> cuszi_decompress_f32(std::span<const std::byte> bytes,
                                        dev::Workspace& ws) {
  return decompress_typed<float>(bytes, ws, nullptr);
}

std::vector<double> cuszi_decompress_f64(std::span<const std::byte> bytes,
                                         dev::Workspace& ws) {
  return decompress_typed<double>(bytes, ws, nullptr);
}

std::vector<float> cuszi_decompress_bitcomp_f32(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings) {
  return decompress_typed<float>(bytes, ws, timings);
}

std::vector<double> cuszi_decompress_bitcomp_f64(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings) {
  return decompress_typed<double>(bytes, ws, timings);
}

}  // namespace szi
