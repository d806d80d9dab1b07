#include "core/cuszi.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/bytes.hh"
#include "core/inner_bytes.hh"
#include "core/timer.hh"
#include "device/thread_pool.hh"
#include "huffman/histogram.hh"
#include "huffman/huffman.hh"
#include "io/archive_source.hh"
#include "metrics/stats.hh"
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
/// closed form of (dims, per-level chunk tables), so decoders re-derive and
/// cross-check all of it.
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
      TidxEntry e{};
      e.sym_rank = predictor::ginterp_level_prefix(dims, level, k * slab_z);
      // A slab starting past the level's last symbol (all of its positions
      // sit below the plane) points one past the payload.
      const std::size_t chunk =
          m.chunk_size == 0
              ? 0
              : static_cast<std::size_t>(e.sym_rank) / m.chunk_size;
      e.huff_chunk = static_cast<std::uint32_t>(chunk);
      e.code_byte = chunk < m.nchunks ? m.offsets[chunk] : m.payload_bytes;
      e.wrap_block = static_cast<std::uint32_t>(
          (m.header_bytes + e.code_byte) / lossless::kLzssBlock);
      w.put(e);
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

/// First four archive bytes, or 0 when the buffer is shorter — callers
/// dispatch on the value and let the selected parser report truncation.
std::uint32_t peek_magic(std::span<const std::byte> bytes) {
  std::uint32_t m = 0;
  if (bytes.size() >= sizeof(m)) std::memcpy(&m, bytes.data(), sizeof(m));
  return m;
}

template <typename T>
constexpr Precision precision_of() {
  return sizeof(T) == 4 ? Precision::F32 : Precision::F64;
}

struct Tuned {
  double eb;
  predictor::InterpConfig cfg;
};

/// Shared front half of every compress path: parameter validation plus the
/// profiling auto-tune kernel (which also resolves Rel -> Abs).
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
  segs[1].size = sizeof(std::uint64_t) + pred.outliers.byte_size();
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

/// The SZI2 writer behind every default compress path, raw and wrapped, in
/// phases that each span the pool. Every level's Huffman stream is planned
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
  put(static_cast<std::uint64_t>(pred.outliers.count()));
  put_raw(std::as_bytes(pred.outliers.indices));
  put_raw(std::as_bytes(pred.outliers.values));

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

/// Autotune, prediction, codebooks and the writer: everything up to the
/// inner archive, which lives in `ws` memory. The fused pipeline re-buckets
/// each owned row's codes into per-level streams inside the predict kernel
/// (one exact histogram per level as a byproduct); the unfused reference
/// splits the finished code array afterwards — the streams and histograms
/// are byte-identical, so fused and unfused archives stay in lockstep.
/// `unified` shares one codebook across all levels for the ratio ablation
/// (the framing is unchanged). Fills `t` except `total`.
template <typename T>
std::span<const std::byte> compress_v2(std::span<const T> data,
                                       const dev::Dim3& dims,
                                       const CompressParams& p, StageTimings& t,
                                       bool fused, bool unified,
                                       dev::Workspace& ws) {
  core::Timer stage;
  const Tuned tuned = autotune_checked(data, dims, p, ws);
  t.predict += stage.lap();

  constexpr int kRadius = quant::kDefaultRadius;
  const std::size_t nbins = 2 * static_cast<std::size_t>(kRadius);
  predictor::GInterpViewT<T> pred;
  predictor::GInterpLevelSplit levels;
  if (fused) {
    auto fl = predictor::ginterp_compress_fused_levels(data, dims, tuned.eb,
                                                       tuned.cfg, kRadius, ws);
    pred = fl.pred;
    levels = std::move(fl.levels);
    t.predict += stage.lap();
    t.histogram = 0;
    t.histogram_fused = true;
  } else {
    pred = predictor::ginterp_compress(data, dims, tuned.eb, tuned.cfg,
                                       kRadius, ws);
    t.predict += stage.lap();
    levels = predictor::ginterp_split_levels(pred.codes, dims, nbins, ws);
    t.histogram = stage.lap();
  }

  std::vector<huffman::Codebook> books;
  if (unified) {
    std::vector<std::uint32_t> sum(nbins, 0);
    for (const auto& h : levels.histograms)
      for (std::size_t b = 0; b < nbins; ++b) sum[b] += h[b];
    books.assign(levels.streams.size(), huffman::Codebook::build(sum));
  } else {
    books = huffman::build_level_books(levels.histograms);
  }
  t.codebook = stage.lap();

  const auto raw = write_v2<T>(pred, levels, books, dims, tuned, kRadius, ws);
  t.encode = stage.lap();
  return raw;
}

/// A raw SZI2 archive.
template <typename T>
std::vector<std::byte> compress_typed(std::span<const T> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& p,
                                      StageTimings* timings, bool fused,
                                      dev::Workspace& ws,
                                      bool unified = false) {
  core::Timer total;
  StageTimings t;
  const auto raw = compress_v2<T>(data, dims, p, t, fused, unified, ws);
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
                                      StageTimings* timings, bool fused,
                                      bool unified = false) {
  // Throwaway arena: malloc-equivalent lifetime, no global memory retained.
  // Pooling across calls is opt-in via the Workspace overload.
  dev::Arena local;
  dev::Workspace ws(local);
  return compress_typed<T>(data, dims, p, timings, fused, ws, unified);
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
  const auto raw = compress_v2<T>(data, dims, p, t, /*fused=*/true,
                                  /*unified=*/false, ws);
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

/// Parses an outlier blob (u64 n | idx | vals) into workspace-resident
/// arrays — archive bytes are unaligned, so both arrays are memcpy'd, with
/// the same validation OutlierSetT::deserialize performs.
template <typename T>
quant::OutlierViewT<T> parse_outlier_blob(std::span<const std::byte> blob,
                                          dev::Workspace& ws) {
  core::ByteReader rd(blob, "outlier-set");
  const auto n64 = rd.read<std::uint64_t>();
  if (n64 > rd.remaining()) rd.fail("count exceeds remaining bytes");
  const std::size_t n = static_cast<std::size_t>(n64);
  const std::size_t ibytes = rd.checked_array_bytes(n, sizeof(std::uint64_t));
  auto idx = ws.make<std::uint64_t>(n);
  if (n > 0) std::memcpy(idx.data(), rd.read_bytes(ibytes).data(), ibytes);
  const std::size_t vbytes = rd.checked_array_bytes(n, sizeof(T));
  auto vals = ws.make<T>(n);
  if (n > 0) std::memcpy(vals.data(), rd.read_bytes(vbytes).data(), vbytes);
  quant::OutlierViewT<T> v;
  v.indices = idx;
  v.values = vals;
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
      if (s.size != sizeof(std::uint64_t) +
                        s.count * (sizeof(std::uint64_t) + sizeof(T)))
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
// interpolated coordinates are multiples of 2^(L-1)), an ROI the level-1
// box. It runs in phases, each one pool-wide launch or none:
//   1. header      — the fixed header and the directory (whose size is a
//                    closed form of dims), validated; a box request also
//                    fetches and cross-checks the tile index;
//   2. fetch       — the inner byte ranges the request covers: views of a
//                    raw source, or the covering LZSS blocks of a 'BBC2'
//                    container decoded into workspace memory;
//   3. huffman     — every covering (level, chunk) pair;
//   4. scatter     — plane-parallel onto the level lattice (an ROI: over
//                    its halo'd box);
//   5. reconstruct — the covered slabs, straight into caller memory; a box
//                    reconstructs its halo'd box in scratch and crops it.
// Work and memory scale with the request: a preview never touches a
// full-volume buffer, and a whole request never reads the tile index.

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
std::size_t level_segment(int nlevels, int level) {
  return 2 + static_cast<std::size_t>(nlevels - level);
}

template <typename T>
class Decoder {
 public:
  /// Runs the header phase and sizes the request.
  Decoder(io::ArchiveSource& src, bool wrapped, const DecodeRequest& req,
          dev::Workspace& ws)
      : inner_(src, wrapped, ws), ws_(ws), req_(req),
        a_(read_header<T>(inner_)) {
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
  void run(std::vector<T>& out) {
    if (req_.box != nullptr) run_box(out);
    else run_whole(out);
    t_.unwrap = inner_.unwrap_seconds();
  }

  [[nodiscard]] const DecodeTimings& timings() const { return t_; }

 private:
  void run_whole(std::vector<T>& out);
  void run_box(std::vector<T>& out);

  InnerBytes inner_;
  dev::Workspace& ws_;
  DecodeRequest req_;
  ArchiveHeader a_;
  int level_ = 1;
  predictor::GInterpRoiPlan plan_;
  dev::Dim3 out_dims_;
  DecodeTimings t_;
};

template <typename T>
void Decoder<T>::run_whole(std::vector<T>& out) {
  const InnerHeader& h = a_.h;
  const auto& segs = a_.segs;
  const int nl = a_.nlevels;

  // Fetch: anchors, outliers and the levels >= L — one contiguous range.
  const auto& last = segs[level_ > nl ? 1 : level_segment(nl, level_)];
  const std::uint64_t base = segs[0].offset;
  const std::uint64_t need = last.offset + last.size - base;
  const auto body = inner_.fetch(
      base, req_.all_blocks ? inner_.size() - std::min(base, inner_.size())
                            : need);
  if (body.size() < need)
    throw core::CorruptArchive("cusz-i", base + body.size(),
                               "archive truncated");
  const auto take = [&](const SegmentEntry& s) {
    return body.subspan(static_cast<std::size_t>(s.offset - base),
                        static_cast<std::size_t>(s.size));
  };
  const auto outliers = parse_outlier_blob<T>(take(segs[1]), ws_);
  if (outliers.indices.size() != segs[1].count)
    throw core::CorruptArchive("cusz-i", segs[1].offset,
                               "outlier blob count disagrees with directory");
  if (level_ > nl) {
    // The anchor grid is the coarsest preview, stored lossless.
    out.resize(out_dims_.volume());
    if (segs[0].size != out.size() * sizeof(T))
      throw core::CorruptArchive("ginterp", 0, "anchor count mismatch");
    std::memcpy(out.data(), take(segs[0]).data(), out.size() * sizeof(T));
    return;
  }
  auto anchors = ws_.make<T>(static_cast<std::size_t>(segs[0].count));
  std::memcpy(anchors.data(), take(segs[0]).data(), anchors.size_bytes());

  // Huffman: every chunk of every level >= L in one launch.
  core::Timer hufft;
  const auto nlv = static_cast<std::size_t>(nl);
  std::vector<huffman::DecodePlan> plans(nlv);
  std::vector<std::span<quant::Code>> syms(nlv);
  std::vector<std::size_t> first_chunk(1, 0);
  for (int level = nl; level >= level_; --level) {
    const auto& seg = segs[level_segment(nl, level)];
    auto& plan = plans[static_cast<std::size_t>(level - 1)];
    plan = huffman::decode_plan(take(seg), ws_);
    if (plan.n != seg.count)
      throw core::CorruptArchive("cusz-i", seg.offset,
                                 "level stream symbol count mismatch");
    syms[static_cast<std::size_t>(level - 1)] = ws_.make<quant::Code>(plan.n);
    first_chunk.push_back(first_chunk.back() + plan.nchunks);
  }
  dev::ThreadPool::instance().parallel_for(
      first_chunk.back(),
      [&](std::size_t g) {
        const auto j = static_cast<std::size_t>(
            std::upper_bound(first_chunk.begin(), first_chunk.end(), g) -
            first_chunk.begin() - 1);
        const std::size_t v = nlv - 1 - j;  // j-th level, coarsest first
        const std::size_t c = g - first_chunk[j];
        huffman::decode_chunks(plans[v], c, c + 1, syms[v]);
      },
      1);

  // Scatter onto the level lattice.
  auto codes = ws_.make<quant::Code>(out_dims_.volume());
  const std::vector<std::span<const quant::Code>> streams(syms.begin(),
                                                          syms.end());
  const std::vector<std::size_t> first(nlv, 0);
  predictor::ginterp_scatter_levels(h.dims, level_, {0, 0, 0}, out_dims_,
                                    streams, first,
                                    static_cast<quant::Code>(h.radius), codes);
  t_.huffman = hufft.lap();

  core::Timer recont;
  out.resize(out_dims_.volume());
  predictor::GInterpReconstructorT<T>(codes, std::span<const T>(anchors),
                                      outliers, h.dims, h.eb, h.cfg, h.radius,
                                      std::span<T>(out), level_)
      .run();
  t_.reconstruct = recont.lap();
}

template <typename T>
void Decoder<T>::run_box(std::vector<T>& out) {
  const InnerHeader& h = a_.h;
  const auto& segs = a_.segs;
  const int nl = a_.nlevels;
  const auto nlv = static_cast<std::size_t>(nl);
  const RoiBox& box = *req_.box;
  const auto& plan = plan_;
  core::Timer hufft;
  const double unwrap0 = inner_.unwrap_seconds();

  // The tile index, whose header and entries are closed forms of dims and
  // each level's chunk table: any disagreement would steer reads wrong.
  const auto& tseg = segs.back();
  const auto tidx = inner_.fetch(tseg.offset, tseg.size);
  if (tidx.size() != tseg.size)
    throw core::CorruptArchive("cusz-i", tseg.offset, "tile index truncated");
  {
    std::uint16_t ver = 0, resv = 0;
    std::uint32_t slab32 = 0, nl32 = 0, ns32 = 0;
    std::memcpy(&ver, tidx.data(), sizeof(ver));
    std::memcpy(&resv, tidx.data() + 2, sizeof(resv));
    std::memcpy(&slab32, tidx.data() + 4, sizeof(slab32));
    std::memcpy(&nl32, tidx.data() + 8, sizeof(nl32));
    std::memcpy(&ns32, tidx.data() + 12, sizeof(ns32));
    if (ver != kTidxVersion || resv != 0 || slab32 != tidx_slab_z(h.dims) ||
        nl32 != static_cast<std::uint32_t>(nl) || ns32 != tidx_nslabs(h.dims))
      throw core::CorruptArchive("cusz-i", tseg.offset,
                                 "tile index header mismatch");
  }
  const std::size_t slab_z = tidx_slab_z(h.dims);
  const std::size_t nslabs = tidx_nslabs(h.dims);

  // Fetch round 1: the covering anchor rows, the outlier blob, and each
  // level's codebook size.
  const auto geo = predictor::geometry_for(h.dims);
  const dev::Dim3 ad = predictor::anchor_dims(h.dims, geo.anchor);
  if (segs[0].count != ad.volume())
    throw core::CorruptArchive("cusz-i", segs[0].offset,
                               "anchor count mismatch");
  const dev::Dim3& a0 = plan.anchor_lo;
  const dev::Dim3 an = {plan.anchor_hi.x - a0.x, plan.anchor_hi.y - a0.y,
                        plan.anchor_hi.z - a0.z};
  const std::size_t nrows = an.volume() == 0 ? 0 : an.y * an.z;
  std::vector<InnerBytes::Range> ranges;
  for (std::size_t az = a0.z; az < plan.anchor_hi.z && nrows > 0; ++az)
    for (std::size_t ay = a0.y; ay < plan.anchor_hi.y; ++ay)
      ranges.push_back(
          {segs[0].offset + dev::linearize(ad, a0.x, ay, az) * sizeof(T),
           an.x * sizeof(T)});
  ranges.push_back({segs[1].offset, segs[1].size});
  for (std::size_t j = 0; j < nlv; ++j)
    ranges.push_back({segs[2 + j].offset, sizeof(std::uint32_t)});
  const auto round1 = inner_.fetch(ranges);
  auto anchors = ws_.make<T>(an.volume());
  for (std::size_t r = 0; r < nrows; ++r) {
    if (round1[r].size() != an.x * sizeof(T))
      throw core::CorruptArchive("cusz-i", segs[0].offset,
                                 "anchor segment truncated");
    std::memcpy(anchors.data() + r * an.x, round1[r].data(), round1[r].size());
  }
  const auto outliers = parse_outlier_blob<T>(round1[nrows], ws_);
  if (outliers.indices.size() != segs[1].count)
    throw core::CorruptArchive("cusz-i", segs[1].offset,
                               "outlier blob count disagrees with directory");

  // Rounds 2 and 3: each level's fixed stream header, then the header
  // through its chunk offset table.
  std::vector<std::size_t> hfixed(nlv);
  ranges.clear();
  for (std::size_t j = 0; j < nlv; ++j) {
    std::uint32_t nbins = 0;
    if (round1[nrows + 1 + j].size() == sizeof(nbins))
      std::memcpy(&nbins, round1[nrows + 1 + j].data(), sizeof(nbins));
    hfixed[j] = sizeof(std::uint32_t) + nbins + sizeof(std::uint64_t) +
                sizeof(std::uint32_t) + sizeof(std::uint64_t);
    ranges.push_back({segs[2 + j].offset,
                      std::min<std::uint64_t>(hfixed[j], segs[2 + j].size)});
  }
  const auto round2 = inner_.fetch(ranges);
  ranges.clear();
  for (std::size_t j = 0; j < nlv; ++j) {
    std::uint64_t nsym = 0;
    std::uint32_t csz = 0;
    const std::size_t at = hfixed[j] - sizeof(std::uint64_t) -
                           sizeof(std::uint32_t) - sizeof(std::uint64_t);
    if (round2[j].size() >= hfixed[j]) {
      std::memcpy(&nsym, round2[j].data() + at, sizeof(nsym));
      std::memcpy(&csz, round2[j].data() + at + sizeof(nsym), sizeof(csz));
    }
    const std::uint64_t nchunks =
        csz == 0 ? 0 : nsym / csz + (nsym % csz != 0 ? 1 : 0);
    const auto& seg = segs[2 + j];
    ranges.push_back(
        {seg.offset,
         std::min<std::uint64_t>(
             hfixed[j] + std::min<std::uint64_t>(nchunks, seg.size) *
                             sizeof(std::uint64_t),
             seg.size)});
  }
  const auto round3 = inner_.fetch(ranges);

  // Per level: the decode plan, the tile-index cross-check, and the chunk
  // spans covering the halo'd box's rank runs. Runs arrive in ascending
  // rank order, so the chunks they touch merge into a short list of
  // disjoint ranges; within a z-plane the box's y-band is a contiguous
  // rank band, which keeps the read set proportional to the box in y and
  // z, not just z. Each level's decoded symbols land in a window indexed by
  // rank - first.
  struct Level {
    huffman::DecodePlan plan;
    std::uint64_t payload_at = 0;  ///< inner offset of the payload
    std::vector<std::pair<std::size_t, std::size_t>> spans;  ///< chunks
    std::size_t first = 0;
    std::span<quant::Code> window;
  };
  std::vector<Level> lv(nlv);
  ranges.clear();
  for (std::size_t j = 0; j < nlv; ++j) {
    const auto& seg = segs[2 + j];
    const int level = seg.level;
    auto& L = lv[j];
    L.plan = huffman::decode_plan_header(round3[j], seg.size, ws_);
    if (L.plan.n != seg.count)
      throw core::CorruptArchive("cusz-i", seg.offset,
                                 "level stream symbol count mismatch");
    const std::uint64_t hdr_bytes = seg.size - L.plan.payload_bytes;
    L.payload_at = seg.offset + hdr_bytes;
    const std::size_t cs = L.plan.chunk_size;
    for (std::size_t k = 0; k < nslabs; ++k) {
      TidxEntry e;
      std::memcpy(&e,
                  tidx.data() + kTidxHeaderBytes +
                      (j * nslabs + k) * sizeof(TidxEntry),
                  sizeof(e));
      const std::uint64_t rank =
          predictor::ginterp_level_prefix(h.dims, level, k * slab_z);
      const std::size_t chunk = static_cast<std::size_t>(rank) / cs;
      const std::uint64_t byte = chunk < L.plan.nchunks
                                     ? L.plan.offsets[chunk]
                                     : L.plan.payload_bytes;
      if (e.sym_rank != rank ||
          e.huff_chunk != static_cast<std::uint32_t>(chunk) ||
          e.code_byte != byte ||
          e.wrap_block != static_cast<std::uint32_t>(
                              (hdr_bytes + byte) / lossless::kLzssBlock))
        throw core::CorruptArchive("cusz-i", tseg.offset,
                                   "tile index entry mismatch");
    }
    if (L.plan.n == 0) continue;
    predictor::ginterp_level_box_runs(
        h.dims, level, plan.box_lo, plan.box_dims,
        [&](std::size_t rank, std::size_t count, std::size_t, std::size_t,
            std::size_t, std::size_t) {
          const std::size_t cb = rank / cs;
          const std::size_t ce = (rank + count - 1) / cs + 1;
          if (!L.spans.empty() && cb <= L.spans.back().second)
            L.spans.back().second = std::max(L.spans.back().second, ce);
          else
            L.spans.emplace_back(cb, ce);
        });
    if (L.spans.empty()) continue;
    L.first = L.spans.front().first * cs;
    L.window = ws_.make<quant::Code>(
        std::min(L.spans.back().second * cs, L.plan.n) - L.first);
    for (const auto& [cb, ce] : L.spans) {
      const std::uint64_t lo = L.plan.offsets[cb];
      const std::uint64_t hi =
          ce < L.plan.nchunks ? L.plan.offsets[ce] : L.plan.payload_bytes;
      ranges.push_back({L.payload_at + lo, hi - lo});
    }
  }

  // Fetch round 4, then every covering (level, chunk) in one launch.
  const auto payloads = inner_.fetch(ranges);
  struct Chunk {
    std::size_t level, span, chunk;
  };
  std::vector<Chunk> chunks;
  for (std::size_t j = 0, r = 0; j < nlv; ++j)
    for (const auto& [cb, ce] : lv[j].spans) {
      for (std::size_t c = cb; c < ce; ++c) chunks.push_back({j, r, c});
      ++r;
    }
  dev::ThreadPool::instance().parallel_for(
      chunks.size(),
      [&](std::size_t k) {
        const auto [j, r, c] = chunks[k];
        const Level& L = lv[j];
        const std::size_t cs = L.plan.chunk_size;
        const std::size_t end = std::min((c + 1) * cs, L.plan.n);
        huffman::decode_chunks_range(
            L.plan, payloads[r], ranges[r].off - L.payload_at, c, c + 1,
            L.window.subspan(c * cs - L.first, end - c * cs));
      },
      1);

  // Scatter onto the halo'd box (streams are indexed by level - 1).
  auto codes = ws_.make<quant::Code>(plan.box_dims.volume());
  std::vector<std::span<const quant::Code>> streams(nlv);
  std::vector<std::size_t> first(nlv, 0);
  for (std::size_t j = 0; j < nlv; ++j) {
    const auto v = static_cast<std::size_t>(segs[2 + j].level - 1);
    streams[v] = lv[j].window;
    first[v] = lv[j].first;
  }
  predictor::ginterp_scatter_levels(h.dims, 1, plan.box_lo, plan.box_dims,
                                    streams, first,
                                    static_cast<quant::Code>(h.radius), codes);
  t_.huffman = hufft.lap() - (inner_.unwrap_seconds() - unwrap0);

  // Reconstruct the covered slabs in the halo'd box, then crop the box.
  core::Timer recont;
  const dev::Dim3& bd = plan.box_dims;
  auto boxout = ws_.make<T>(bd.volume());
  dev::launch_linear(
      bd.z,
      [&](std::size_t z) {
        std::fill_n(boxout.data() + z * bd.x * bd.y, bd.x * bd.y, T{});
      },
      1);
  predictor::GInterpReconstructorT<T>(codes, std::span<const T>(anchors),
                                      outliers, plan, h.dims, h.eb, h.cfg,
                                      h.radius, boxout)
      .run();
  const dev::Dim3 o = {box.lo.x - plan.box_lo.x, box.lo.y - plan.box_lo.y,
                       box.lo.z - plan.box_lo.z};
  out.resize(box.ext.volume());
  dev::launch_linear(
      box.ext.z,
      [&](std::size_t z) {
        for (std::size_t y = 0; y < box.ext.y; ++y)
          std::memcpy(out.data() + dev::linearize(box.ext, 0, y, z),
                      boxout.data() + dev::linearize(bd, o.x, o.y + y, o.z + z),
                      box.ext.x * sizeof(T));
      },
      1);
  t_.reconstruct = recont.lap();
}

/// One request, returned in a fresh vector with its grid and timings.
template <typename T>
struct Decoded {
  std::vector<T> data;
  dev::Dim3 dims;
  int level = 1;
  DecodeTimings timings;
};

template <typename T>
Decoded<T> decode(io::ArchiveSource& src, bool wrapped,
                  const DecodeRequest& req, dev::Workspace& ws) {
  core::Timer wall;
  Decoded<T> r;
  Decoder<T> d(src, wrapped, req, ws);
  r.dims = d.out_dims();
  r.level = d.level();
  d.run(r.data);
  ws.reset();
  r.timings = d.timings();
  r.timings.total = wall.lap();
  return r;
}

/// Full decode of a raw (`wrapped` false) or 'BBC2' archive.
template <typename T>
std::vector<T> decompress_typed(std::span<const std::byte> bytes, bool wrapped,
                                dev::Workspace& ws, DecodeTimings* dt) {
  io::MemorySource src(bytes);
  DecodeRequest req;
  req.all_blocks = true;
  auto r = decode<T>(src, wrapped, req, ws);
  if (dt) *dt = r.timings;
  return std::move(r.data);
}

/// Preview of a raw or 'BBC2' archive (told apart by the magic);
/// `bytes_read` is everything the decode fetched — exactly the directory
/// plus the needed prefix of segments (of wrapper payloads, for 'BBC2').
template <typename T>
ProgressiveResultT<T> decompress_progressive_typed(
    std::span<const std::byte> bytes, int max_level, dev::Workspace& ws) {
  io::MemorySource src(bytes);
  DecodeRequest req;
  req.level = max_level;
  auto r = decode<T>(src, peek_magic(bytes) == kBitcompWrapMagicV2, req, ws);
  ProgressiveResultT<T> p;
  p.data = std::move(r.data);
  p.dims = r.dims;
  p.level = r.level;
  p.bytes_read = static_cast<std::size_t>(src.bytes_read());
  return p;
}

/// ROI decode; `bytes_read` is the source's fetch delta.
template <typename T>
RoiResultT<T> decompress_roi_typed(io::ArchiveSource& src, const RoiBox& box) {
  dev::Workspace ws(dev::Arena::instance());
  const std::uint64_t before = src.bytes_read();
  std::uint32_t magic = 0;
  if (src.size() >= sizeof(magic)) {
    std::vector<std::byte> scratch;
    std::memcpy(&magic, src.view(0, sizeof(magic), scratch).data(),
                sizeof(magic));
  }
  DecodeRequest req;
  req.box = &box;
  auto r = decode<T>(src, magic == kBitcompWrapMagicV2, req, ws);
  RoiResultT<T> out;
  out.data = std::move(r.data);
  out.dims = box.ext;
  out.bytes_read = static_cast<std::size_t>(src.bytes_read() - before);
  out.timings = r.timings;
  return out;
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
    r.bytes = compress_typed<float>(field.data, field.dims, p, &r.timings,
                                    /*fused=*/true, ws);
    return r;
  }

  [[nodiscard]] std::vector<float> decompress(std::span<const std::byte> bytes,
                                              double* decode_seconds) override {
    core::Timer total;
    dev::Workspace ws(dev::Arena::instance());
    auto out = decompress_typed<float>(bytes, false, ws, nullptr);
    if (decode_seconds) *decode_seconds = total.lap();
    return out;
  }

  [[nodiscard]] std::vector<float> decompress_stages(
      std::span<const std::byte> bytes, DecodeTimings& t) override {
    dev::Workspace ws(dev::Arena::instance());
    return decompress_typed<float>(bytes, false, ws, &t);
  }

  [[nodiscard]] ProgressiveResult decompress_progressive(
      std::span<const std::byte> bytes, int max_level) override {
    dev::Workspace ws(dev::Arena::instance());
    return decompress_progressive_typed<float>(bytes, max_level, ws);
  }

  [[nodiscard]] RoiResult decompress_roi(std::span<const std::byte> bytes,
                                         const RoiBox& box) override {
    return cuszi_decompress_roi_f32(bytes, box);
  }
};

}  // namespace

std::unique_ptr<Compressor> make_cuszi() { return std::make_unique<Cuszi>(); }

std::vector<std::byte> cuszi_compress(std::span<const float> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings) {
  return compress_typed<float>(data, dims, params, timings, /*fused=*/true);
}

std::vector<std::byte> cuszi_compress(std::span<const double> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings) {
  return compress_typed<double>(data, dims, params, timings, /*fused=*/true);
}

std::vector<std::byte> cuszi_compress(std::span<const float> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings,
                                      dev::Workspace& ws) {
  return compress_typed<float>(data, dims, params, timings, /*fused=*/true,
                               ws);
}

std::vector<std::byte> cuszi_compress(std::span<const double> data,
                                      const dev::Dim3& dims,
                                      const CompressParams& params,
                                      StageTimings* timings,
                                      dev::Workspace& ws) {
  return compress_typed<double>(data, dims, params, timings, /*fused=*/true,
                                ws);
}

std::vector<std::byte> cuszi_compress_unfused(std::span<const float> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& params,
                                              StageTimings* timings) {
  return compress_typed<float>(data, dims, params, timings, /*fused=*/false);
}

std::vector<std::byte> cuszi_compress_unfused(std::span<const double> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& params,
                                              StageTimings* timings) {
  return compress_typed<double>(data, dims, params, timings, /*fused=*/false);
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
  InnerBytes inner(src, peek_magic(bytes) == kBitcompWrapMagicV2, ws);
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

std::vector<std::byte> cuszi_compress_unified_book(
    std::span<const float> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings) {
  return compress_typed<float>(data, dims, params, timings, /*fused=*/true,
                               /*unified=*/true);
}

std::vector<std::byte> cuszi_compress_unified_book(
    std::span<const double> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings) {
  return compress_typed<double>(data, dims, params, timings, /*fused=*/true,
                                /*unified=*/true);
}

ProgressiveResultT<float> cuszi_decompress_progressive_f32(
    std::span<const std::byte> bytes, int max_level) {
  dev::Workspace ws(dev::Arena::instance());
  return decompress_progressive_typed<float>(bytes, max_level, ws);
}

ProgressiveResultT<double> cuszi_decompress_progressive_f64(
    std::span<const std::byte> bytes, int max_level) {
  dev::Workspace ws(dev::Arena::instance());
  return decompress_progressive_typed<double>(bytes, max_level, ws);
}

ProgressiveResultT<float> cuszi_decompress_progressive_f32(
    std::span<const std::byte> bytes, int max_level, dev::Workspace& ws) {
  return decompress_progressive_typed<float>(bytes, max_level, ws);
}

ProgressiveResultT<double> cuszi_decompress_progressive_f64(
    std::span<const std::byte> bytes, int max_level, dev::Workspace& ws) {
  return decompress_progressive_typed<double>(bytes, max_level, ws);
}

RoiResultT<float> cuszi_decompress_roi_f32(io::ArchiveSource& src,
                                           const RoiBox& box) {
  return decompress_roi_typed<float>(src, box);
}

RoiResultT<double> cuszi_decompress_roi_f64(io::ArchiveSource& src,
                                            const RoiBox& box) {
  return decompress_roi_typed<double>(src, box);
}

RoiResultT<float> cuszi_decompress_roi_f32(std::span<const std::byte> bytes,
                                           const RoiBox& box) {
  io::MemorySource ms(bytes);
  return decompress_roi_typed<float>(ms, box);
}

RoiResultT<double> cuszi_decompress_roi_f64(std::span<const std::byte> bytes,
                                            const RoiBox& box) {
  io::MemorySource ms(bytes);
  return decompress_roi_typed<double>(ms, box);
}

std::vector<float> cuszi_decompress_f32(std::span<const std::byte> bytes,
                                        DecodeTimings* timings) {
  dev::Workspace ws(dev::Arena::instance());
  return decompress_typed<float>(bytes, false, ws, timings);
}

std::vector<double> cuszi_decompress_f64(std::span<const std::byte> bytes,
                                         DecodeTimings* timings) {
  dev::Workspace ws(dev::Arena::instance());
  return decompress_typed<double>(bytes, false, ws, timings);
}

std::vector<float> cuszi_decompress_f32(std::span<const std::byte> bytes,
                                        dev::Workspace& ws) {
  return decompress_typed<float>(bytes, false, ws, nullptr);
}

std::vector<double> cuszi_decompress_f64(std::span<const std::byte> bytes,
                                         dev::Workspace& ws) {
  return decompress_typed<double>(bytes, false, ws, nullptr);
}

std::vector<float> cuszi_decompress_bitcomp_f32(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings) {
  return decompress_typed<float>(bytes, true, ws, timings);
}

std::vector<double> cuszi_decompress_bitcomp_f64(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings) {
  return decompress_typed<double>(bytes, true, ws, timings);
}

}  // namespace szi
