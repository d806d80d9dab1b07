#include "core/cuszi.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/bytes.hh"
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

/// Full decode: anchors and outliers come straight from their segments,
/// each level's Huffman stream decodes (chunks fan out across the pool), and
/// one plane-parallel scatter rebuilds the code array — every position the
/// "perfectly predicted" code unless a level stream names it — which the
/// slab-parallel reconstruction then replays.
template <typename T>
std::vector<T> decompress_typed(std::span<const std::byte> bytes,
                                dev::Workspace& ws,
                                DecodeTimings* dt = nullptr) {
  core::Timer wall;
  core::ByteReader rd(bytes, "cusz-i");
  const InnerHeader h = parse_inner_header<T>(rd);
  const auto segs = parse_directory<T>(rd, h);

  const std::size_t acount = static_cast<std::size_t>(segs[0].count);
  const std::size_t abytes = static_cast<std::size_t>(segs[0].size);
  auto anchors = ws.make<T>(acount);
  if (acount > 0)
    std::memcpy(anchors.data(), rd.read_bytes(abytes).data(), abytes);

  const auto outliers = parse_outlier_blob<T>(
      rd.read_bytes(static_cast<std::size_t>(segs[1].size)), ws);
  if (outliers.indices.size() != segs[1].count)
    rd.fail("outlier blob count disagrees with directory");

  (void)rd.checked_array_bytes(h.volume, sizeof(quant::Code));
  auto codes = ws.make<quant::Code>(h.volume);

  core::Timer hufft;
  // The directory parse pinned the level segments to descending order with
  // closed-form counts, so streams[level - 1] comes out sized for the
  // scatter. The trailing tile index is never read.
  std::vector<std::span<const quant::Code>> streams(
      static_cast<std::size_t>(predictor::ginterp_level_count(h.dims)));
  for (std::size_t i = 2; i < 2 + streams.size(); ++i) {
    const auto stream = rd.read_bytes(static_cast<std::size_t>(segs[i].size));
    const auto syms = huffman::decode(stream, ws);
    if (syms.size() != segs[i].count)
      rd.fail("level stream symbol count mismatch");
    streams[static_cast<std::size_t>(segs[i].level - 1)] = syms;
  }
  predictor::ginterp_scatter_levels(h.dims, streams,
                                    static_cast<quant::Code>(h.radius), codes);
  const double huff_s = hufft.lap();

  // ginterp_decompress_into validates the anchor count and outlier indices
  // against `dims` before scattering.
  std::vector<T> out(h.volume);
  core::Timer recont;
  predictor::ginterp_decompress_into(codes, std::span<const T>(anchors),
                                     outliers, h.dims, h.eb, h.cfg, h.radius,
                                     std::span<T>(out), ws);
  const double recon_s = recont.lap();
  ws.reset();
  if (dt) {
    dt->huffman = huff_s;
    dt->reconstruct = recon_s;
    dt->total = wall.lap();
  }
  return out;
}

template <typename T>
std::vector<T> decompress_typed(std::span<const std::byte> bytes,
                                DecodeTimings* dt = nullptr) {
  dev::Arena local;
  dev::Workspace ws(local);
  return decompress_typed<T>(bytes, ws, dt);
}

/// Full decode of a wrapped archive, in two phases: the one pool-wide
/// unwrap (bitcomp_unwrap_archive's workspace form) into `ws` memory, then
/// the same decompress_typed raw archives use.
template <typename T>
std::vector<T> decompress_bitcomp_typed(std::span<const std::byte> bytes,
                                        dev::Workspace& ws,
                                        DecodeTimings* dt = nullptr) {
  core::Timer wall;
  const auto raw = bitcomp_unwrap_archive(bytes, ws);
  const double unwrap_s = wall.lap();
  auto out = decompress_typed<T>(raw, ws, dt);
  if (dt) {
    dt->unwrap = unwrap_s;
    dt->total += unwrap_s;
  }
  return out;
}

// ---- Random-access (ROI) decode ------------------------------------------
//
// The ROI reader never materializes the archive: every byte range it needs
// — directory, tile index, anchor rows, outlier blob, Huffman headers, and
// the payload chunks covering the box's tile slabs — is pulled through an
// InnerSource, which serves inner-archive byte ranges either straight from
// an io::ArchiveSource (raw SZI2) or by decoding only the covering 64 KiB
// LZSS blocks of a 'BBC2' wrapper segment on demand. The per-level working
// set is bounded by the halo'd box, so a bounded-memory reader can pull a
// sub-volume out of a larger-than-RAM archive.

/// Random-access view of the *inner* (unwrapped) archive's byte space.
/// Views are valid only until the next view() call on the same source.
class InnerSource {
 public:
  virtual ~InnerSource() = default;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual std::span<const std::byte> view(std::size_t off,
                                                        std::size_t len) = 0;
};

/// Truncation-tolerant view: clamps the range to the source's extent so the
/// ByteReader (not the source) reports truncation as CorruptArchive.
std::span<const std::byte> view_pfx(InnerSource& s, std::uint64_t off,
                                    std::uint64_t len) {
  const std::size_t sz = s.size();
  if (off >= sz) return {};
  return s.view(static_cast<std::size_t>(off),
                static_cast<std::size_t>(std::min<std::uint64_t>(len, sz - off)));
}

/// Raw SZI2 file: inner byte space == archive byte space.
class RawInnerSource final : public InnerSource {
 public:
  explicit RawInnerSource(io::ArchiveSource& src) : src_(src) {}

  [[nodiscard]] std::size_t size() const override { return src_.size(); }
  [[nodiscard]] std::span<const std::byte> view(std::size_t off,
                                                std::size_t len) override {
    return src_.view(off, len, scratch_);
  }

 private:
  io::ArchiveSource& src_;
  std::vector<std::byte> scratch_;
};

/// 'BBC2' wrapper: the segment table is fetched up front (validated like
/// bitcomp_parse_container); each wrapper segment's LZSS frame header is
/// parsed lazily on first touch, and a method-0 segment then decodes only
/// the 64 KiB blocks covering each requested range — the fetch that makes
/// ROI reads of wrapped archives proportional to the box, not the field. A
/// transformed (zero-RLE / bitshuffle) segment is all-or-nothing and
/// materializes whole on first touch, exactly like the progressive reader.
class WrappedInnerSource final : public InnerSource {
 public:
  WrappedInnerSource(io::ArchiveSource& src, dev::Workspace& ws)
      : src_(src), ws_(ws) {
    const std::size_t fsize = src.size();
    constexpr std::size_t kTable = 2 * sizeof(std::uint32_t);
    if (fsize < kTable)
      throw core::CorruptArchive("bitcomp-wrapper", 0, "container truncated");
    std::uint32_t nseg = 0;
    {
      const auto head = src_.view(0, kTable, scratch_);
      std::memcpy(&nseg, head.data() + sizeof(std::uint32_t), sizeof(nseg));
    }
    if (nseg > (fsize - kTable) / sizeof(WrapSegmentEntry))
      throw core::CorruptArchive("bitcomp-wrapper", sizeof(std::uint32_t),
                                 "segment table exceeds container");
    const std::size_t table_bytes = kTable + nseg * sizeof(WrapSegmentEntry);
    segs_.resize(nseg);
    {
      const auto tbl =
          src_.view(kTable, nseg * sizeof(WrapSegmentEntry), scratch_);
      std::size_t file_off = table_bytes;
      std::size_t raw_off = 0;
      for (std::uint32_t i = 0; i < nseg; ++i) {
        WrapSegmentEntry e;
        std::memcpy(&e, tbl.data() + i * sizeof(e), sizeof(e));
        if (e.reserved0 != 0 || e.reserved1 != 0 || e.reserved2 != 0)
          throw core::CorruptArchive("bitcomp-wrapper", kTable,
                                     "reserved segment field set");
        if (e.method >= lossless::kMethodCount)
          throw core::CorruptArchive("bitcomp-wrapper", kTable,
                                     "unknown de-redundancy method");
        if (e.size > fsize - file_off)
          throw core::CorruptArchive("bitcomp-wrapper", kTable,
                                     "segment sizes exceed the container");
        auto& s = segs_[i];
        s.method = static_cast<lossless::Method>(e.method);
        s.file_off = file_off;
        s.file_len = static_cast<std::size_t>(e.size);
        s.raw_off = raw_off;
        s.raw_len = static_cast<std::size_t>(e.raw_size);
        file_off += s.file_len;
        raw_off += s.raw_len;
      }
      if (file_off != fsize)
        throw core::CorruptArchive("bitcomp-wrapper", kTable,
                                   "segment sizes do not fill the container");
      raw_size_ = raw_off;
    }
  }

  [[nodiscard]] std::size_t size() const override { return raw_size_; }

  [[nodiscard]] std::span<const std::byte> view(std::size_t off,
                                                std::size_t len) override {
    if (len == 0) return {};
    // The directory mirrors the wrapper partition, so well-formed requests
    // land inside one segment; a crossing request (possible only against a
    // hostile directory) assembles per segment into `cross_`.
    std::size_t i = 0;
    while (i < segs_.size() && off >= segs_[i].raw_off + segs_[i].raw_len) ++i;
    if (i < segs_.size() && off + len <= segs_[i].raw_off + segs_[i].raw_len)
      return fetch(segs_[i], off - segs_[i].raw_off, len);
    cross_.resize(len);
    std::size_t done = 0;
    while (done < len) {
      if (i >= segs_.size())
        throw core::CorruptArchive("bitcomp-wrapper", 0,
                                   "range exceeds the container");
      auto& s = segs_[i];
      const std::size_t rel = off + done - s.raw_off;
      const std::size_t take = std::min(len - done, s.raw_len - rel);
      const auto part = fetch(s, rel, take);
      std::memcpy(cross_.data() + done, part.data(), take);
      done += take;
      ++i;
    }
    return {cross_.data(), len};
  }

 private:
  struct Seg {
    lossless::Method method = lossless::Method::Lzss;
    std::size_t file_off = 0;  ///< payload start in the container
    std::size_t file_len = 0;  ///< stored payload bytes
    std::size_t raw_off = 0;   ///< inner-archive offset
    std::size_t raw_len = 0;   ///< inner-archive length
    bool frame_parsed = false;
    bool whole = false;  ///< transformed segment fully materialized
    lossless::LzssFrame frame;
    std::vector<std::byte> data;  ///< decoded raw bytes (lazily filled)
    std::vector<char> have;       ///< per-block flags (method 0)
  };

  void ensure_frame(Seg& s) {
    if (s.frame_parsed) return;
    // Fixed header first (raw_size | block_size | nblocks), then the exact
    // header + offset-table extent; lzss_parse_frame_header revalidates.
    std::size_t nblocks = 0;
    {
      const auto h0 =
          src_.view(s.file_off, std::min<std::size_t>(16, s.file_len), scratch_);
      if (h0.size() >= 16) {
        std::uint32_t nb32 = 0;
        std::memcpy(&nb32, h0.data() + 12, sizeof(nb32));
        nblocks = nb32;
      }
    }
    const std::size_t want = 16 + nblocks * sizeof(std::uint64_t);
    const auto head =
        src_.view(s.file_off, std::min(want, s.file_len), scratch_);
    s.frame = lossless::lzss_parse_frame_header(head, s.file_len, ws_);
    bitcomp_check_frame(s.method, s.raw_len, s.frame, s.file_off);
    s.frame_parsed = true;
  }

  void decode_block(Seg& s, std::size_t b) {
    const auto [begin, end] = lossless::lzss_block_extent(s.frame, b);
    const auto bytes = src_.view(s.file_off + begin, end - begin, scratch_);
    const std::size_t roff = b * s.frame.block_size;
    const std::size_t rlen = std::min(s.frame.block_size,
                                      s.frame.raw_size - roff);
    lossless::lzss_decompress_block_bytes(s.frame, b, bytes,
                                          {s.data.data() + roff, rlen});
  }

  std::span<const std::byte> fetch(Seg& s, std::size_t rel, std::size_t len) {
    ensure_frame(s);
    if (s.method == lossless::Method::Lzss) {
      if (s.data.empty()) {
        s.data.resize(s.raw_len);
        s.have.assign(s.frame.nblocks, 0);
      }
      const std::size_t bs = s.frame.block_size;
      const std::size_t b0 = bs == 0 ? 0 : rel / bs;
      const std::size_t b1 =
          bs == 0 ? 0 : std::min(s.frame.nblocks, dev::ceil_div(rel + len, bs));
      for (std::size_t b = b0; b < b1; ++b)
        if (!s.have[b]) {
          decode_block(s, b);
          s.have[b] = 1;
        }
    } else if (!s.whole) {
      // Transformed segment: decode the whole LZSS stream into scratch and
      // untransform once; subsequent ranges are plain memory reads.
      s.data.resize(s.raw_len);
      std::vector<std::byte> tmp(s.frame.raw_size);
      for (std::size_t b = 0; b < s.frame.nblocks; ++b) decode_block_into(
          s, b, tmp);
      lossless::method_untransform(tmp, s.method,
                                   {s.data.data(), s.raw_len});
      s.whole = true;
    }
    return {s.data.data() + rel, len};
  }

  void decode_block_into(Seg& s, std::size_t b, std::span<std::byte> dst) {
    const auto [begin, end] = lossless::lzss_block_extent(s.frame, b);
    const auto bytes = src_.view(s.file_off + begin, end - begin, scratch_);
    const std::size_t roff = b * s.frame.block_size;
    const std::size_t rlen = std::min(s.frame.block_size,
                                      s.frame.raw_size - roff);
    lossless::lzss_decompress_block_bytes(s.frame, b, bytes,
                                          {dst.data() + roff, rlen});
  }

  io::ArchiveSource& src_;
  dev::Workspace& ws_;
  std::vector<Seg> segs_;
  std::size_t raw_size_ = 0;
  std::vector<std::byte> scratch_;  ///< for src_ views
  std::vector<std::byte> cross_;    ///< segment-crossing assembly
};

/// Owned copy of the TIDX payload plus its validated header fields.
struct TidxView {
  std::size_t slab_z = 0;
  std::size_t nslabs = 0;
  std::vector<std::byte> payload;

  [[nodiscard]] TidxEntry entry(std::size_t level_row, std::size_t k) const {
    TidxEntry e;
    std::memcpy(&e,
                payload.data() + kTidxHeaderBytes +
                    (level_row * nslabs + k) * sizeof(TidxEntry),
                sizeof(e));
    return e;
  }
};

/// Fetches + validates the tile index header against the field's closed
/// forms (the entry fields are cross-checked level by level once each
/// level's decode plan exists).
TidxView fetch_tidx(InnerSource& inner, const SegmentEntry& tseg,
                    const dev::Dim3& dims, int nlevels) {
  TidxView t;
  const auto v = view_pfx(inner, tseg.offset, tseg.size);
  if (v.size() != tseg.size)
    throw core::CorruptArchive("cusz-i", tseg.offset, "tile index truncated");
  t.payload.assign(v.begin(), v.end());
  std::uint16_t ver = 0, resv = 0;
  std::uint32_t slab32 = 0, nl32 = 0, ns32 = 0;
  const std::byte* p = t.payload.data();
  std::memcpy(&ver, p, sizeof(ver));
  std::memcpy(&resv, p + 2, sizeof(resv));
  std::memcpy(&slab32, p + 4, sizeof(slab32));
  std::memcpy(&nl32, p + 8, sizeof(nl32));
  std::memcpy(&ns32, p + 12, sizeof(ns32));
  if (ver != kTidxVersion || resv != 0 || slab32 != tidx_slab_z(dims) ||
      nl32 != static_cast<std::uint32_t>(nlevels) ||
      ns32 != tidx_nslabs(dims))
    throw core::CorruptArchive("cusz-i", tseg.offset,
                               "tile index header mismatch");
  t.slab_z = slab32;
  t.nslabs = ns32;
  return t;
}

/// The indexed ROI decode over an inner archive; throws
/// core::CorruptArchive when the index disagrees with the closed forms it
/// must satisfy.
template <typename T>
void roi_decode(InnerSource& inner, const RoiBox& box, dev::Workspace& ws,
                RoiResultT<T>& r) {
  double huff_s = 0;

  // Fixed header, whose dims fix the directory's size, then the directory.
  std::vector<std::byte> hdr;
  int nlevels = 0;
  {
    const auto v = view_pfx(inner, 0, kInnerFixedBytes);
    hdr.assign(v.begin(), v.end());
    core::ByteReader rd0({hdr.data(), hdr.size()}, "cusz-i");
    nlevels = predictor::ginterp_level_count(parse_inner_header<T>(rd0).dims);
  }
  {
    const auto v = view_pfx(inner, 0, header_bytes(nlevels));
    hdr.assign(v.begin(), v.end());
  }
  core::ByteReader rd({hdr.data(), hdr.size()}, "cusz-i");
  const InnerHeader h = parse_inner_header<T>(rd);
  const auto segs = parse_directory<T>(rd, h);

  const auto plan = predictor::ginterp_roi_plan(h.dims, box.lo, box.ext);
  const TidxView tidx = fetch_tidx(inner, segs.back(), h.dims, nlevels);

  // Box-local working set: radius-prefilled codes plus the output buffer
  // anchors and outlier originals scatter into (halo positions are
  // reconstruction scratch the crop discards).
  const std::size_t bvol = plan.box_dims.volume();
  auto codes = ws.make<quant::Code>(bvol);
  std::fill(codes.begin(), codes.end(), static_cast<quant::Code>(h.radius));
  std::vector<T> boxout(bvol, T{});

  const auto box_at = [&](std::size_t x, std::size_t y, std::size_t z) {
    return dev::linearize(plan.box_dims, x - plan.box_lo.x, y - plan.box_lo.y,
                          z - plan.box_lo.z);
  };

  // Anchors: one contiguous file run per covered (az, ay) anchor row.
  {
    const auto geo = predictor::geometry_for(h.dims);
    const dev::Dim3 ad = predictor::anchor_dims(h.dims, geo.anchor);
    if (segs[0].count != ad.volume())
      throw core::CorruptArchive("cusz-i", segs[0].offset,
                                 "anchor count mismatch");
    const auto arange = [](std::size_t lo, std::size_t extent, std::size_t s,
                           std::size_t an) {
      const std::size_t a0 = (lo + s - 1) / s;
      const std::size_t a1 = std::min(an, (lo + extent - 1) / s + 1);
      return std::pair<std::size_t, std::size_t>(a0, std::max(a0, a1));
    };
    const auto [ax0, ax1] =
        arange(plan.box_lo.x, plan.box_dims.x, geo.anchor.x, ad.x);
    const auto [ay0, ay1] =
        arange(plan.box_lo.y, plan.box_dims.y, geo.anchor.y, ad.y);
    const auto [az0, az1] =
        arange(plan.box_lo.z, plan.box_dims.z, geo.anchor.z, ad.z);
    auto row = ws.make<T>(ax1 - ax0);
    for (std::size_t az = az0; az < az1; ++az)
      for (std::size_t ay = ay0; ay < ay1; ++ay) {
        const std::size_t n = ax1 - ax0;
        if (n == 0) continue;
        const auto bytes = view_pfx(
            inner,
            segs[0].offset +
                dev::linearize(ad, ax0, ay, az) * sizeof(T),
            n * sizeof(T));
        if (bytes.size() != n * sizeof(T))
          throw core::CorruptArchive("cusz-i", segs[0].offset,
                                     "anchor segment truncated");
        std::memcpy(row.data(), bytes.data(), bytes.size());
        for (std::size_t ax = ax0; ax < ax1; ++ax)
          boxout[box_at(ax * geo.anchor.x, ay * geo.anchor.y,
                        az * geo.anchor.z)] = row[ax - ax0];
      }
  }

  // Outliers: the blob is one small segment; fetch whole and keep only the
  // originals that land inside the closed box.
  {
    const auto outliers = parse_outlier_blob<T>(
        view_pfx(inner, segs[1].offset, segs[1].size), ws);
    if (outliers.indices.size() != segs[1].count)
      throw core::CorruptArchive("cusz-i", segs[1].offset,
                                 "outlier blob count disagrees with directory");
    for (std::size_t j = 0; j < outliers.indices.size(); ++j) {
      const std::uint64_t idx = outliers.indices[j];
      if (idx >= h.volume)
        throw core::CorruptArchive("cusz-i", segs[1].offset,
                                   "outlier index out of range");
      const std::size_t x = static_cast<std::size_t>(idx) % h.dims.x;
      const std::size_t y =
          (static_cast<std::size_t>(idx) / h.dims.x) % h.dims.y;
      const std::size_t z =
          static_cast<std::size_t>(idx) / (h.dims.x * h.dims.y);
      if (x >= plan.box_lo.x && x < plan.box_lo.x + plan.box_dims.x &&
          y >= plan.box_lo.y && y < plan.box_lo.y + plan.box_dims.y &&
          z >= plan.box_lo.z && z < plan.box_lo.z + plan.box_dims.z)
        boxout[box_at(x, y, z)] = outliers.values[j];
    }
  }

  // Per level: parse the stream header (header bytes only), cross-check
  // every tile-index entry of the level against its closed form, then
  // decode exactly the Huffman chunks covering the box's rank runs and
  // scatter them into the box-local code array. Runs arrive in ascending
  // rank order, so the chunks they touch merge into a short list of
  // disjoint ranges — within a z-plane the box's y-band is a contiguous
  // rank band, which is what keeps the read set proportional to the box
  // in y and z, not just z.
  for (std::size_t i = 2; i < 2 + static_cast<std::size_t>(nlevels); ++i) {
    const auto& seg = segs[i];
    const int level = seg.level;

    std::uint32_t nbins = 0;
    {
      const auto v = view_pfx(inner, seg.offset, sizeof(nbins));
      if (v.size() == sizeof(nbins))
        std::memcpy(&nbins, v.data(), sizeof(nbins));
    }
    const std::size_t hfixed = sizeof(std::uint32_t) + nbins +
                               sizeof(std::uint64_t) + sizeof(std::uint32_t) +
                               sizeof(std::uint64_t);
    std::uint64_t nsym = 0;
    std::uint32_t csz = 0;
    {
      const auto v = view_pfx(inner, seg.offset, hfixed);
      if (v.size() >= hfixed) {
        std::memcpy(&nsym, v.data() + sizeof(std::uint32_t) + nbins,
                    sizeof(nsym));
        std::memcpy(&csz,
                    v.data() + sizeof(std::uint32_t) + nbins + sizeof(nsym),
                    sizeof(csz));
      }
    }
    const std::uint64_t nchunks64 =
        csz == 0 ? 0 : nsym / csz + (nsym % csz != 0 ? 1 : 0);
    const std::uint64_t head_len =
        hfixed + std::min<std::uint64_t>(nchunks64, seg.size) *
                     sizeof(std::uint64_t);
    const auto head =
        view_pfx(inner, seg.offset, std::min<std::uint64_t>(head_len, seg.size));
    core::Timer plant;
    const auto hplan = huffman::decode_plan_header(head, seg.size, ws);
    huff_s += plant.lap();
    if (hplan.n != seg.count)
      throw core::CorruptArchive("cusz-i", seg.offset,
                                 "level stream symbol count mismatch");
    const std::size_t hdr_bytes =
        static_cast<std::size_t>(seg.size - hplan.payload_bytes);

    // Every (level, slab) index entry is a closed form of (dims, this
    // plan); any disagreement means the index would steer reads wrong.
    for (std::size_t k = 0; k < tidx.nslabs; ++k) {
      const TidxEntry e = tidx.entry(i - 2, k);
      const std::uint64_t want_rank =
          predictor::ginterp_level_prefix(h.dims, level, k * tidx.slab_z);
      const std::size_t chunk =
          hplan.chunk_size == 0
              ? 0
              : static_cast<std::size_t>(want_rank) / hplan.chunk_size;
      const std::uint64_t want_byte =
          chunk < hplan.nchunks ? hplan.offsets[chunk] : hplan.payload_bytes;
      const std::uint32_t want_block = static_cast<std::uint32_t>(
          (hdr_bytes + want_byte) / lossless::kLzssBlock);
      if (e.sym_rank != want_rank ||
          e.huff_chunk != static_cast<std::uint32_t>(chunk) ||
          e.code_byte != want_byte || e.wrap_block != want_block)
        throw core::CorruptArchive("cusz-i", segs.back().offset,
                                   "tile index entry mismatch");
    }

    const std::size_t cs = hplan.chunk_size;
    if (hplan.n == 0 || cs == 0) continue;

    struct Run {
      std::size_t rank, count, x0, y, z, step;
    };
    std::vector<Run> runs;
    std::vector<std::pair<std::size_t, std::size_t>> spans;  // [cb, ce)
    predictor::ginterp_level_box_runs(
        h.dims, level, plan.box_lo, plan.box_dims,
        [&](std::size_t rank, std::size_t count, std::size_t x0, std::size_t y,
            std::size_t z, std::size_t step) {
          runs.push_back({rank, count, x0, y, z, step});
          const std::size_t cb = rank / cs;
          const std::size_t ce = (rank + count - 1) / cs + 1;
          if (!spans.empty() && cb <= spans.back().second)
            spans.back().second = std::max(spans.back().second, ce);
          else
            spans.emplace_back(cb, ce);
        });
    if (runs.empty()) continue;

    std::size_t ri = 0;
    for (const auto& [cb, ce] : spans) {
      const std::uint64_t pay_lo = hplan.offsets[cb];
      const std::uint64_t pay_hi =
          ce < hplan.nchunks ? hplan.offsets[ce] : hplan.payload_bytes;
      const auto payload =
          view_pfx(inner, seg.offset + hdr_bytes + pay_lo, pay_hi - pay_lo);
      const std::size_t base = cb * cs;
      const std::size_t limit = std::min(ce * cs, hplan.n);
      auto syms = ws.make<quant::Code>(limit - base);
      core::Timer huft;
      huffman::decode_chunks_range(hplan, payload, pay_lo, cb, ce, syms);
      huff_s += huft.lap();
      for (; ri < runs.size() && runs[ri].rank < limit; ++ri) {
        const Run& u = runs[ri];
        const std::size_t by = u.y - plan.box_lo.y;
        const std::size_t bz = u.z - plan.box_lo.z;
        for (std::size_t q = 0; q < u.count; ++q)
          codes[dev::linearize(plan.box_dims,
                               u.x0 + q * u.step - plan.box_lo.x, by, bz)] =
              syms[u.rank + q - base];
      }
    }
  }

  // Box-clipped reconstruction. Slabs are mutually independent: with a
  // slab for every worker they fan out across the pool, as in full decode
  // (each slab's parity waves then run inline on its worker); with fewer,
  // the slabs run in turn, each slab's waves spread across the pool.
  core::Timer recont;
  predictor::GInterpRoiReconstructorT<T> recon(codes, plan, h.dims, h.eb,
                                               h.cfg, h.radius,
                                               std::span<T>(boxout));
  const std::size_t nslabs = recon.slab_count();
  if (nslabs >= dev::ThreadPool::instance().worker_count())
    dev::launch_linear(nslabs, [&](std::size_t k) { recon.run_slab(k); }, 1);
  else
    for (std::size_t k = 0; k < nslabs; ++k) recon.run_slab(k);
  const double recon_s = recont.lap();

  // Crop the requested box out of the box-local buffer (row memcpys; the
  // halo is scratch and dies here).
  r.data.resize(box.ext.volume());
  const std::size_t ox = box.lo.x - plan.box_lo.x;
  const std::size_t oy = box.lo.y - plan.box_lo.y;
  const std::size_t oz = box.lo.z - plan.box_lo.z;
  for (std::size_t z = 0; z < box.ext.z; ++z)
    for (std::size_t y = 0; y < box.ext.y; ++y)
      std::memcpy(
          r.data.data() + dev::linearize(box.ext, 0, y, z),
          boxout.data() + dev::linearize(plan.box_dims, ox, oy + y, oz + z),
          box.ext.x * sizeof(T));
  r.dims = box.ext;
  r.timings.huffman = huff_s;
  r.timings.reconstruct = recon_s;
  ws.reset();
}

/// Dispatch on the outermost magic: raw and 'BBC2'-wrapped archives both
/// take the indexed path; anything else is corrupt. `bytes_read` is the
/// source's honest fetch delta.
template <typename T>
RoiResultT<T> decompress_roi_typed(io::ArchiveSource& src, const RoiBox& box) {
  dev::Arena local;
  dev::Workspace ws(local);
  core::Timer wall;
  const std::uint64_t before = src.bytes_read();
  RoiResultT<T> r;
  std::uint32_t magic = 0;
  {
    std::vector<std::byte> scratch;
    if (src.size() >= sizeof(magic)) {
      const auto v = src.view(0, sizeof(magic), scratch);
      std::memcpy(&magic, v.data(), sizeof(magic));
    }
  }
  if (magic == kBitcompWrapMagicV2) {
    WrappedInnerSource inner(src, ws);
    roi_decode<T>(inner, box, ws, r);
  } else {
    RawInnerSource inner(src);
    roi_decode<T>(inner, box, ws, r);
  }
  r.bytes_read = static_cast<std::size_t>(src.bytes_read() - before);
  r.timings.total = wall.lap();
  return r;
}

/// Prefix decode of a raw archive: read the directory, then only the
/// segments of levels >= max_level, and replay the partial reconstruction.
/// Bytes past the consumed prefix are never touched, so truncating the
/// archive to `bytes_read` bytes decodes identically (the byte-accounting
/// test does exactly that).
template <typename T>
ProgressiveResultT<T> progressive_raw(std::span<const std::byte> bytes,
                                      int max_level, dev::Workspace& ws) {
  core::ByteReader rd(bytes, "cusz-i");
  const InnerHeader h = parse_inner_header<T>(rd);
  const auto segs = parse_directory<T>(rd, h);
  const int nlevels = predictor::ginterp_level_count(h.dims);
  const int level = std::clamp(max_level, 1, nlevels + 1);

  const std::size_t acount = static_cast<std::size_t>(segs[0].count);
  const std::size_t abytes = static_cast<std::size_t>(segs[0].size);
  auto anchors = ws.make<T>(acount);
  if (acount > 0)
    std::memcpy(anchors.data(), rd.read_bytes(abytes).data(), abytes);

  const auto outliers = parse_outlier_blob<T>(
      rd.read_bytes(static_cast<std::size_t>(segs[1].size)), ws);
  if (outliers.indices.size() != segs[1].count)
    rd.fail("outlier blob count disagrees with directory");

  (void)rd.checked_array_bytes(h.volume, sizeof(quant::Code));
  auto codes = ws.make<quant::Code>(h.volume);
  std::fill(codes.begin(), codes.end(), static_cast<quant::Code>(h.radius));

  for (std::size_t i = 2; i < segs.size() && segs[i].level >= level; ++i) {
    const auto syms = huffman::decode(
        rd.read_bytes(static_cast<std::size_t>(segs[i].size)), ws);
    if (syms.size() != segs[i].count)
      rd.fail("level stream symbol count mismatch");
    predictor::LevelScatterCursor cur(h.dims, segs[i].level);
    cur.advance(syms, syms.size(), codes);
  }
  const std::size_t consumed = rd.offset();

  ProgressiveResultT<T> r;
  r.data = predictor::ginterp_decompress_to_level(
      codes, std::span<const T>(anchors), outliers, h.dims, h.eb, h.cfg,
      h.radius, level, ws);
  r.dims = predictor::ginterp_preview_dims(h.dims, level);
  r.level = level;
  r.bytes_read = consumed;
  ws.reset();
  return r;
}

/// Progressive decode through the 'BBC2' wrapper: LZSS blocks decode
/// serially and only as far as the inner prefix the preview needs;
/// `bytes_read` counts the wrapper framing plus the compressed extent of
/// the payloads actually decoded. A method-0 wrapper segment consumes
/// block by block; a transformed (zero-RLE / bitshuffle) segment is
/// all-or-nothing — its whole payload decodes the moment any of its raw
/// bytes are needed.
///
/// The container parses in prefix mode and each payload's LZSS frame is
/// parsed (and cross-checked against its table entry) only when the
/// preview first needs that segment: an archive truncated at a previous
/// preview's `bytes_read` — a wrapper-payload boundary, since the 'BBC2'
/// segmentation mirrors the inner directory — decodes the same preview,
/// while a truncation that cuts a *needed* payload still throws.
template <typename T>
ProgressiveResultT<T> progressive_wrapped(std::span<const std::byte> bytes,
                                          int max_level, dev::Workspace& ws) {
  const auto container = bitcomp_parse_container(bytes, /*prefix_ok=*/true);
  const std::size_t nwseg = container.segments.size();
  std::vector<lossless::LzssFrame> frames(nwseg);
  std::vector<char> parsed(nwseg, 0);
  const auto frame_at = [&](std::size_t i) -> const lossless::LzssFrame& {
    if (!parsed[i]) {
      const auto& s = container.segments[i];
      if (container.payloads[i].size() < s.size)
        throw core::CorruptArchive("bitcomp-wrapper", 0,
                                   "container truncated inside a segment "
                                   "the preview needs");
      frames[i] = lossless::lzss_parse_frame(container.payloads[i], ws);
      bitcomp_check_frame(s.method, s.raw_size, frames[i], 0);
      parsed[i] = 1;
    }
    return frames[i];
  };
  std::vector<std::size_t> seg_off(nwseg);
  std::size_t raw_size = 0;
  for (std::size_t i = 0; i < nwseg; ++i) {
    seg_off[i] = raw_size;
    raw_size += static_cast<std::size_t>(container.segments[i].raw_size);
  }
  auto raw = ws.make<std::byte>(raw_size);

  std::size_t cur = 0;  // wrapper segment cursor
  std::size_t nb = 0;   // blocks decoded within the current method-0 segment
  std::size_t decoded = 0;
  const auto ensure = [&](std::size_t off) {
    if (off > raw_size) off = raw_size;
    while (decoded < off) {
      if (cur >= nwseg) {
        decoded = raw_size;
        break;
      }
      const auto& fr = frame_at(cur);
      const auto m = container.segments[cur].method;
      const std::size_t soff = seg_off[cur];
      const std::size_t slen =
          static_cast<std::size_t>(container.segments[cur].raw_size);
      if (m == lossless::Method::Lzss && nb < fr.nblocks) {
        const std::size_t begin = nb * fr.block_size;
        const std::size_t len = std::min(fr.block_size, fr.raw_size - begin);
        lossless::lzss_decompress_block(fr, nb,
                                        {raw.data() + soff + begin, len});
        ++nb;
        decoded = std::max(decoded, soff + begin + len);
        continue;
      }
      if (m != lossless::Method::Lzss) {
        auto tmp = ws.make<std::byte>(fr.raw_size);
        for (std::size_t k = 0; k < fr.nblocks; ++k) {
          const std::size_t begin = k * fr.block_size;
          const std::size_t len = std::min(fr.block_size, fr.raw_size - begin);
          lossless::lzss_decompress_block(fr, k, {tmp.data() + begin, len});
        }
        lossless::method_untransform(tmp, m, {raw.data() + soff, slen});
      }
      // Segment complete (transformed, exhausted method-0, or empty).
      decoded = std::max(decoded, soff + slen);
      ++cur;
      nb = 0;
    }
  };
  const auto sat = [&](std::size_t base, std::uint64_t extra) {
    if (base >= raw_size) return raw_size;
    const std::size_t room = raw_size - base;
    return extra >= room ? raw_size : base + static_cast<std::size_t>(extra);
  };
  // Wrapper framing + compressed extent consumed so far. Fully-consumed
  // payloads count whole; a partially-decoded method-0 payload counts its
  // frame header plus the block extent.
  const auto consumed_bytes = [&] {
    std::size_t consumed = container.table_bytes;
    for (std::size_t i = 0; i < cur; ++i)
      consumed += container.payloads[i].size();
    if (cur < nwseg && nb > 0) {
      const auto& fr = frames[cur];
      consumed += container.payloads[cur].size() - fr.stream.size();
      consumed += nb < fr.nblocks ? static_cast<std::size_t>(fr.offsets[nb])
                                  : fr.stream.size();
    }
    return consumed;
  };

  core::ByteReader rd({raw.data(), raw_size}, "cusz-i");
  ensure(kInnerFixedBytes);
  const InnerHeader h = parse_inner_header<T>(rd);
  const int nlevels = predictor::ginterp_level_count(h.dims);
  // The directory's size is a closed form of dims, so a preview never pays
  // for bytes past it.
  ensure(header_bytes(nlevels));
  const auto segs = parse_directory<T>(rd, h);
  const int level = std::clamp(max_level, 1, nlevels + 1);

  const std::size_t acount = static_cast<std::size_t>(segs[0].count);
  const std::size_t abytes = static_cast<std::size_t>(segs[0].size);
  ensure(sat(rd.offset(), abytes));
  auto anchors = ws.make<T>(acount);
  if (acount > 0)
    std::memcpy(anchors.data(), rd.read_bytes(abytes).data(), abytes);

  ensure(sat(rd.offset(), segs[1].size));
  const auto outliers = parse_outlier_blob<T>(
      rd.read_bytes(static_cast<std::size_t>(segs[1].size)), ws);
  if (outliers.indices.size() != segs[1].count)
    rd.fail("outlier blob count disagrees with directory");

  (void)rd.checked_array_bytes(h.volume, sizeof(quant::Code));
  auto codes = ws.make<quant::Code>(h.volume);
  std::fill(codes.begin(), codes.end(), static_cast<quant::Code>(h.radius));

  for (std::size_t i = 2; i < segs.size() && segs[i].level >= level; ++i) {
    ensure(sat(rd.offset(), segs[i].size));
    const auto syms = huffman::decode(
        rd.read_bytes(static_cast<std::size_t>(segs[i].size)), ws);
    if (syms.size() != segs[i].count)
      rd.fail("level stream symbol count mismatch");
    predictor::LevelScatterCursor cur(h.dims, segs[i].level);
    cur.advance(syms, syms.size(), codes);
  }

  ProgressiveResultT<T> r;
  r.data = predictor::ginterp_decompress_to_level(
      codes, std::span<const T>(anchors), outliers, h.dims, h.eb, h.cfg,
      h.radius, level, ws);
  r.dims = predictor::ginterp_preview_dims(h.dims, level);
  r.level = level;
  r.bytes_read = consumed_bytes();
  ws.reset();
  return r;
}

/// Magic dispatch for the progressive entry points: 'BBC2' → payload-lazy
/// wrapped path, anything else → raw prefix decode (which rejects a magic
/// other than 'SZI2').
template <typename T>
ProgressiveResultT<T> decompress_progressive_typed(
    std::span<const std::byte> bytes, int max_level, dev::Workspace& ws) {
  if (peek_magic(bytes) == kBitcompWrapMagicV2)
    return progressive_wrapped<T>(bytes, max_level, ws);
  return progressive_raw<T>(bytes, max_level, ws);
}

/// Directory parse for the public cuszi_archive_segments().
template <typename T>
std::vector<SegmentInfo> archive_segments_typed(
    std::span<const std::byte> bytes) {
  core::ByteReader rd(bytes, "cusz-i");
  const InnerHeader h = parse_inner_header<T>(rd);
  const auto segs = parse_directory<T>(rd, h);
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
    auto out = decompress_typed<float>(bytes, ws);
    if (decode_seconds) *decode_seconds = total.lap();
    return out;
  }

  [[nodiscard]] std::vector<float> decompress_stages(
      std::span<const std::byte> bytes, DecodeTimings& t) override {
    dev::Workspace ws(dev::Arena::instance());
    return decompress_typed<float>(bytes, ws, &t);
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
  if (peek_magic(bytes) == kBitcompWrapMagicV2)
    return cuszi_archive_segments(bitcomp_unwrap_archive(bytes));
  return cuszi_archive_precision(bytes) == Precision::F32
             ? archive_segments_typed<float>(bytes)
             : archive_segments_typed<double>(bytes);
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
  dev::Arena local;
  dev::Workspace ws(local);
  return decompress_progressive_typed<float>(bytes, max_level, ws);
}

ProgressiveResultT<double> cuszi_decompress_progressive_f64(
    std::span<const std::byte> bytes, int max_level) {
  dev::Arena local;
  dev::Workspace ws(local);
  return decompress_progressive_typed<double>(bytes, max_level, ws);
}

ProgressiveResultT<float> cuszi_decompress_progressive_f32(
    std::span<const std::byte> bytes, int max_level, dev::Workspace& ws) {
  return decompress_progressive_typed<float>(bytes, max_level, ws);
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

ProgressiveResultT<double> cuszi_decompress_progressive_f64(
    std::span<const std::byte> bytes, int max_level, dev::Workspace& ws) {
  return decompress_progressive_typed<double>(bytes, max_level, ws);
}

std::vector<float> cuszi_decompress_f32(std::span<const std::byte> bytes,
                                        DecodeTimings* timings) {
  return decompress_typed<float>(bytes, timings);
}

std::vector<double> cuszi_decompress_f64(std::span<const std::byte> bytes,
                                         DecodeTimings* timings) {
  return decompress_typed<double>(bytes, timings);
}

std::vector<float> cuszi_decompress_f32(std::span<const std::byte> bytes,
                                        dev::Workspace& ws) {
  return decompress_typed<float>(bytes, ws);
}

std::vector<double> cuszi_decompress_f64(std::span<const std::byte> bytes,
                                         dev::Workspace& ws) {
  return decompress_typed<double>(bytes, ws);
}

std::vector<float> cuszi_decompress_bitcomp_f32(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings) {
  return decompress_bitcomp_typed<float>(bytes, ws, timings);
}

std::vector<double> cuszi_decompress_bitcomp_f64(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings) {
  return decompress_bitcomp_typed<double>(bytes, ws, timings);
}

}  // namespace szi
