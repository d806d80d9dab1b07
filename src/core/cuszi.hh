// cuSZ-i: the paper's full compressor (§IV).
//
// Pipeline: profiling auto-tune (§V-C) → G-Interp prediction + level-wise
// error quantization (§V) → outlier compaction + coarse-grained Huffman
// (§VI-A). The optional Bitcomp-style de-redundancy pass (§VI-B) is applied
// through szi::with_bitcomp(), uniformly available to every compressor.
//
// Archives are level-segmented ('SZI2'; field-by-field spec in
// docs/FORMAT.md):
//   magic 'SZI2' | precision | dims | eb_abs | InterpConfig+radius |
//   segment directory | anchors | outliers | per-level huffman streams
// Each interpolation level's quant codes form an independently framed
// Huffman stream with its own codebook, ordered coarsest level first, so a
// preview decode at level L reads only the archive prefix through level L's
// segment (cuszi_decompress_progressive_*), and a trailing tile index lets a
// random-access read fetch only the bytes covering a box
// (cuszi_decompress_roi_*). This is the only layout the decoders accept,
// raw or in a 'BBC2' wrapper; every cuszi_decompress_* entry point reads
// either, telling them apart by the archive's first bytes. The retired
// 'SZI1', 'BBCP' and pre-index layouts are rejected like any other
// malformed input. Decoding is bounds-checked end to end; malformed
// archives throw szi::core::CorruptArchive naming the rejecting stage and
// byte offset.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/compressor_iface.hh"
#include "device/arena.hh"
#include "device/dims.hh"
#include "lossless/lzss.hh"

namespace szi::io {
class ArchiveSource;
}  // namespace szi::io

namespace szi {

/// Factory for the cuSZ-i compressor (f32 fields through the common
/// Compressor interface).
[[nodiscard]] std::unique_ptr<Compressor> make_cuszi();

/// Typed free-function API — the paper's datasets are f32, but SDRBench
/// also ships f64 fields (QMCPack, some Nyx runs); both precisions share
/// the same archive format, distinguished by a header byte.
[[nodiscard]] std::vector<std::byte> cuszi_compress(
    std::span<const float> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr);
[[nodiscard]] std::vector<std::byte> cuszi_compress(
    std::span<const double> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr);

/// Workspace forms: every pipeline intermediate (quant codes, anchors,
/// outliers, histograms, Huffman chunk buffers) is drawn from `ws`'s arena
/// pool instead of freshly allocated, and `ws` is reset before returning.
/// The archive bytes are identical to the plain overloads'.
[[nodiscard]] std::vector<std::byte> cuszi_compress(
    std::span<const float> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings, dev::Workspace& ws);
[[nodiscard]] std::vector<std::byte> cuszi_compress(
    std::span<const double> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings, dev::Workspace& ws);

/// Compress straight to the §VI-B bitcomp-wrapped archive, in phases that
/// each span the pool: the inner archive is assembled once in `ws` memory
/// with every level's Huffman payload emitted directly into its final slot,
/// then every 64 KiB LZSS block of every wrapper segment encodes in one
/// launch. Bytes are identical to
/// bitcomp_wrap_archive(cuszi_compress(data, ...)) with the same `mode`.
[[nodiscard]] std::vector<std::byte> cuszi_compress_bitcomp(
    std::span<const float> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings, dev::Workspace& ws,
    lossless::LzssMode mode = lossless::LzssMode::Lazy);
[[nodiscard]] std::vector<std::byte> cuszi_compress_bitcomp(
    std::span<const double> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings, dev::Workspace& ws,
    lossless::LzssMode mode = lossless::LzssMode::Lazy);

enum class Precision : std::uint8_t { F32 = 0, F64 = 1 };

/// Reads the precision byte of a raw cuSZ-i archive (throws on bad magic).
[[nodiscard]] Precision cuszi_archive_precision(std::span<const std::byte> b);

/// One row of an SZI2 archive's segment directory, as validated by the
/// decoder: kind 0 = anchor grid, 1 = outlier set, 2 = one interpolation
/// level's Huffman stream (level is the 1-based level; segments are ordered
/// coarsest first), 3 = the trailing random-access tile index (TIDX).
/// `offset`/`size` are absolute byte ranges into the raw archive; `count`
/// is the element count (anchors, outliers, symbols, or index entries).
struct SegmentInfo {
  std::uint8_t kind = 0;
  std::uint8_t level = 0;
  std::uint64_t count = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

/// Parses + validates the segment directory of an archive — the decoder's
/// header phase, which through a 'BBC2' wrapper decodes only the blocks
/// covering the inner header and directory; corrupt input throws
/// core::CorruptArchive. Drives the CLI's per-segment --stages lines and
/// bench/progressive's size accounting.
[[nodiscard]] std::vector<SegmentInfo> cuszi_archive_segments(
    std::span<const std::byte> bytes);

/// Progressive (preview) decode: reconstructs anchors + interpolation
/// levels >= max_level on the stride-2^(max_level-1) preview grid itself,
/// so time and memory scale with the preview. For a raw SZI2 archive only
/// the directory plus the needed prefix of segments is read (`bytes_read`
/// reports exactly how much, and a truncation to that many bytes still
/// decodes); for a 'BBC2' wrapper only the LZSS blocks covering that
/// prefix are decoded. max_level <= 1 is the full-fidelity
/// reconstruction, bit-identical to cuszi_decompress_*; level_count+1 is
/// the lossless anchor grid. Scratch comes from dev::Arena::instance().
[[nodiscard]] DecodeResultT<float> cuszi_decompress_progressive_f32(
    std::span<const std::byte> bytes, int max_level);
[[nodiscard]] DecodeResultT<double> cuszi_decompress_progressive_f64(
    std::span<const std::byte> bytes, int max_level);

/// Random-access ROI decode: reconstructs exactly the box [lo, lo + ext),
/// bit-identical to cropping a full decompress. Through `src` the decoder
/// pulls only the directory, the tile index (TIDX), anchor rows, outlier
/// set, and the Huffman chunks / LZSS blocks covering the box's tile slabs,
/// located by closed forms and the chunk offset tables; the index is only
/// rebuilt (build_tidx) and compared. The full decoder's pool-wide phases
/// decode them — the per-level working set is bounded by the halo'd box,
/// never the field, and `bytes_read` reports the honest fetch total. A box
/// covering the whole field decodes as a full decode.
/// The span overloads serve in-memory archives through a MemorySource.
[[nodiscard]] DecodeResultT<float> cuszi_decompress_roi_f32(
    io::ArchiveSource& src, const RoiBox& box);
[[nodiscard]] DecodeResultT<double> cuszi_decompress_roi_f64(
    io::ArchiveSource& src, const RoiBox& box);
[[nodiscard]] DecodeResultT<float> cuszi_decompress_roi_f32(
    std::span<const std::byte> bytes, const RoiBox& box);
[[nodiscard]] DecodeResultT<double> cuszi_decompress_roi_f64(
    std::span<const std::byte> bytes, const RoiBox& box);

/// Full decompression of a raw or 'BBC2' archive, typed; throws
/// core::CorruptArchive if the archive's precision does not match the
/// requested function. A 'BBC2' container decodes every LZSS block into
/// workspace memory (the header's first, then all others in one pool-wide
/// launch) and the inner archive decodes in place; `timings->unwrap` is
/// that decode (0 when raw). Scratch comes from dev::Arena::instance().
[[nodiscard]] std::vector<float> cuszi_decompress_f32(
    std::span<const std::byte> bytes, DecodeTimings* timings = nullptr);
[[nodiscard]] std::vector<double> cuszi_decompress_f64(
    std::span<const std::byte> bytes, DecodeTimings* timings = nullptr);

/// Workspace forms: every decode intermediate (level code windows,
/// anchors, outlier arrays) is drawn from `ws` instead of freshly
/// allocated. Output is bit-identical to the plain overloads'.
[[nodiscard]] std::vector<float> cuszi_decompress_f32(
    std::span<const std::byte> bytes, dev::Workspace& ws);
[[nodiscard]] std::vector<double> cuszi_decompress_f64(
    std::span<const std::byte> bytes, dev::Workspace& ws);

/// The same decode as cuszi_decompress_* (either layout), under the names
/// the wrapped-archive callers use, with scratch from `ws`. Output is
/// bit-identical to cuszi_decompress_*(bitcomp_unwrap_archive(bytes)) for a
/// 'BBC2' archive; malformed input throws core::CorruptArchive.
[[nodiscard]] std::vector<float> cuszi_decompress_bitcomp_f32(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings = nullptr);
[[nodiscard]] std::vector<double> cuszi_decompress_bitcomp_f64(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings = nullptr);

}  // namespace szi
