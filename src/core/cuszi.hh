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
// segment (cuszi_decompress_progressive_*). The legacy single-stream 'SZI1'
// layout still decodes — every decode entry point dispatches on the magic —
// and cuszi_compress_v1() still writes it for back-compat tests.
// Decoding is bounds-checked end to end; malformed archives throw
// szi::core::CorruptArchive naming the rejecting stage and byte offset.
#pragma once

#include <exception>
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
/// Compressor interface). `use_topk_histogram` toggles the §VI-A histogram
/// optimization (the ablation bench flips it).
[[nodiscard]] std::unique_ptr<Compressor> make_cuszi(
    bool use_topk_histogram = true);

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

/// Reference (unfused) pipeline: separate predict, histogram, and encode
/// passes, mirroring the pre-fusion stage structure the same way
/// predictor/reference.cc mirrors the optimized kernels. Archive bytes are
/// identical to cuszi_compress() (tests/test_fused_equiv.cc asserts this);
/// `use_topk_histogram` selects the §VI-A hot-band histogram (meaningful
/// only here — the fused pipeline counts inside the predict kernel).
[[nodiscard]] std::vector<std::byte> cuszi_compress_unfused(
    std::span<const float> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr,
    bool use_topk_histogram = true);
[[nodiscard]] std::vector<std::byte> cuszi_compress_unfused(
    std::span<const double> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr,
    bool use_topk_histogram = true);

/// Legacy 'SZI1' single-stream writer, retained verbatim so back-compat
/// tests can mint v1 archives against the version-dispatched decoders.
/// Bytes are identical to what pre-SZI2 builds of cuszi_compress() emitted.
[[nodiscard]] std::vector<std::byte> cuszi_compress_v1(
    std::span<const float> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr);
[[nodiscard]] std::vector<std::byte> cuszi_compress_v1(
    std::span<const double> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr);

/// SZI2 with one unified codebook shared by every level segment instead of
/// a per-level book (the bench's per-level-vs-unified ratio ablation). The
/// framing is unchanged — each segment still carries the book it decodes
/// with — so the archive decodes through the normal entry points.
[[nodiscard]] std::vector<std::byte> cuszi_compress_unified_book(
    std::span<const float> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr);
[[nodiscard]] std::vector<std::byte> cuszi_compress_unified_book(
    std::span<const double> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr);

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

/// One field of a batched compression call (borrowed storage; the caller
/// keeps `data` alive for the duration of cuszi_compress_many).
struct FieldView {
  std::span<const float> data;
  dev::Dim3 dims;
};

/// Batched front end: compresses `fields` by pipelining them round-robin
/// across `streams` dev::Streams, each stream owning a persistent Workspace
/// over its own partitioned arena shard so buffers are reused from field to
/// field without cross-stream lock contention. `streams == 0` (the default)
/// sizes the fleet automatically: one stream per pool worker, capped by the
/// field count. Archives are byte-identical to per-field cuszi_compress()
/// and returned in input order; the first exception any field raises is
/// rethrown after all streams drain. `timings` (optional) receives
/// per-field stage timings.
[[nodiscard]] std::vector<std::vector<std::byte>> cuszi_compress_many(
    std::span<const FieldView> fields, const CompressParams& params,
    std::vector<StageTimings>* timings = nullptr, std::size_t streams = 0);

/// Outcome of one field of a checked batch: either the archive bytes or the
/// exception that field raised, never both. A failed field is isolated — it
/// does not poison its stream or drop the wave's other fields.
struct BatchItem {
  std::vector<std::byte> bytes;  ///< empty when error is set
  StageTimings timings;
  std::exception_ptr error;  ///< null on success

  [[nodiscard]] bool ok() const { return error == nullptr; }
};

/// Failure-isolated batched compress: like cuszi_compress_many(), but each
/// field's exception is captured into its BatchItem instead of being
/// rethrown, so one bad field (NaN range, zero-range Rel bound, ...) fails
/// only its own slot while every other field still produces its archive —
/// byte-identical to per-field cuszi_compress().
[[nodiscard]] std::vector<BatchItem> cuszi_compress_many_checked(
    std::span<const FieldView> fields, const CompressParams& params,
    std::size_t streams = 0);

enum class Precision : std::uint8_t { F32 = 0, F64 = 1 };

/// Reads the precision byte of a cuSZ-i archive, either version (throws on
/// bad magic).
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

/// Parses + validates the segment directory of an SZI2 archive ('BBCP'
/// wrappers are unwrapped first). Legacy SZI1 archives return an empty
/// vector; corrupt input throws core::CorruptArchive. Drives the CLI's
/// per-segment --stages lines and bench/progressive's size accounting.
[[nodiscard]] std::vector<SegmentInfo> cuszi_archive_segments(
    std::span<const std::byte> bytes);

/// Progressive (preview) decode: reconstructs anchors + interpolation
/// levels >= max_level onto the stride-2^(max_level-1) preview grid. For a
/// raw SZI2 archive only the directory plus the needed prefix of segments
/// is read (`bytes_read` reports exactly how much, and a truncation to that
/// many bytes still decodes); for a 'BBCP' wrapper only the LZSS blocks
/// covering that prefix are decoded; legacy SZI1 falls back to a full
/// decode + subsample. max_level <= 1 is the full-fidelity reconstruction,
/// bit-identical to cuszi_decompress_*; level_count+1 is the lossless
/// anchor grid.
[[nodiscard]] ProgressiveResultT<float> cuszi_decompress_progressive_f32(
    std::span<const std::byte> bytes, int max_level);
[[nodiscard]] ProgressiveResultT<double> cuszi_decompress_progressive_f64(
    std::span<const std::byte> bytes, int max_level);
[[nodiscard]] ProgressiveResultT<float> cuszi_decompress_progressive_f32(
    std::span<const std::byte> bytes, int max_level, dev::Workspace& ws);
[[nodiscard]] ProgressiveResultT<double> cuszi_decompress_progressive_f64(
    std::span<const std::byte> bytes, int max_level, dev::Workspace& ws);

/// Random-access ROI decode: reconstructs exactly the box [lo, lo + ext),
/// bit-identical to cropping a full decompress. When the archive carries
/// the trailing tile index (TIDX) the decoder pulls only the directory,
/// index, anchor rows, outlier set, and the Huffman chunks / LZSS blocks
/// covering the box's tile slabs through `src` — the per-level working set
/// is bounded by the halo'd box, never the field, and `bytes_read` reports
/// the honest fetch total. Archives without an index (SZI1, pre-index SZI2,
/// legacy 'BBCP' wrappers) fall back to a full decode + crop with
/// `indexed` false. The span overloads serve in-memory archives through a
/// MemorySource.
[[nodiscard]] RoiResultT<float> cuszi_decompress_roi_f32(io::ArchiveSource& src,
                                                         const RoiBox& box);
[[nodiscard]] RoiResultT<double> cuszi_decompress_roi_f64(
    io::ArchiveSource& src, const RoiBox& box);
[[nodiscard]] RoiResultT<float> cuszi_decompress_roi_f32(
    std::span<const std::byte> bytes, const RoiBox& box);
[[nodiscard]] RoiResultT<double> cuszi_decompress_roi_f64(
    std::span<const std::byte> bytes, const RoiBox& box);

/// Decompression, typed; throws std::runtime_error if the archive's
/// precision does not match the requested function.
[[nodiscard]] std::vector<float> cuszi_decompress_f32(
    std::span<const std::byte> bytes, DecodeTimings* timings = nullptr);
[[nodiscard]] std::vector<double> cuszi_decompress_f64(
    std::span<const std::byte> bytes, DecodeTimings* timings = nullptr);

/// Workspace forms: every decode intermediate (quant codes, anchors,
/// outlier arrays, scatter buffer) is drawn from `ws` instead of freshly
/// allocated. Output is bit-identical to the plain overloads'.
[[nodiscard]] std::vector<float> cuszi_decompress_f32(
    std::span<const std::byte> bytes, dev::Workspace& ws);
[[nodiscard]] std::vector<double> cuszi_decompress_f64(
    std::span<const std::byte> bytes, dev::Workspace& ws);

/// Pipelined decompress of a bitcomp-wrapped ('BBCP') cuSZ-i archive: LZSS
/// blocks decode on a dev::Stream while the host thread parses the inner
/// archive and Huffman-decodes chunk groups as their payload bytes land.
/// Output is bit-identical to
/// cuszi_decompress_*(bitcomp_unwrap_archive(bytes)); malformed input
/// throws core::CorruptArchive exactly like the unfused path.
[[nodiscard]] std::vector<float> cuszi_decompress_bitcomp_f32(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings = nullptr);
[[nodiscard]] std::vector<double> cuszi_decompress_bitcomp_f64(
    std::span<const std::byte> bytes, dev::Workspace& ws,
    DecodeTimings* timings = nullptr);

}  // namespace szi
