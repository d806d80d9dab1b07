// The interface every compressor in this repository implements — cuSZ-i and
// all five baselines — so the benches can sweep them uniformly (§VII-A).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/field.hh"
#include "lossless/orchestrate.hh"

namespace szi::dev {
class Workspace;
}  // namespace szi::dev

namespace szi {

/// Error-control mode. Rel is value-range-relative (the paper's ε); the
/// pipeline converts it to an absolute bound using the field's range.
/// PwRel bounds each point's relative error |v'-v| <= rel*|v| and is served
/// by the with_pointwise_rel() decorator (log-domain transform), not by the
/// base compressors. FixedRate is cuZFP's mode (bits per element).
/// Compressors that don't support a mode throw std::invalid_argument.
enum class ErrorMode { Abs, Rel, PwRel, FixedRate };

struct CompressParams {
  ErrorMode mode = ErrorMode::Rel;
  double value = 1e-3;  ///< eb (Abs/Rel) or bits-per-element (FixedRate)
};

/// Per-stage wall-clock seconds. `codebook` is reported separately because
/// the paper excludes the ~200 us CPU codebook build from kernel throughput
/// (§VI-A, §VII-C.4).
struct StageTimings {
  double predict = 0;
  double histogram = 0;
  double codebook = 0;
  double encode = 0;
  double total = 0;
  /// True when the histogram was accumulated inside the predict kernel (the
  /// fused pipeline): `histogram` is then 0 by construction and `predict`
  /// covers both stages. Reporters must not present the 0 as "a histogram
  /// pass that took no time".
  bool histogram_fused = false;

  [[nodiscard]] double kernel_time() const { return total - codebook; }
};

struct CompressResult {
  std::vector<std::byte> bytes;
  StageTimings timings;
};

/// Decompression-side stage breakdown (--stages on -x). Every decode runs
/// its stages one after another, so each is a wall-clock slice of `total`.
struct DecodeTimings {
  double unwrap = 0;       ///< de-redundancy (LZSS block) decode
  double huffman = 0;      ///< fetch and entropy decode
  double reconstruct = 0;  ///< anchor/outlier seed + tile code gather/passes
  double total = 0;        ///< wall clock for the whole decode
};

/// A sub-volume request for random-access (ROI) decode: the half-open box
/// [lo, lo + ext) in field coordinates. Empty or out-of-range boxes throw
/// std::invalid_argument.
struct RoiBox {
  dev::Dim3 lo;   ///< box origin
  dev::Dim3 ext;  ///< box extents (all axes >= 1)
};

/// Result of a preview or ROI decode: the request's grid, reconstructed.
/// A preview is the field on the level-`level` lattice (anchors +
/// interpolation levels >= `level`; at level 1 the full-fidelity
/// reconstruction), a box exactly the requested sub-volume at level 1,
/// bit-identical to cropping a full decompress. `bytes_read` counts the
/// archive bytes the decode fetched: for a preview the directory plus the
/// needed prefix of segments (a truncation to that many bytes still
/// decodes), for a box the directory, the tile index and the blocks
/// covering it.
template <typename T>
struct DecodeResultT {
  std::vector<T> data;         ///< dims.volume() elements
  dev::Dim3 dims;              ///< preview grid, or the box's extents
  int level = 1;               ///< effective (clamped) level
  std::size_t bytes_read = 0;  ///< archive bytes fetched
  DecodeTimings timings;
};

/// What every compressor offers: compress and decompress of an f32 field.
/// cuSZ-i's previews, boxes and decode stage split are its own typed calls
/// (core/cuszi.hh), which take the level or box and read raw and wrapped
/// archives alike.
class Compressor {
 public:
  virtual ~Compressor() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual CompressResult compress(const Field& field,
                                                const CompressParams& p) = 0;

  /// Archives are self-describing. A caller that wants the wall time times
  /// the call itself.
  [[nodiscard]] virtual std::vector<float> decompress(
      std::span<const std::byte> bytes) = 0;
};

/// Wraps any compressor with the de-redundancy pass (§VI-B); TABLE III's
/// right half applies it "fairly to all compressors' outputs". Compress is
/// the inner compress() followed by bitcomp_wrap_archive(); decompress is
/// the pool-wide unwrap followed by the inner decompress().
[[nodiscard]] std::unique_ptr<Compressor> with_bitcomp(
    std::unique_ptr<Compressor> inner);

/// The raw §VI-B framing used by with_bitcomp(). Current archives use the
/// 'BBC2' container: the inner archive is split at its SZI2 segment
/// boundaries (non-SZI2 inner = one segment) and each segment is routed
/// through the best-of-three de-redundancy pipeline picked by the sampled
/// chooser (lossless/orchestrate.hh), then LZSS'd into its own stream. The
/// no-argument overload wraps with LzssMode::Lazy + MethodPolicy::Auto —
/// what cuszi_compress_bitcomp() emits. Unwrapping anything but a valid
/// 'BBC2' container throws core::CorruptArchive.
[[nodiscard]] std::vector<std::byte> bitcomp_wrap_archive(
    std::span<const std::byte> bytes);
[[nodiscard]] std::vector<std::byte> bitcomp_wrap_archive(
    std::span<const std::byte> bytes, lossless::LzssMode mode,
    lossless::MethodPolicy policy = lossless::MethodPolicy::Auto,
    std::vector<lossless::ChoiceAudit>* audits = nullptr);
/// Workspace form, the one wrap implementation: every segment is chosen and
/// transformed in turn, then every LZSS block of every segment encodes in
/// one pool-wide launch, then the container is assembled. Transforms and
/// block slices come from `ws`, which is not reset here (the bytes may live
/// in it). Same bytes as the other overloads.
[[nodiscard]] std::vector<std::byte> bitcomp_wrap_archive(
    std::span<const std::byte> bytes, lossless::LzssMode mode,
    lossless::MethodPolicy policy, std::vector<lossless::ChoiceAudit>* audits,
    dev::Workspace& ws);
[[nodiscard]] std::vector<std::byte> bitcomp_unwrap_archive(
    std::span<const std::byte> bytes);
/// Workspace form: the decoder's fetch (InnerBytes) over the whole inner
/// archive — every frame parses and is cross-checked against its table
/// entry, then every LZSS block of every segment decodes in one pool-wide
/// launch, a method-0 segment straight into its range of the inner
/// archive, a transformed one into scratch that then untransforms into its
/// range. The inner archive lives in `ws` memory, valid until the caller
/// resets `ws`.
[[nodiscard]] std::span<const std::byte> bitcomp_unwrap_archive(
    std::span<const std::byte> bytes, dev::Workspace& ws);

/// 'BBC2', the per-segment orchestrated wrapper magic (shared with the
/// fused pipeline, which emits/parses the framing without ByteWriter):
///   u32 magic | u32 nseg | nseg * WrapSegmentEntry | payloads back-to-back
/// Payload offsets are implied by contiguity; the entry sizes must fill the
/// container exactly.
inline constexpr std::uint32_t kBitcompWrapMagicV2 = 0x32434242;

/// On-disk BBC2 segment-table entry (little-endian POD, docs/FORMAT.md).
/// `method` is a lossless::Method byte; `raw_size` is the segment's size in
/// the inner archive; `size` is its stored LZSS-stream size.
struct WrapSegmentEntry {
  std::uint8_t method = 0;
  std::uint8_t reserved0 = 0;
  std::uint16_t reserved1 = 0;
  std::uint32_t reserved2 = 0;
  std::uint64_t raw_size = 0;
  std::uint64_t size = 0;
};
static_assert(sizeof(WrapSegmentEntry) == 24, "on-disk layout");

/// One wrapper segment of a parsed container.
struct WrapSegmentInfo {
  lossless::Method method = lossless::Method::Lzss;
  std::uint64_t raw_size = 0;  ///< the segment's size in the inner archive
  std::uint64_t size = 0;      ///< stored payload bytes
};

/// Validated view of a 'BBC2' container: the segment table plus borrowed
/// views of each payload. Throws core::CorruptArchive on bad magic,
/// reserved bits, unknown method ids, or payload sizes that don't fill the
/// container. The CLI's method audit and the benches read containers
/// through it; the decoder's fetch (InnerBytes, core/inner_bytes.hh) checks
/// the table with the same rules, in prefix mode.
struct WrapContainerView {
  std::size_t table_bytes = 0;  ///< header + table size = first payload base
  std::vector<WrapSegmentInfo> segments;
  std::vector<std::span<const std::byte>> payloads;
};

[[nodiscard]] WrapContainerView bitcomp_parse_container(
    std::span<const std::byte> bytes);

/// Cross-checks a payload's parsed LZSS frame against its table entry: a
/// method-0 frame must expand to the segment's `raw_size`, a bitshuffle
/// frame to bitshuffle_frame_size(raw_size); zero-RLE is self-describing
/// and is validated by its untransform. Throws core::CorruptArchive
/// reporting `offset`.
void bitcomp_check_frame(lossless::Method method, std::uint64_t raw_size,
                         const lossless::LzssFrame& frame, std::size_t offset);

/// Serves ErrorMode::PwRel on top of any error-bounded compressor by
/// compressing log|v| at an absolute bound of log(1+rel), with sign and
/// zero classes stored as RLE bitmaps (the SZ-family log-transform scheme).
[[nodiscard]] std::unique_ptr<Compressor> with_pointwise_rel(
    std::unique_ptr<Compressor> inner);

/// Resolves Abs/Rel to an absolute bound for `data`; throws
/// std::invalid_argument for PwRel/FixedRate or non-positive results.
/// Shared by every error-bounded pipeline.
[[nodiscard]] double resolve_abs_eb(const CompressParams& p,
                                    std::span<const float> data,
                                    const std::string& who);

}  // namespace szi
