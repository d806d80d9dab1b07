// The interface every compressor in this repository implements — cuSZ-i and
// all five baselines — so the benches can sweep them uniformly (§VII-A).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
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

/// Outcome of one field of a failure-isolated batch
/// (compress_batch_checked): either the archive or the exception that field
/// raised. `error` is null on success.
struct CheckedCompressResult {
  CompressResult result;
  std::exception_ptr error;

  [[nodiscard]] bool ok() const { return error == nullptr; }
};

/// Decompression-side stage breakdown (--stages on -x). Full decode runs
/// its stages one after another, so each is a wall-clock slice of `total`.
/// ROI decode runs its slabs on dev::Streams; its reconstruct figure is then
/// busy time accumulated across threads, whose sum with the other stages
/// can exceed `total` — `overlapped` tells reporters which reading applies.
struct DecodeTimings {
  double unwrap = 0;       ///< de-redundancy (LZSS block) decode
  double huffman = 0;      ///< entropy decode (full decode: + level scatter)
  double reconstruct = 0;  ///< anchor/outlier scatter + interpolation tiles
  double total = 0;        ///< wall clock for the whole decode
  bool overlapped = false;
};

/// Result of a progressive (preview) decode: the field reconstructed from
/// anchors + interpolation levels >= `level` on its coarse grid. At
/// `level` == 1 the preview IS the full-fidelity reconstruction.
/// `bytes_read` is the number of archive bytes the decode consumed — for a
/// level-segmented (SZI2) archive only the directory plus the needed prefix
/// of segments, which a truncated-archive decode at the same level proves.
template <typename T>
struct ProgressiveResultT {
  std::vector<T> data;         ///< preview field, dims.volume() elements
  dev::Dim3 dims;              ///< preview grid dimensions
  int level = 1;               ///< effective (clamped) max_level
  std::size_t bytes_read = 0;  ///< archive bytes consumed
};

using ProgressiveResult = ProgressiveResultT<float>;

/// A sub-volume request for random-access (ROI) decode: the half-open box
/// [lo, lo + ext) in field coordinates. Empty or out-of-range boxes throw
/// std::invalid_argument.
struct RoiBox {
  dev::Dim3 lo;   ///< box origin
  dev::Dim3 ext;  ///< box extents (all axes >= 1)
};

/// Result of a random-access ROI decode: exactly the requested box,
/// bit-identical to cropping a full decompress. `bytes_read` counts the
/// archive bytes actually fetched — for an indexed (TIDX-bearing) archive
/// only the directory, index, and covering blocks; for archives without an
/// index (`indexed` false) the whole archive, via the full-decode fallback.
template <typename T>
struct RoiResultT {
  std::vector<T> data;         ///< box field, ext.volume() elements
  dev::Dim3 dims;              ///< == the request's ext
  std::size_t bytes_read = 0;  ///< archive bytes fetched
  bool indexed = false;        ///< true when the tile index steered the read
  DecodeTimings timings;
};

using RoiResult = RoiResultT<float>;

class Compressor {
 public:
  virtual ~Compressor() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Whether absolute/relative error bounds are supported (cuZFP: no — the
  /// paper's TABLE III lists it as N/A for this reason).
  [[nodiscard]] virtual bool supports_error_bound() const { return true; }
  [[nodiscard]] virtual bool supports_fixed_rate() const { return false; }

  [[nodiscard]] virtual CompressResult compress(const Field& field,
                                                const CompressParams& p) = 0;

  /// Compresses a batch of fields. The default is a sequential loop;
  /// implementations may override it to pipeline fields across streams with
  /// pooled workspaces (cuSZ-i does — see cuszi_compress_many). Results are
  /// positionally matched to `fields` and byte-identical to calling
  /// compress() per field.
  [[nodiscard]] virtual std::vector<CompressResult> compress_batch(
      std::span<const Field> fields, const CompressParams& p) {
    std::vector<CompressResult> out;
    out.reserve(fields.size());
    for (const auto& f : fields) out.push_back(compress(f, p));
    return out;
  }

  /// Failure-isolated batch: one field's exception fails only its own slot
  /// (captured in CheckedCompressResult::error) instead of aborting the
  /// whole batch — the contract a multi-tenant scheduler needs to coalesce
  /// unrelated requests into one wave without coupling their fates. The
  /// default loops compress() under try/catch; cuSZ-i overrides it with the
  /// stream-pipelined checked batch. Successful slots are byte-identical
  /// to compress() per field.
  [[nodiscard]] virtual std::vector<CheckedCompressResult>
  compress_batch_checked(std::span<const Field> fields,
                         const CompressParams& p);

  /// Archives are self-describing; `decode_seconds` (optional) receives the
  /// wall time.
  [[nodiscard]] virtual std::vector<float> decompress(
      std::span<const std::byte> bytes, double* decode_seconds = nullptr) = 0;

  /// Workspace-threaded decompress: implementations may draw all scratch
  /// from `ws` (valid until its next reset) instead of a throwaway arena.
  /// The default ignores `ws` and forwards to decompress(). Output is
  /// bit-identical either way.
  [[nodiscard]] virtual std::vector<float> decompress(
      std::span<const std::byte> bytes, double* decode_seconds,
      dev::Workspace& ws);

  /// Produces the §VI-B bitcomp-wrapped archive ('BBC2' over the inner
  /// archive). The default wraps compress()'s bytes after the fact;
  /// implementations may override to wrap workspace-resident inner bytes
  /// without the extra copy (cuSZ-i does) — the bytes must stay identical
  /// to the default composition. Wrap time is folded into encode/total.
  [[nodiscard]] virtual CompressResult compress_bitcomp(
      const Field& field, const CompressParams& p);

  /// Inverse of compress_bitcomp. The default unwraps then forwards to
  /// decompress(); overrides may unwrap into workspace memory instead (cuSZ-i
  /// decodes every LZSS block in one pool-wide launch). `decode_seconds`
  /// covers unwrap + inner decode.
  [[nodiscard]] virtual std::vector<float> decompress_bitcomp(
      std::span<const std::byte> bytes, double* decode_seconds = nullptr);

  /// Decompress with a per-stage breakdown (the -x counterpart of
  /// StageTimings). The default times the whole decode as `total` and
  /// leaves the stages at zero; cuSZ-i fills the real split. Its full
  /// decode runs the stages in turn and reports `overlapped` false — only
  /// ROI decode overlaps.
  [[nodiscard]] virtual std::vector<float> decompress_stages(
      std::span<const std::byte> bytes, DecodeTimings& t);

  /// Same for a bitcomp-wrapped archive. The default times the unwrap,
  /// then forwards to decompress_stages() on the inner bytes (which sets
  /// `total` to the inner decode; the unwrap is added on top).
  [[nodiscard]] virtual std::vector<float> decompress_bitcomp_stages(
      std::span<const std::byte> bytes, DecodeTimings& t);

  /// Progressive decode: reconstruct anchors + interpolation levels >=
  /// max_level onto the coarse preview grid, reading only the archive
  /// prefix those segments occupy (level-segmented archives; legacy
  /// layouts fall back to a full decode + subsample). max_level is clamped
  /// to the archive's level range; max_level <= 1 is the full-fidelity
  /// decode, bit-identical to decompress(). The default throws
  /// std::invalid_argument — only level-structured compressors (cuSZ-i)
  /// support it.
  [[nodiscard]] virtual ProgressiveResult decompress_progressive(
      std::span<const std::byte> bytes, int max_level);

  /// Random-access ROI decode: reconstruct only the box [lo, lo + ext),
  /// bit-identical to cropping decompress(). Indexed (TIDX-bearing SZI2)
  /// archives read only the directory, index, and covering blocks; archives
  /// without an index fall back to a full decode + crop. The default throws
  /// std::invalid_argument — only tile-structured compressors (cuSZ-i)
  /// support it.
  [[nodiscard]] virtual RoiResult decompress_roi(
      std::span<const std::byte> bytes, const RoiBox& box);
};

/// Wraps any compressor with the de-redundancy pass (§VI-B); TABLE III's
/// right half applies it "fairly to all compressors' outputs".
[[nodiscard]] std::unique_ptr<Compressor> with_bitcomp(
    std::unique_ptr<Compressor> inner);

/// The raw §VI-B framing used by with_bitcomp(). Current archives use the
/// 'BBC2' container: the inner archive is split at its SZI2 segment
/// boundaries (non-SZI2 inner = one segment) and each segment is routed
/// through the best-of-three de-redundancy pipeline picked by the sampled
/// chooser (lossless/orchestrate.hh), then LZSS'd into its own stream. The
/// no-argument overload wraps with LzssMode::Lazy + MethodPolicy::Auto —
/// what cuszi_compress_bitcomp() emits. Legacy 'BBCP' archives (single
/// implicit-LZSS stream) unwrap forever; unwrapping a corrupt buffer throws
/// core::CorruptArchive.
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

/// 'BBCP', the legacy §VI-B wrapper magic: u32 magic + a length-prefixed
/// LZSS stream over the whole inner archive. Write path is gone; the decode
/// path keeps it alive forever.
inline constexpr std::uint32_t kBitcompWrapMagic = 0x50434242;

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

/// One wrapper segment of a parsed container, either generation.
struct WrapSegmentInfo {
  lossless::Method method = lossless::Method::Lzss;
  std::uint64_t raw_size = 0;  ///< 0 for legacy BBCP (lives in the stream)
  std::uint64_t size = 0;      ///< stored payload bytes
};

/// Validated view of a wrapper container: the segment table plus borrowed
/// views of each payload. Legacy 'BBCP' parses as a single method-0 segment
/// whose raw_size is unknown until its LZSS frame header is read. Throws
/// core::CorruptArchive on bad magic, reserved bits, unknown method ids, or
/// payload sizes that don't fill the container. This is the entry point of
/// both the wrapped full decoder and the CLI's method audit.
///
/// With `prefix_ok` (the progressive reader's mode) a 'BBC2' container whose
/// payload region is *truncated* still parses: the table must be complete
/// and valid, trailing bytes beyond the table's total are still rejected,
/// but a payload may come back shorter than its entry's `size` (empty once
/// the container is exhausted). Callers must compare `payloads[i].size()`
/// against `segments[i].size` before trusting a payload — that is how a
/// preview decode of an archive truncated at `bytes_read` distinguishes
/// "segment past my prefix" from "segment I need is cut". Legacy 'BBCP'
/// framing is never truncation-tolerant.
struct WrapContainerView {
  bool legacy = false;
  std::size_t table_bytes = 0;  ///< header + table size = first payload base
  std::vector<WrapSegmentInfo> segments;
  std::vector<std::span<const std::byte>> payloads;
};

[[nodiscard]] WrapContainerView bitcomp_parse_container(
    std::span<const std::byte> bytes, bool prefix_ok = false);

/// Validates legacy 'BBCP' framing and returns a borrowed view of the inner
/// LZSS stream without decompressing it. Kept for the v1 wrapper only —
/// 'BBC2' containers go through bitcomp_parse_container(). Throws
/// core::CorruptArchive on bad magic or truncation.
[[nodiscard]] std::span<const std::byte> bitcomp_wrapped_stream(
    std::span<const std::byte> bytes);

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
