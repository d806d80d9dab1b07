// Coarse-grained chunk-parallel Huffman codec (§III-A, §VI-A) — the cuSZ
// design: the symbol stream is split into fixed-size chunks; a first kernel
// computes per-chunk bit sizes, an exclusive scan turns them into offsets
// (rounded up to bytes so chunks stay independently addressable), and a
// second kernel writes each chunk's bitstream. Decoding is chunk-parallel.
//
// Stream layout:
//   u32 nbins | u8 lengths[nbins] | u64 n_symbols | u32 chunk_size |
//   u64 payload_bytes | u64 chunk_byte_offset[n_chunks] | payload
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "device/arena.hh"
#include "huffman/codebook.hh"
#include "quant/quantizer.hh"

namespace szi::huffman {

inline constexpr std::size_t kDefaultChunk = 4096;

/// Encodes `codes` (values < nbins) into a self-describing byte stream.
/// `use_topk_histogram` selects the §VI-A hot-band histogram path.
[[nodiscard]] std::vector<std::byte> encode(std::span<const quant::Code> codes,
                                            std::size_t nbins,
                                            std::size_t chunk_size = kDefaultChunk,
                                            bool use_topk_histogram = true);

/// Same, with a caller-built codebook (lets pipelines time the host-side
/// codebook build separately, as the paper does).
[[nodiscard]] std::vector<std::byte> encode_with_book(
    std::span<const quant::Code> codes, const Codebook& book,
    std::size_t chunk_size = kDefaultChunk);

/// Workspace variants: the stream is assembled in `ws`-owned memory (valid
/// until its next reset) and every chunk's bitstream is written directly
/// into its final payload slot — no per-chunk temporaries, no allocations
/// on the encode hot path. The byte layout is identical to encode().
[[nodiscard]] std::span<const std::byte> encode(
    std::span<const quant::Code> codes, std::size_t nbins,
    std::size_t chunk_size, bool use_topk_histogram, dev::Workspace& ws);
[[nodiscard]] std::span<const std::byte> encode_with_book(
    std::span<const quant::Code> codes, const Codebook& book,
    std::size_t chunk_size, dev::Workspace& ws);

/// Inverse of encode(). Throws std::runtime_error on malformed headers.
[[nodiscard]] std::vector<quant::Code> decode(std::span<const std::byte> bytes);

/// Workspace form: decoded codes live in pooled `ws` memory (valid until its
/// next reset). Identical validation and output as decode().
[[nodiscard]] std::span<const quant::Code> decode(
    std::span<const std::byte> bytes, dev::Workspace& ws);

// ---- Phase-split API ----------------------------------------------------
//
// The SZI2 writer freezes its segment directory before it writes any level
// stream, and readers fetch chunks selectively, so the two phases of the
// chunk-parallel codec are exposed separately: plan (per-chunk sizes ->
// offsets, total stream size known up front) and emit/decode over any chunk
// subrange. encode()/decode() are thin compositions of these, so the split
// is byte-identical by construction.

/// Phase-1 result: everything needed to size and emit the stream.
struct EncodePlan {
  std::size_t n = 0;            ///< symbol count
  std::size_t chunk_size = 0;   ///< symbols per chunk
  std::size_t nchunks = 0;
  std::uint64_t payload_bytes = 0;
  std::size_t header_bytes = 0;
  std::span<const std::uint64_t> offsets;  ///< ws-owned, one per chunk

  [[nodiscard]] std::size_t stream_bytes() const {
    return header_bytes + static_cast<std::size_t>(payload_bytes);
  }
};

/// Computes per-chunk byte sizes (parallel) and their exclusive scan.
[[nodiscard]] EncodePlan encode_plan(std::span<const quant::Code> codes,
                                     const Codebook& book,
                                     std::size_t chunk_size, dev::Workspace& ws);

/// Writes the stream header (plan.header_bytes bytes) into dst.
void write_stream_header(const EncodePlan& plan, const Codebook& book,
                         std::span<std::byte> dst);

/// Emits chunks [chunk_begin, chunk_end) into `payload` (the full
/// plan.payload_bytes span; offsets are absolute). Chunk ranges are
/// disjoint byte ranges, so distinct ranges may run concurrently.
void encode_chunks(std::span<const quant::Code> codes, const Codebook& book,
                   const EncodePlan& plan, std::size_t chunk_begin,
                   std::size_t chunk_end, std::span<std::byte> payload);

/// Upper bound on the payload bytes any code sequence of length n can emit
/// under `book` — for sizing a destination before encode_emit_serial has
/// measured the chunks.
[[nodiscard]] std::size_t payload_bound(const Codebook& book, std::size_t n,
                                        std::size_t chunk_size);

/// Fused plan+emit for the serial pipeline: one pass over the codes that
/// emits each chunk's bitstream at the running offset and records the
/// offset table as a byproduct, instead of a sizing pass followed by an
/// emission pass. `payload` must hold at least payload_bound() bytes.
/// Returns a plan equal to encode_plan's and leaves the payload bytes
/// identical to encode_chunks over that plan: chunk contents depend only on
/// the codes and the book, and each offset is the exact sum of the
/// preceding chunk sizes either way.
[[nodiscard]] EncodePlan encode_emit_serial(std::span<const quant::Code> codes,
                                            const Codebook& book,
                                            std::size_t chunk_size,
                                            std::span<std::byte> payload,
                                            dev::Workspace& ws);

/// Serial one-pass counterpart of encode_with_book, built on
/// encode_emit_serial: plans and emits in a single walk over the codes and
/// assembles the self-describing stream in `ws` memory. Byte-identical to
/// encode_with_book. No archive writer uses it (the SZI2 writer plans and
/// emits across the pool); the benchmark's traced replay still does.
[[nodiscard]] std::span<const std::byte> encode_with_book_serial(
    std::span<const quant::Code> codes, const Codebook& book,
    std::size_t chunk_size, dev::Workspace& ws);

/// Multi-codebook plan: one canonical codebook per histogram (the SZI2
/// archive's per-level books). An all-zero histogram yields the empty book,
/// whose stream is a bare header — empty levels of degenerate grids cost
/// O(nbins) bytes, never a crash.
[[nodiscard]] std::vector<Codebook> build_level_books(
    std::span<const std::vector<std::uint32_t>> histograms);

/// A validated decode-side plan: header parsed, chunk offset table copied
/// into `ws` memory and bounds-checked, codebook/table rebuilt. `payload`
/// views the input bytes; chunks can then decode independently — and, key
/// for an ROI decode, chunk c only needs payload bytes
/// [offsets[c], offsets[c+1]) to be present.
struct DecodePlan {
  std::size_t n = 0;
  std::size_t chunk_size = 0;
  std::size_t nchunks = 0;
  std::uint64_t payload_bytes = 0;
  std::span<const std::uint64_t> offsets;  ///< ws-owned
  std::span<const std::byte> payload;      ///< view into the input stream
  Codebook book;
  FastDecodeTable table;
};

/// Parses and validates the stream header. Throws core::CorruptArchive on
/// malformed input.
[[nodiscard]] DecodePlan decode_plan(std::span<const std::byte> bytes,
                                     dev::Workspace& ws);

/// decode_plan over only the stream's leading header bytes — for
/// random-access readers that fetch the payload selectively. `head` must
/// cover the full header (its offset table included); `stream_size` is the
/// framed stream's total size and must cover header + payload. Identical
/// parse and validation to decode_plan, but `plan.payload` is left empty:
/// pair with decode_chunks_range, handing it the payload bytes each chunk
/// run needs.
[[nodiscard]] DecodePlan decode_plan_header(std::span<const std::byte> head,
                                            std::uint64_t stream_size,
                                            dev::Workspace& ws);

/// Decodes chunks [chunk_begin, chunk_end) into `out` (the full n-element
/// span; chunk c writes symbols [c*chunk_size, min((c+1)*chunk_size, n))).
/// Uses the multi-symbol pack table: several short codewords resolve per
/// probe. Output and error behavior are bit-identical to
/// decode_chunks_reference (tests/test_decode_equiv.cc holds them equal).
void decode_chunks(const DecodePlan& plan, std::size_t chunk_begin,
                   std::size_t chunk_end, std::span<quant::Code> out);

/// decode_chunks against caller-provided payload bytes (for plans built by
/// decode_plan_header, whose own payload view is empty): `payload` holds
/// the stream's payload range [payload_off, payload_off + payload.size()),
/// which must cover chunks [chunk_begin, chunk_end). Symbols land at
/// out[i - chunk_begin*chunk_size] — `out` spans exactly the range's
/// symbols. Decode is bit-identical to decode_chunks over the same chunks.
void decode_chunks_range(const DecodePlan& plan,
                         std::span<const std::byte> payload,
                         std::uint64_t payload_off, std::size_t chunk_begin,
                         std::size_t chunk_end, std::span<quant::Code> out);

/// The pre-overhaul single-symbol-per-probe chunk decoder, retained as the
/// equivalence reference for decode_chunks and for the decode ablation
/// bench. Same validation, same CorruptArchive throws.
void decode_chunks_reference(const DecodePlan& plan, std::size_t chunk_begin,
                             std::size_t chunk_end, std::span<quant::Code> out);

/// Size (bytes) the stream header+offsets add on top of the entropy payload,
/// for the bit-rate accounting in the benches.
[[nodiscard]] std::size_t overhead_bytes(std::size_t nbins,
                                         std::size_t n_symbols,
                                         std::size_t chunk_size = kDefaultChunk);

}  // namespace szi::huffman
