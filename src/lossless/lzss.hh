// Block-parallel LZSS byte codec.
//
// This is the repository's de-redundancy pass (§VI-B). The paper uses
// NVIDIA's proprietary Bitcomp-lossless purely as a *repeated-pattern-
// canceling* encoder applied after Huffman ("continuous 0x00 bytes");
// bitcomp.hh wraps this codec under that role. Blocks are compressed
// independently (the window never crosses a block), so compression and
// decompression parallelize exactly like a GPU implementation would.
//
// Stream layout:
//   u64 raw_size | u32 block_size | u32 n_blocks |
//   u64 block_offset[n_blocks] | per-block: u8 mode | payload
// mode 0 = stored raw (incompressible fallback), 1 = LZSS tokens.
// Token format: control bytes carry 8 flags (LSB first; 1 = match);
// literal = 1 byte; match = u16 little-endian backward distance (>= 1)
// followed by length bytes: len = kMinMatch + sum, where each 0xFF byte
// adds 255 and continues.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "device/arena.hh"

namespace szi::lossless {

inline constexpr std::size_t kLzssBlock = 64 * 1024;
inline constexpr std::size_t kMinMatch = 4;

/// The longest single token: 1 control byte + 2 distance bytes + the length
/// byte chain for a full 64 KiB match. Per-block output slices are sized
/// `block_len + kLzssTokenSlack` so the encoder can bail out between tokens
/// (once output reaches block_len the block is stored raw regardless)
/// without ever writing past its slice.
inline constexpr std::size_t kLzssTokenSlack = 320;

/// Sentinel encoded-size of an incompressible block (stored raw, mode 0).
inline constexpr std::uint64_t kLzssStoreRaw = ~std::uint64_t{0};

/// Match-finder strategy. Both emit the same token format (the decoder does
/// not distinguish them); they differ only in which matches get chosen.
///  - Greedy: always commit the longest match at the current position.
///  - Lazy (default): one-step lazy evaluation — before committing a short
///    match, probe the next position and prefer a strictly longer match
///    there; plus an LZ4-style skip-ahead through long literal runs so
///    incompressible stretches cost O(n / step) match searches instead of
///    O(n). Ratio is within 1% of greedy on the Huffman-output corpus
///    (usually better); test_lossless asserts this.
enum class LzssMode { Greedy, Lazy };

[[nodiscard]] std::vector<std::byte> lzss_compress(
    std::span<const std::byte> data, std::size_t block_size = kLzssBlock,
    LzssMode mode = LzssMode::Lazy);

/// Workspace form: the stream is assembled in pooled memory (valid until the
/// Workspace resets); per-block token buffers and the hash-chain match
/// tables are pooled too instead of allocated per block. Byte-identical to
/// lzss_compress().
[[nodiscard]] std::span<const std::byte> lzss_compress(
    std::span<const std::byte> data, std::size_t block_size, dev::Workspace& ws,
    LzssMode mode = LzssMode::Lazy);

/// Throws std::runtime_error on malformed streams.
[[nodiscard]] std::vector<std::byte> lzss_decompress(
    std::span<const std::byte> data);

// ---- Block-granular API -------------------------------------------------
//
// The wrapped writer runs every block of every wrapper segment in one
// pool-wide launch, and the decoder's fetch decodes, in one launch, only
// the blocks a request needs. These pieces expose exactly the units lzss_compress/
// lzss_decompress are built from, so those forms are byte-identical by
// construction.

/// Encodes one independent block into `out` (capacity must be at least
/// block.size() + kLzssTokenSlack). Returns the encoded byte count, or
/// kLzssStoreRaw when the block is incompressible and must be stored raw
/// (the caller emits the original bytes with mode 0). The hash-chain
/// scratch is drawn from `arena` (thread-safe, so concurrent pool tasks
/// may share one).
[[nodiscard]] std::uint64_t lzss_compress_block(std::span<const std::byte> block,
                                               std::span<std::byte> out,
                                               dev::Arena& arena,
                                               LzssMode mode = LzssMode::Lazy);

/// Exact byte size of the stream lzss_assemble() will produce for the given
/// per-block encoded sizes (kLzssStoreRaw entries count as raw length).
[[nodiscard]] std::size_t lzss_stream_size(
    std::size_t raw_size, std::size_t block_size,
    std::span<const std::uint64_t> enc_size);

/// Stitches header + offset table + per-block payloads into `dst` (size
/// must equal lzss_stream_size(...)). `slices` holds the encoded blocks at
/// `stride`-byte spacing; raw-fallback payloads are copied from `raw`.
void lzss_assemble(std::span<const std::byte> raw, std::size_t block_size,
                   std::span<const std::byte> slices, std::size_t stride,
                   std::span<const std::uint64_t> enc_size,
                   std::span<std::byte> dst);

/// A validated view of an LZSS stream: header parsed, the offset table
/// copied into `ws` memory (archive offsets are unaligned), every offset
/// bounds-checked. Blocks can then be decoded independently in any order.
struct LzssFrame {
  std::size_t raw_size = 0;
  std::size_t block_size = 0;
  std::size_t nblocks = 0;
  std::size_t stream_size = 0;             ///< total framed stream bytes
  std::span<const std::uint64_t> offsets;  ///< ws-owned, one per block
  /// The full input stream; empty for frames parsed from header bytes only
  /// (lzss_parse_frame_header), whose blocks decode via
  /// lzss_decompress_block_bytes instead.
  std::span<const std::byte> stream;
};

/// Parses and validates the stream header. Throws core::CorruptArchive on
/// malformed input; also guards raw_size against absurd allocations.
[[nodiscard]] LzssFrame lzss_parse_frame(std::span<const std::byte> data,
                                         dev::Workspace& ws);

/// lzss_parse_frame over only the stream's leading header bytes (through
/// the offset table) — for random-access readers that fetch block payloads
/// selectively. `stream_size` is the framed stream's total byte size;
/// offsets are validated against it exactly as lzss_parse_frame validates
/// them against the in-memory stream. The frame's `stream` view stays
/// empty.
[[nodiscard]] LzssFrame lzss_parse_frame_header(std::span<const std::byte> head,
                                                std::size_t stream_size,
                                                dev::Workspace& ws);

/// Decodes block `b` of a parsed frame into `raw_out`, which must be
/// exactly the block's raw extent (min(block_size, raw_size - b*block_size)
/// bytes). Throws core::CorruptArchive on corrupt tokens.
void lzss_decompress_block(const LzssFrame& frame, std::size_t b,
                           std::span<std::byte> raw_out);

/// Byte extent [begin, end) block `b` occupies within the framed stream
/// (mode byte included) — what a random-access reader must fetch to hand
/// lzss_decompress_block_bytes.
[[nodiscard]] std::pair<std::size_t, std::size_t> lzss_block_extent(
    const LzssFrame& frame, std::size_t b);

/// lzss_decompress_block for frames without an in-memory stream:
/// `block_bytes` is exactly the stream slice lzss_block_extent(frame, b)
/// names. Identical validation and output.
void lzss_decompress_block_bytes(const LzssFrame& frame, std::size_t b,
                                 std::span<const std::byte> block_bytes,
                                 std::span<std::byte> raw_out);

}  // namespace szi::lossless
