// The inner (SZI2) byte space of an archive, fetched by range — the fetch
// phase of the cuSZ-i decoder and the one 'BBC2' unwrap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "device/arena.hh"
#include "lossless/lzss.hh"
#include "lossless/orchestrate.hh"

namespace szi::io {
class ArchiveSource;
}  // namespace szi::io

namespace szi {

/// Inner-archive byte ranges of an archive source. A raw source serves them
/// as views. Through a 'BBC2' container, each fetch decodes the LZSS blocks
/// covering its ranges that no earlier fetch decoded, in one pool launch,
/// into an inner-sized `ws` buffer; a transformed (zero-RLE / bitshuffle)
/// segment decodes whole. The container table parses in prefix mode, so a
/// truncated container fails (core::CorruptArchive) only when a fetch needs
/// a payload the cut removed. The source's bytes_read() counts every byte
/// fetched: the table, each touched payload's frame header and the decoded
/// blocks. Not thread-safe: one reader per decode.
class InnerBytes {
 public:
  struct Range {
    std::uint64_t off = 0;
    std::uint64_t len = 0;
  };

  InnerBytes(io::ArchiveSource& src, bool wrapped, dev::Workspace& ws);

  /// Size of the inner archive (the source's size when raw).
  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// The bytes of each range, clamped to the inner archive's extent: a
  /// short view means the archive ends there. Views stay valid until `ws`
  /// resets.
  std::vector<std::span<const std::byte>> fetch(std::span<const Range> ranges);

  std::span<const std::byte> fetch(std::uint64_t off, std::uint64_t len) {
    const Range r{off, len};
    return fetch(std::span<const Range>(&r, 1))[0];
  }

  /// Wall time spent decoding LZSS blocks (0 for a raw source).
  [[nodiscard]] double unwrap_seconds() const { return unwrap_s_; }

 private:
  /// One wrapper segment: its stored payload and its inner-archive extent.
  struct Seg {
    lossless::Method method = lossless::Method::Lzss;
    std::size_t file_off = 0, file_len = 0;
    std::size_t raw_off = 0, raw_len = 0;
    bool framed = false;
    bool whole = false;  ///< transformed segment decoded
    lossless::LzssFrame frame;
    std::vector<char> have;  ///< method-0 blocks decoded
  };

  [[nodiscard]] std::pair<std::size_t, std::size_t> clamp(Range r) const;
  void parse_table();
  void frame(Seg& s);

  io::ArchiveSource& src_;
  dev::Workspace& ws_;
  bool wrapped_;
  std::uint64_t size_ = 0;
  double unwrap_s_ = 0;
  std::deque<std::vector<std::byte>> scratch_;  ///< for copying views
  std::vector<Seg> segs_;
  std::span<std::byte> inner_;  ///< wrapped: the decoded inner archive
};

}  // namespace szi
