// Sparse outlier store: (index, original value) pairs gathered with stream
// compaction during compression and scattered back before decompression —
// §VI-A's "gather them as outliers and losslessly store them ... using the
// stream compaction technique". Templated on the value type (f32/f64).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "device/arena.hh"
#include "quant/quantizer.hh"

namespace szi::quant {

template <typename T>
struct OutlierSetT {
  std::vector<std::uint64_t> indices;
  std::vector<T> values;

  [[nodiscard]] std::size_t count() const { return indices.size(); }

  void add(std::uint64_t index, T value) {
    indices.push_back(index);
    values.push_back(value);
  }

  /// Writes each stored original into out[index].
  void scatter(std::span<T> out) const;

  /// gather_outliers, copied into vectors: the order-preserving parallel
  /// gather of every marker-coded position. `originals[i]` supplies the
  /// value for position i.
  static OutlierSetT gather(std::span<const Code> codes,
                            std::span<const T> originals);

  /// The outlier blob (write_outlier_blob) in a fresh vector.
  [[nodiscard]] std::vector<std::byte> serialize() const;
  /// parse_outlier_blob, copied into vectors; `consumed`, when non-null,
  /// receives the blob's length.
  static OutlierSetT deserialize(std::span<const std::byte> bytes,
                                 std::size_t* consumed);

  /// Throws core::CorruptArchive if any stored index is >= limit. Decoders
  /// must call this before scatter(): indices come from the archive and an
  /// unchecked one would write out of bounds.
  void check_bounds(std::size_t limit, std::string_view stage) const;
};

extern template struct OutlierSetT<float>;
extern template struct OutlierSetT<double>;

/// A gathered outlier set living in workspace memory (valid until the
/// owning Workspace resets). Same content as OutlierSetT, zero ownership.
template <typename T>
struct OutlierViewT {
  std::span<const std::uint64_t> indices;
  std::span<const T> values;

  [[nodiscard]] std::size_t count() const { return indices.size(); }
};

/// Stream compaction of every marker-coded position: one counting pass
/// and one emit pass over 32,768-code chunks, with the per-chunk counts and
/// both output arrays drawn from the pool. Order-preserving and
/// deterministic: chunk bases come from a serial scan in chunk order.
template <typename T>
[[nodiscard]] OutlierViewT<T> gather_outliers(std::span<const Code> codes,
                                              std::span<const T> originals,
                                              dev::Workspace& ws);

// ---- The outlier blob: u64 n | n u64 indices | n values -------------------
// The one encoding of an outlier set, in every archive that stores one.

/// Blob length for `n` outliers of type T.
template <typename T>
[[nodiscard]] constexpr std::size_t outlier_blob_bytes(std::size_t n) {
  return sizeof(std::uint64_t) + n * (sizeof(std::uint64_t) + sizeof(T));
}

/// Writes `ol`'s blob into `dst`, which must span exactly
/// outlier_blob_bytes<T>(ol.count()) bytes (std::invalid_argument otherwise).
template <typename T>
void write_outlier_blob(const OutlierViewT<T>& ol, std::span<std::byte> dst);

/// Parses the blob at the start of `bytes` into `ws` arrays. Throws
/// core::CorruptArchive (stage "outlier-set") on truncation or on a count
/// that exceeds the bytes left or overflows the array sizes.
template <typename T>
[[nodiscard]] OutlierViewT<T> parse_outlier_blob(
    std::span<const std::byte> bytes, dev::Workspace& ws);

/// The f32 store used by the float pipelines.
using OutlierSet = OutlierSetT<float>;

}  // namespace szi::quant
