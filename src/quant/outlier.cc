#include "quant/outlier.hh"

#include <cstring>
#include <stdexcept>

#include "core/bytes.hh"
#include "device/launch.hh"

namespace szi::quant {

template <typename T>
void OutlierSetT<T>::scatter(std::span<T> out) const {
  dev::launch_linear(
      indices.size(),
      [&](std::size_t i) { out[indices[i]] = values[i]; }, 1 << 12);
}

namespace {

template <typename T>
OutlierSetT<T> copied(const OutlierViewT<T>& v) {
  return {{v.indices.begin(), v.indices.end()},
          {v.values.begin(), v.values.end()}};
}

}  // namespace

template <typename T>
OutlierSetT<T> OutlierSetT<T>::gather(std::span<const Code> codes,
                                      std::span<const T> originals) {
  dev::Arena local;
  dev::Workspace ws(local);
  return copied(gather_outliers(codes, originals, ws));
}

template <typename T>
std::vector<std::byte> OutlierSetT<T>::serialize() const {
  std::vector<std::byte> out(outlier_blob_bytes<T>(count()));
  write_outlier_blob<T>({indices, values}, out);
  return out;
}

template <typename T>
OutlierSetT<T> OutlierSetT<T>::deserialize(std::span<const std::byte> bytes,
                                           std::size_t* consumed) {
  dev::Arena local;
  dev::Workspace ws(local);
  const auto v = parse_outlier_blob<T>(bytes, ws);
  if (consumed) *consumed = outlier_blob_bytes<T>(v.count());
  return copied(v);
}

template <typename T>
void OutlierSetT<T>::check_bounds(std::size_t limit,
                                  std::string_view stage) const {
  for (std::size_t i = 0; i < indices.size(); ++i)
    if (indices[i] >= limit)
      throw core::CorruptArchive(stage, i,
                                 "outlier index out of range (index " +
                                     std::to_string(indices[i]) + " >= " +
                                     std::to_string(limit) + ")");
}

template struct OutlierSetT<float>;
template struct OutlierSetT<double>;

template <typename T>
OutlierViewT<T> gather_outliers(std::span<const Code> codes,
                                std::span<const T> originals,
                                dev::Workspace& ws) {
  constexpr std::size_t kChunk = 1 << 15;
  const std::size_t n = codes.size();
  const std::size_t nchunks = dev::ceil_div(n, kChunk);

  auto counts = ws.make<std::size_t>(nchunks);
  dev::launch_linear(
      nchunks,
      [&](std::size_t c) {
        const std::size_t begin = c * kChunk;
        const std::size_t end = std::min(begin + kChunk, n);
        std::size_t cnt = 0;
        for (std::size_t i = begin; i < end; ++i)
          cnt += codes[i] == kOutlierMarker ? 1 : 0;
        counts[c] = cnt;
      },
      1);

  std::size_t total = 0;
  for (auto& c : counts) {
    const std::size_t t = c;
    c = total;
    total += t;
  }

  auto indices = ws.make<std::uint64_t>(total);
  auto values = ws.make<T>(total);
  dev::launch_linear(
      nchunks,
      [&](std::size_t c) {
        const std::size_t begin = c * kChunk;
        const std::size_t end = std::min(begin + kChunk, n);
        std::size_t slot = counts[c];
        for (std::size_t i = begin; i < end; ++i)
          if (codes[i] == kOutlierMarker) {
            indices[slot] = i;
            values[slot] = originals[i];
            ++slot;
          }
      },
      1);
  return {indices, values};
}

template OutlierViewT<float> gather_outliers<float>(std::span<const Code>,
                                                    std::span<const float>,
                                                    dev::Workspace&);
template OutlierViewT<double> gather_outliers<double>(std::span<const Code>,
                                                      std::span<const double>,
                                                      dev::Workspace&);

template <typename T>
void write_outlier_blob(const OutlierViewT<T>& ol, std::span<std::byte> dst) {
  const std::uint64_t n = ol.count();
  if (ol.values.size() != n || dst.size() != outlier_blob_bytes<T>(n))
    throw std::invalid_argument("write_outlier_blob: size mismatch");
  std::byte* p = dst.data();
  std::memcpy(p, &n, sizeof(n));
  p += sizeof(n);
  if (n > 0) {
    std::memcpy(p, ol.indices.data(), n * sizeof(std::uint64_t));
    p += n * sizeof(std::uint64_t);
    std::memcpy(p, ol.values.data(), n * sizeof(T));
  }
}

template <typename T>
OutlierViewT<T> parse_outlier_blob(std::span<const std::byte> bytes,
                                   dev::Workspace& ws) {
  // The count is attacker-controlled: it must fit the bytes left, and each
  // array size is overflow-checked and capped before anything is allocated.
  core::ByteReader rd(bytes, "outlier-set");
  const auto n64 = rd.read<std::uint64_t>();
  if (n64 > rd.remaining()) rd.fail("count exceeds remaining bytes");
  const auto n = static_cast<std::size_t>(n64);
  const std::size_t ibytes = rd.checked_array_bytes(n, sizeof(std::uint64_t));
  auto idx = ws.make<std::uint64_t>(n);
  if (n > 0) std::memcpy(idx.data(), rd.read_bytes(ibytes).data(), ibytes);
  const std::size_t vbytes = rd.checked_array_bytes(n, sizeof(T));
  auto vals = ws.make<T>(n);
  if (n > 0) std::memcpy(vals.data(), rd.read_bytes(vbytes).data(), vbytes);
  return {idx, vals};
}

template void write_outlier_blob<float>(const OutlierViewT<float>&,
                                        std::span<std::byte>);
template void write_outlier_blob<double>(const OutlierViewT<double>&,
                                         std::span<std::byte>);
template OutlierViewT<float> parse_outlier_blob<float>(
    std::span<const std::byte>, dev::Workspace&);
template OutlierViewT<double> parse_outlier_blob<double>(
    std::span<const std::byte>, dev::Workspace&);

}  // namespace szi::quant
