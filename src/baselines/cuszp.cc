#include "baselines/cuszp.hh"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "core/bytes.hh"
#include "core/timer.hh"
#include "device/launch.hh"
#include "device/scan.hh"
#include "metrics/stats.hh"

namespace szi::baselines {

namespace {

constexpr std::uint32_t kMagic = 0x505A5543;  // "CUZP"
constexpr std::size_t kBlock = 32;

/// Bits needed for an unsigned value (0 -> 0 bits).
unsigned bits_for(std::uint64_t v) {
  return v == 0 ? 0u : static_cast<unsigned>(64 - std::countl_zero(v));
}

class CuSzp final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "cuSZp"; }

  [[nodiscard]] CompressResult compress(const Field& field,
                                        const CompressParams& p) override {
    core::Timer total;
    core::Timer stage;
    CompressResult r;

    const double eb = resolve_abs_eb(p, field.data, "cuSZp");

    const std::size_t n = field.size();
    // Pre-quantization to the 2eb lattice, then global 1D Lorenzo deltas,
    // zigzag-folded to unsigned.
    std::vector<std::int64_t> d(n);
    const double inv = 1.0 / (2.0 * eb);
    dev::launch_linear(
        n,
        [&](std::size_t i) {
          d[i] = static_cast<std::int64_t>(
              std::llround(static_cast<double>(field.data[i]) * inv));
        },
        1 << 14);
    std::vector<std::uint64_t> folded(n);
    dev::launch_linear(
        n,
        [&](std::size_t i) {
          const std::int64_t q = d[i] - (i == 0 ? 0 : d[i - 1]);
          folded[i] = q >= 0 ? static_cast<std::uint64_t>(q) << 1
                             : (static_cast<std::uint64_t>(-q) << 1) - 1;
        },
        1 << 14);
    r.timings.predict = stage.lap();

    // Per-block bit widths, offsets via scan, then parallel packing.
    const std::size_t nblocks = dev::ceil_div(n, kBlock);
    std::vector<std::uint8_t> widths(nblocks);
    std::vector<std::uint64_t> block_bytes(nblocks);
    dev::launch_linear(
        nblocks,
        [&](std::size_t b) {
          const std::size_t begin = b * kBlock;
          const std::size_t end = std::min(begin + kBlock, n);
          std::uint64_t maxv = 0;
          for (std::size_t i = begin; i < end; ++i)
            maxv = std::max(maxv, folded[i]);
          const unsigned w = bits_for(maxv);
          // The byte-wise packer keeps < 8 pending bits between values, so
          // widths up to 56 are exact; larger residuals would need an eb far
          // below float precision to arise.
          if (w > 56) throw std::runtime_error("cuSZp: residual too wide");
          widths[b] = static_cast<std::uint8_t>(w);
          block_bytes[b] = (w * (end - begin) + 7) / 8;
        },
        1 << 8);
    std::vector<std::uint64_t> offsets(nblocks);
    const std::uint64_t payload_bytes =
        dev::exclusive_scan<std::uint64_t>(block_bytes, offsets);

    core::ByteWriter w;
    w.put(kMagic);
    w.put(static_cast<std::uint64_t>(field.dims.x));
    w.put(static_cast<std::uint64_t>(field.dims.y));
    w.put(static_cast<std::uint64_t>(field.dims.z));
    w.put(eb);
    w.put_vector(widths);
    w.put(payload_bytes);
    auto head = w.take();
    const std::size_t payload_pos = head.size();
    head.resize(head.size() + payload_bytes);
    auto* payload = reinterpret_cast<std::uint8_t*>(head.data() + payload_pos);

    dev::launch_linear(
        nblocks,
        [&](std::size_t b) {
          const std::size_t begin = b * kBlock;
          const std::size_t end = std::min(begin + kBlock, n);
          const unsigned width = widths[b];
          if (width == 0) return;
          std::uint8_t* out = payload + offsets[b];
          std::uint64_t acc = 0;
          unsigned nbits = 0;
          std::size_t op = 0;
          for (std::size_t i = begin; i < end; ++i) {
            acc |= (folded[i] & ((width < 64 ? (1ULL << width) : 0ULL) - 1))
                   << nbits;
            nbits += width;
            while (nbits >= 8) {
              out[op++] = static_cast<std::uint8_t>(acc);
              acc >>= 8;
              nbits -= 8;
            }
          }
          if (nbits > 0) out[op] = static_cast<std::uint8_t>(acc);
        },
        1 << 8);
    r.timings.encode = stage.lap();
    r.bytes = std::move(head);
    r.timings.total = total.lap();
    return r;
  }

  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::byte> bytes) override {
    core::ByteReader rd(bytes, "cuszp");
    rd.expect_magic(kMagic);
    dev::Dim3 dims;
    dims.x = rd.read<std::uint64_t>();
    dims.y = rd.read<std::uint64_t>();
    dims.z = rd.read<std::uint64_t>();
    const std::size_t n =
        core::checked_volume("cuszp", rd.offset(), dims.x, dims.y, dims.z);
    (void)rd.checked_array_bytes(n, sizeof(std::int64_t));
    const auto eb = rd.read<double>();
    const auto widths = rd.read_length_prefixed_array<std::uint8_t>();
    const auto payload_bytes = rd.read<std::uint64_t>();
    const std::size_t nblocks = dev::ceil_div(n, kBlock);
    if (widths.size() != nblocks) rd.fail("width table mismatch");
    // The encoder never emits widths above 56 (the byte-wise packer's
    // limit); anything wider would shift the unpack accumulator by >= 64,
    // which is undefined.
    for (std::size_t b = 0; b < nblocks; ++b)
      if (widths[b] > 56) rd.fail("block bit width out of range");
    if (rd.remaining() < payload_bytes) rd.fail("truncated payload");
    const auto* payload =
        reinterpret_cast<const std::uint8_t*>(rd.rest().data());

    // Rebuild offsets from widths, unpack blocks in parallel.
    std::vector<std::uint64_t> offsets(nblocks);
    std::uint64_t off = 0;
    for (std::size_t b = 0; b < nblocks; ++b) {
      offsets[b] = off;
      const std::size_t len = std::min(kBlock, n - b * kBlock);
      off += (static_cast<std::uint64_t>(widths[b]) * len + 7) / 8;
    }
    if (off != payload_bytes) rd.fail("offset/payload mismatch");

    std::vector<std::int64_t> q(n);
    dev::launch_linear(
        nblocks,
        [&](std::size_t b) {
          const std::size_t begin = b * kBlock;
          const std::size_t end = std::min(begin + kBlock, n);
          const unsigned width = widths[b];
          if (width == 0) {
            for (std::size_t i = begin; i < end; ++i) q[i] = 0;
            return;
          }
          const std::uint8_t* in = payload + offsets[b];
          std::uint64_t acc = 0;
          unsigned nbits = 0;
          std::size_t ip = 0;
          for (std::size_t i = begin; i < end; ++i) {
            while (nbits < width) {
              acc |= static_cast<std::uint64_t>(in[ip++]) << nbits;
              nbits += 8;
            }
            const std::uint64_t u =
                acc & ((width < 64 ? (1ULL << width) : 0ULL) - 1);
            acc >>= width;
            nbits -= width;
            q[i] = (u & 1) ? -static_cast<std::int64_t>((u + 1) >> 1)
                           : static_cast<std::int64_t>(u >> 1);
          }
        },
        1 << 8);

    // 1D prefix sum rebuilds the lattice (serial: global chain).
    for (std::size_t i = 1; i < n; ++i) q[i] += q[i - 1];
    std::vector<float> out(n);
    const double twice_eb = 2.0 * eb;
    dev::launch_linear(
        n,
        [&](std::size_t i) {
          out[i] = static_cast<float>(twice_eb * static_cast<double>(q[i]));
        },
        1 << 14);
    return out;
  }
};

}  // namespace

std::unique_ptr<Compressor> make_cuszp() { return std::make_unique<CuSzp>(); }

}  // namespace szi::baselines
