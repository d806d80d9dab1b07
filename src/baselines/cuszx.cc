#include "baselines/cuszx.hh"

#include <cmath>
#include <stdexcept>

#include "core/bytes.hh"
#include "core/timer.hh"
#include "device/launch.hh"
#include "metrics/stats.hh"

namespace szi::baselines {

namespace {

constexpr std::uint32_t kMagic = 0x585A5543;  // "CUZX"
constexpr std::size_t kBlock = 128;

/// Per-block descriptor: k = 0 flags a constant block (base is the midpoint,
/// step unused); otherwise values decode as base + u * step with u packed at
/// k bits.
struct BlockMeta {
  float base;
  float step;
  std::uint8_t k;
};

class CuSzx final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "cuSZx"; }

  [[nodiscard]] CompressResult compress(const Field& field,
                                        const CompressParams& p) override {
    core::Timer total;
    core::Timer stage;
    CompressResult r;

    const double eb = resolve_abs_eb(p, field.data, "cuSZx");

    const std::size_t n = field.size();
    const std::size_t nblocks = dev::ceil_div(n, kBlock);

    std::vector<BlockMeta> meta(nblocks);
    std::vector<std::vector<std::uint8_t>> payloads(nblocks);
    dev::launch_linear(
        nblocks,
        [&](std::size_t b) {
          const std::size_t begin = b * kBlock;
          const std::size_t end = std::min(begin + kBlock, n);
          float lo = field.data[begin], hi = field.data[begin];
          for (std::size_t i = begin + 1; i < end; ++i) {
            lo = std::min(lo, field.data[i]);
            hi = std::max(hi, field.data[i]);
          }
          const double range = static_cast<double>(hi) - lo;
          if (range <= 2.0 * eb) {  // constant block: midpoint is within eb
            meta[b] = {static_cast<float>(0.5 * (static_cast<double>(lo) + hi)),
                       0.0f, 0};
            return;
          }
          // Smallest k with range/2^k <= eb: quantizing offsets to that step
          // (with rounding, error <= step/2) plus float rounding of base+u*step
          // stays within eb.
          unsigned k = 1;
          while ((range / static_cast<double>(1ULL << k)) > eb && k < 40) ++k;
          const double step = range / static_cast<double>(1ULL << k);
          meta[b] = {lo, static_cast<float>(step), static_cast<std::uint8_t>(k)};
          auto& out = payloads[b];
          out.reserve(((end - begin) * k + 7) / 8);
          const double inv_step = 1.0 / static_cast<double>(meta[b].step);
          // Word-wise packer (k <= 40, <8 pending bits => no overflow).
          std::uint64_t acc = 0;
          unsigned nbits = 0;
          for (std::size_t i = begin; i < end; ++i) {
            auto u = static_cast<std::uint64_t>(std::llround(
                (static_cast<double>(field.data[i]) - lo) * inv_step));
            if (u >= (1ULL << k)) u = (1ULL << k) - 1;
            acc |= u << nbits;
            nbits += k;
            while (nbits >= 8) {
              out.push_back(static_cast<std::uint8_t>(acc));
              acc >>= 8;
              nbits -= 8;
            }
          }
          if (nbits > 0) out.push_back(static_cast<std::uint8_t>(acc));
        },
        1 << 6);
    r.timings.predict = stage.lap();

    core::ByteWriter w;
    w.put(kMagic);
    w.put(static_cast<std::uint64_t>(field.dims.x));
    w.put(static_cast<std::uint64_t>(field.dims.y));
    w.put(static_cast<std::uint64_t>(field.dims.z));
    w.put(eb);
    // Field-by-field: BlockMeta has padding that must not leak into archives.
    for (const auto& m : meta) {
      w.put(m.base);
      w.put(m.step);
      w.put(m.k);
    }
    r.bytes = w.take();
    for (std::size_t b = 0; b < nblocks; ++b)
      r.bytes.insert(r.bytes.end(),
                     reinterpret_cast<const std::byte*>(payloads[b].data()),
                     reinterpret_cast<const std::byte*>(payloads[b].data()) +
                         payloads[b].size());
    r.timings.encode = stage.lap();
    r.timings.total = total.lap();
    return r;
  }

  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::byte> bytes) override {
    core::ByteReader rd(bytes, "cuszx");
    rd.expect_magic(kMagic);
    dev::Dim3 dims;
    dims.x = rd.read<std::uint64_t>();
    dims.y = rd.read<std::uint64_t>();
    dims.z = rd.read<std::uint64_t>();
    const std::size_t n =
        core::checked_volume("cuszx", rd.offset(), dims.x, dims.y, dims.z);
    (void)rd.checked_array_bytes(n, sizeof(float));
    (void)rd.read<double>();  // eb: informational
    const std::size_t nblocks = dev::ceil_div(n, kBlock);

    std::vector<BlockMeta> meta(nblocks);
    for (auto& m : meta) {
      m.base = rd.read<float>();
      m.step = rd.read<float>();
      m.k = rd.read<std::uint8_t>();
      // The encoder caps k at 40; a wider k would shift the unpack
      // accumulator by >= 64 (undefined behavior).
      if (m.k > 40) rd.fail("block bit width out of range");
    }
    std::vector<std::uint64_t> offsets(nblocks);
    std::uint64_t off = 0;
    for (std::size_t b = 0; b < nblocks; ++b) {
      offsets[b] = off;
      const std::size_t len = std::min(kBlock, n - b * kBlock);
      off += (len * meta[b].k + 7) / 8;
    }
    if (rd.remaining() < off) rd.fail("truncated payload");
    const auto* payload =
        reinterpret_cast<const std::uint8_t*>(rd.rest().data());

    std::vector<float> out(n);
    dev::launch_linear(
        nblocks,
        [&](std::size_t b) {
          const std::size_t begin = b * kBlock;
          const std::size_t end = std::min(begin + kBlock, n);
          const BlockMeta& m = meta[b];
          if (m.k == 0) {
            for (std::size_t i = begin; i < end; ++i) out[i] = m.base;
            return;
          }
          const std::uint8_t* in = payload + offsets[b];
          const std::uint64_t mask =
              (m.k < 64 ? (1ULL << m.k) : 0ULL) - 1;
          std::uint64_t acc = 0;
          unsigned nbits = 0;
          std::size_t ip = 0;
          for (std::size_t i = begin; i < end; ++i) {
            while (nbits < m.k) {
              acc |= static_cast<std::uint64_t>(in[ip++]) << nbits;
              nbits += 8;
            }
            const std::uint64_t u = acc & mask;
            acc >>= m.k;
            nbits -= m.k;
            out[i] = static_cast<float>(
                static_cast<double>(m.base) +
                static_cast<double>(u) * static_cast<double>(m.step));
          }
        },
        1 << 6);
    return out;
  }
};

}  // namespace

std::unique_ptr<Compressor> make_cuszx() { return std::make_unique<CuSzx>(); }

}  // namespace szi::baselines
