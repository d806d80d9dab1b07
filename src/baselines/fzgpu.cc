#include "baselines/fzgpu.hh"

#include <stdexcept>

#include "core/bytes.hh"
#include "core/timer.hh"
#include "device/launch.hh"
#include "lossless/bitshuffle.hh"
#include "lossless/rle.hh"
#include "metrics/stats.hh"
#include "predictor/lorenzo.hh"

namespace szi::baselines {

namespace {

constexpr std::uint32_t kMagic = 0x55505A46;  // "FZPU"

class FzGpu final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "FZ-GPU"; }

  [[nodiscard]] CompressResult compress(const Field& field,
                                        const CompressParams& p) override {
    core::Timer total;
    core::Timer stage;
    CompressResult r;

    const double eb = resolve_abs_eb(p, field.data, "FZ-GPU");

    constexpr int kRadius = quant::kDefaultRadius;
    const auto pred = predictor::lorenzo_compress(field.data, field.dims, eb,
                                                  kRadius);
    r.timings.predict = stage.lap();

    // Bitshuffle the biased codes, then remove all-zero units. Bias by
    // -radius first (xor-fold the sign) so the dominant zero code becomes
    // byte 0 rather than 0x0200.
    std::vector<std::uint16_t> folded(pred.codes.size());
    dev::launch_linear(
        folded.size(),
        [&](std::size_t i) {
          const int q = static_cast<int>(pred.codes[i]) - kRadius;
          // zigzag: 0,-1,1,-2,... -> 0,1,2,3,... (outlier marker maps to
          // radius's zigzag, which is fine: the marker info lives in the
          // outlier set indices).
          folded[i] = static_cast<std::uint16_t>(q >= 0 ? 2 * q : -2 * q - 1);
        },
        1 << 14);
    std::vector<std::uint8_t> shuffled(
        lossless::bitshuffle16_size(folded.size()));
    lossless::bitshuffle16(folded, shuffled);
    const auto packed = lossless::zero_rle_compress(
        {reinterpret_cast<const std::byte*>(shuffled.data()), shuffled.size()});
    r.timings.encode = stage.lap();

    core::ByteWriter w;
    w.put(kMagic);
    w.put(static_cast<std::uint64_t>(field.dims.x));
    w.put(static_cast<std::uint64_t>(field.dims.y));
    w.put(static_cast<std::uint64_t>(field.dims.z));
    w.put(eb);
    w.put(static_cast<std::uint16_t>(kRadius));
    w.put_blob(pred.outliers.serialize());
    w.put_blob(packed);
    r.bytes = w.take();
    r.timings.total = total.lap();
    return r;
  }

  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::byte> bytes) override {
    core::ByteReader rd(bytes, "fz-gpu");
    rd.expect_magic(kMagic);
    dev::Dim3 dims;
    dims.x = rd.read<std::uint64_t>();
    dims.y = rd.read<std::uint64_t>();
    dims.z = rd.read<std::uint64_t>();
    const std::size_t n =
        core::checked_volume("fz-gpu", rd.offset(), dims.x, dims.y, dims.z);
    (void)rd.checked_array_bytes(n, sizeof(std::uint16_t));
    const auto eb = rd.read<double>();
    const auto radius = rd.read<std::uint16_t>();
    const auto outliers =
        quant::OutlierSet::deserialize(rd.read_length_prefixed(), nullptr);
    // The indices are scattered into `codes` below, so check them first.
    outliers.check_bounds(n, "fz-gpu");
    const auto packed = rd.read_length_prefixed();

    const auto shuffled_bytes = lossless::zero_rle_decompress(packed);
    if (shuffled_bytes.size() != lossless::bitshuffle16_size(n))
      rd.fail("payload size mismatch");
    std::vector<std::uint16_t> folded(n);
    lossless::bitunshuffle16(
        {reinterpret_cast<const std::uint8_t*>(shuffled_bytes.data()),
         shuffled_bytes.size()},
        folded);
    std::vector<quant::Code> codes(n);
    dev::launch_linear(
        n,
        [&](std::size_t i) {
          const std::uint16_t u = folded[i];
          const int q = (u & 1) ? -static_cast<int>(u + 1) / 2
                                : static_cast<int>(u) / 2;
          codes[i] = static_cast<quant::Code>(q + radius);
        },
        1 << 14);
    // Restore the outlier markers (their zigzag slot was a placeholder).
    dev::launch_linear(
        outliers.count(),
        [&](std::size_t k) {
          codes[outliers.indices[k]] = quant::kOutlierMarker;
        },
        1 << 12);
    return predictor::lorenzo_decompress(codes, outliers, dims, eb, radius);
  }
};

}  // namespace

std::unique_ptr<Compressor> make_fzgpu() { return std::make_unique<FzGpu>(); }

}  // namespace szi::baselines
