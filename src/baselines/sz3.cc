#include "baselines/sz3.hh"

#include <algorithm>
#include <stdexcept>

#include "baselines/cpu_interp.hh"
#include "core/bytes.hh"
#include "core/timer.hh"
#include "huffman/huffman.hh"
#include "lossless/lzss.hh"
#include "metrics/stats.hh"
#include "predictor/autotune.hh"

namespace szi::baselines {

namespace {

constexpr std::uint32_t kMagic = 0x4C335A53;  // "SZ3L"

class CpuSz final : public Compressor {
 public:
  explicit CpuSz(bool qoz) : qoz_(qoz) {}

  [[nodiscard]] std::string name() const override {
    return qoz_ ? "QoZ" : "SZ3";
  }

  [[nodiscard]] CompressResult compress(const Field& field,
                                        const CompressParams& p) override {
    core::Timer total;
    core::Timer stage;
    CompressResult r;

    const double range = metrics::value_range(field.data);
    const double eb = resolve_abs_eb(p, field.data, name());

    CpuInterpParams ip;
    const std::size_t max_dim =
        std::max({field.dims.x, field.dims.y, field.dims.z});
    if (qoz_) {
      // QoZ: dense anchors every 64 points, level-wise eb, tuned splines.
      ip.anchor_stride = std::min<std::size_t>(64, pow2_at_least(max_dim));
      const auto prof = predictor::autotune(field.data, field.dims, eb);
      ip.config = prof.config;
      ip.alpha = predictor::alpha_of_epsilon(range > 0 ? eb / range : 1.0);
    } else {
      // SZ3: one stored point (top stride covers the grid), constant eb.
      ip.anchor_stride = pow2_at_least(max_dim);
      ip.alpha = 1.0;
    }
    r.timings.predict += stage.lap();

    const auto pred = cpu_interp_compress(field.data, field.dims, eb, ip);
    r.timings.predict += stage.lap();
    const auto huff =
        huffman::encode(pred.codes, 2 * static_cast<std::size_t>(ip.radius));
    r.timings.encode += stage.lap();

    core::ByteWriter inner;
    inner.put(static_cast<std::uint64_t>(field.dims.x));
    inner.put(static_cast<std::uint64_t>(field.dims.y));
    inner.put(static_cast<std::uint64_t>(field.dims.z));
    inner.put(eb);
    inner.put(static_cast<std::uint64_t>(ip.anchor_stride));
    inner.put(ip.alpha);
    inner.put(static_cast<std::uint32_t>(ip.radius));
    for (int i = 0; i < 3; ++i) {
      inner.put(static_cast<std::uint8_t>(
          ip.config.cubic[static_cast<std::size_t>(i)]));
      inner.put(ip.config.dim_order[static_cast<std::size_t>(i)]);
    }
    inner.put_vector(pred.anchors);
    inner.put_blob(pred.outliers.serialize());
    inner.put_blob(huff);

    // The Zstd-equivalent stage: CPU SZ always de-redundifies its archive.
    core::ByteWriter w;
    w.put(kMagic);
    w.put_blob(lossless::lzss_compress(inner.take()));
    r.bytes = w.take();
    r.timings.encode += stage.lap();
    r.timings.total = total.lap();
    return r;
  }

  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::byte> bytes) override {
    core::ByteReader outer(bytes, "sz3");
    outer.expect_magic(kMagic);
    const auto inner_bytes = lossless::lzss_decompress(outer.read_length_prefixed());
    core::ByteReader rd(inner_bytes, "sz3");
    dev::Dim3 dims;
    dims.x = rd.read<std::uint64_t>();
    dims.y = rd.read<std::uint64_t>();
    dims.z = rd.read<std::uint64_t>();
    const std::size_t n =
        core::checked_volume("sz3", rd.offset(), dims.x, dims.y, dims.z);
    (void)rd.checked_array_bytes(n, sizeof(float));
    const auto eb = rd.read<double>();
    CpuInterpParams ip;
    ip.anchor_stride = rd.read<std::uint64_t>();
    ip.alpha = rd.read<double>();
    const auto radius = rd.read<std::uint32_t>();
    if (radius == 0 || radius > 1u << 15) rd.fail("radius out of range");
    ip.radius = static_cast<int>(radius);
    for (int i = 0; i < 3; ++i) {
      const auto cubic = rd.read<std::uint8_t>();
      if (cubic > static_cast<std::uint8_t>(predictor::CubicKind::Natural))
        rd.fail("unknown cubic kind");
      ip.config.cubic[static_cast<std::size_t>(i)] =
          static_cast<predictor::CubicKind>(cubic);
      const auto order = rd.read<std::uint8_t>();
      if (order > 2) rd.fail("interpolation dim order out of range");
      ip.config.dim_order[static_cast<std::size_t>(i)] = order;
    }
    const auto anchors = rd.read_length_prefixed_array<float>();
    const auto outliers =
        quant::OutlierSet::deserialize(rd.read_length_prefixed(), nullptr);
    const auto codes = huffman::decode(rd.read_length_prefixed());
    if (codes.size() != n) rd.fail("code count mismatch");
    // cpu_interp_decompress validates the anchor stride, anchor count, and
    // outlier indices against dims.
    return cpu_interp_decompress(codes, anchors, outliers, dims, eb, ip);
  }

 private:
  bool qoz_;
};

}  // namespace

std::unique_ptr<Compressor> make_sz3() { return std::make_unique<CpuSz>(false); }
std::unique_ptr<Compressor> make_qoz() { return std::make_unique<CpuSz>(true); }

}  // namespace szi::baselines
