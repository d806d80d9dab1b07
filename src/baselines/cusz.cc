#include "baselines/cusz.hh"

#include <stdexcept>

#include "core/bytes.hh"
#include "core/timer.hh"
#include "device/arena.hh"
#include "huffman/histogram.hh"
#include "huffman/huffman.hh"
#include "metrics/stats.hh"
#include "predictor/lorenzo.hh"

namespace szi::baselines {

namespace {

constexpr std::uint32_t kMagic = 0x5A535543;  // "CUSZ"

class Cusz final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "cuSZ"; }

  [[nodiscard]] CompressResult compress(const Field& field,
                                        const CompressParams& p) override {
    core::Timer total;
    core::Timer stage;
    CompressResult r;

    const double eb = resolve_abs_eb(p, field.data, "cuSZ");

    constexpr int kRadius = quant::kDefaultRadius;
    dev::Workspace ws(dev::Arena::instance());
    // Fused predict+histogram: the separate full read pass over codes is
    // gone, so the histogram stage reports 0 and predict covers both.
    const auto fused = predictor::lorenzo_compress_fused(field.data, field.dims,
                                                         eb, kRadius, ws);
    r.timings.predict = stage.lap();
    r.timings.histogram = 0.0;
    r.timings.histogram_fused = true;
    const auto book = huffman::Codebook::build(fused.histogram);
    r.timings.codebook = stage.lap();
    const auto huff = huffman::encode_with_book(fused.pred.codes, book,
                                                huffman::kDefaultChunk, ws);
    r.timings.encode = stage.lap();

    const auto oblob = ws.make<std::byte>(
        quant::outlier_blob_bytes<float>(fused.pred.outliers.count()));
    quant::write_outlier_blob(fused.pred.outliers, oblob);
    core::ByteWriter w;
    w.reserve(38 + 8 + oblob.size() + 8 + huff.size());
    w.put(kMagic);
    w.put(static_cast<std::uint64_t>(field.dims.x));
    w.put(static_cast<std::uint64_t>(field.dims.y));
    w.put(static_cast<std::uint64_t>(field.dims.z));
    w.put(eb);
    w.put(static_cast<std::uint16_t>(kRadius));
    w.put_blob(oblob);
    w.put_blob(huff);
    r.bytes = w.take();
    r.timings.total = total.lap();
    return r;
  }

  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::byte> bytes) override {
    core::ByteReader rd(bytes, "cusz");
    rd.expect_magic(kMagic);
    dev::Dim3 dims;
    dims.x = rd.read<std::uint64_t>();
    dims.y = rd.read<std::uint64_t>();
    dims.z = rd.read<std::uint64_t>();
    const std::size_t n =
        core::checked_volume("cusz", rd.offset(), dims.x, dims.y, dims.z);
    (void)rd.checked_array_bytes(n, sizeof(float));
    const auto eb = rd.read<double>();
    const auto radius = rd.read<std::uint16_t>();
    const auto outliers =
        quant::OutlierSet::deserialize(rd.read_length_prefixed(), nullptr);
    const auto codes = huffman::decode(rd.read_length_prefixed());
    if (codes.size() != n) rd.fail("code count mismatch");
    // lorenzo_decompress bounds-checks the outlier indices against dims.
    return predictor::lorenzo_decompress(codes, outliers, dims, eb, radius);
  }
};

}  // namespace

std::unique_ptr<Compressor> make_cusz() { return std::make_unique<Cusz>(); }

}  // namespace szi::baselines
