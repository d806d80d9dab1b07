#include "baselines/cuzfp.hh"

#include <stdexcept>

#include "baselines/zfp_codec.hh"
#include "core/timer.hh"

namespace szi::baselines {

namespace {

class CuZfp final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "cuZFP"; }

  [[nodiscard]] CompressResult compress(const Field& field,
                                        const CompressParams& p) override {
    if (p.mode != ErrorMode::FixedRate)
      throw std::invalid_argument(
          "cuZFP: only fixed-rate mode is supported (no absolute error "
          "bound; see TABLE III note)");
    core::Timer total;
    CompressResult r;
    r.bytes = zfp::compress(field.data, field.dims, p.value);
    r.timings.encode = r.timings.total = total.lap();
    return r;
  }

  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::byte> bytes) override {
    return zfp::decompress(bytes);
  }
};

}  // namespace

std::unique_ptr<Compressor> make_cuzfp() { return std::make_unique<CuZfp>(); }

}  // namespace szi::baselines
