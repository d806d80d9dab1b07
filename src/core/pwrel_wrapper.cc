// with_pointwise_rel(): serves pointwise-relative error bounds on any
// error-bounded compressor via the SZ-family log transform.
//
//   |v'/v - 1| <= rel  <=>  |ln|v'| - ln|v|| <= ln(1+rel)   (same sign)
//
// so the wrapper compresses t = ln|v| under an *absolute* bound
// ln(1+rel), and stores two sparse side channels: the sign bitmap and the
// zero class (|v| below a denormal-guard threshold reconstructs as exactly
// zero — a zero cannot carry a relative error).
#include <cmath>
#include <utility>

#include "core/bytes.hh"
#include "core/compressor_iface.hh"
#include "core/timer.hh"
#include "device/launch.hh"
#include "lossless/rle.hh"
#include "metrics/stats.hh"

namespace szi {

double resolve_abs_eb(const CompressParams& p, std::span<const float> data,
                      const std::string& who) {
  double eb = 0;
  switch (p.mode) {
    case ErrorMode::Abs:
      eb = p.value;
      break;
    case ErrorMode::Rel:
      eb = p.value * metrics::value_range(data);
      break;
    case ErrorMode::PwRel:
      throw std::invalid_argument(
          who + ": pointwise-relative mode requires with_pointwise_rel()");
    case ErrorMode::FixedRate:
      throw std::invalid_argument(who + ": fixed-rate mode not supported");
  }
  if (eb <= 0) throw std::invalid_argument(who + ": non-positive error bound");
  return eb;
}

namespace {

constexpr std::uint32_t kMagic = 0x4C525750;  // "PWRL"
constexpr float kZeroThreshold = 1e-35f;      // below: reconstruct exact 0

std::vector<std::byte> pack_bitmap(const std::vector<std::uint8_t>& bits) {
  std::vector<std::byte> packed((bits.size() + 7) / 8, std::byte{0});
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i])
      packed[i / 8] |= static_cast<std::byte>(1u << (i % 8));
  return lossless::zero_rle_compress(packed);
}

std::vector<std::uint8_t> unpack_bitmap(std::span<const std::byte> rle,
                                        std::size_t n) {
  const auto packed = lossless::zero_rle_decompress(rle);
  if (packed.size() != n / 8 + (n % 8 != 0 ? 1 : 0))
    throw core::CorruptArchive("pwrel", 0, "bitmap size mismatch");
  std::vector<std::uint8_t> bits(n);
  for (std::size_t i = 0; i < n; ++i)
    bits[i] = (static_cast<std::uint8_t>(packed[i / 8]) >> (i % 8)) & 1u;
  return bits;
}

class PwRelWrapped final : public Compressor {
 public:
  explicit PwRelWrapped(std::unique_ptr<Compressor> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override {
    return inner_->name() + " (pw-rel)";
  }

  [[nodiscard]] CompressResult compress(const Field& field,
                                        const CompressParams& p) override {
    if (p.mode != ErrorMode::PwRel)
      return inner_->compress(field, p);  // transparent for other modes
    if (p.value <= 0 || p.value >= 1)
      throw std::invalid_argument("pwrel: bound must be in (0, 1)");
    core::Timer total;

    const std::size_t n = field.size();
    Field logged("pwrel", field.name, field.dims);
    std::vector<std::uint8_t> negative(n), zero(n);
    dev::launch_linear(
        n,
        [&](std::size_t i) {
          const float v = field.data[i];
          const float mag = std::abs(v);
          negative[i] = v < 0 ? 1 : 0;
          if (mag < kZeroThreshold) {
            zero[i] = 1;
            logged.data[i] = std::log(kZeroThreshold);  // inert filler
          } else {
            logged.data[i] = std::log(mag);
          }
        },
        1 << 14);

    const double eb_log = std::log1p(p.value);
    CompressResult r = inner_->compress(logged, {ErrorMode::Abs, eb_log});

    core::ByteWriter w;
    w.put(kMagic);
    w.put(static_cast<std::uint64_t>(n));
    w.put(p.value);
    w.put_blob(pack_bitmap(negative));
    w.put_blob(pack_bitmap(zero));
    w.put_blob(r.bytes);
    r.bytes = w.take();
    r.timings.total = total.lap();
    return r;
  }

  [[nodiscard]] std::vector<float> decompress(
      std::span<const std::byte> bytes) override {
    core::ByteReader rd(bytes, "pwrel");
    rd.expect_magic(kMagic);
    const auto n64 = rd.read<std::uint64_t>();
    (void)rd.checked_array_bytes(static_cast<std::size_t>(n64),
                                 sizeof(float));
    const auto n = static_cast<std::size_t>(n64);
    (void)rd.read<double>();  // rel bound: informational
    const auto negative = unpack_bitmap(rd.read_length_prefixed(), n);
    const auto zero = unpack_bitmap(rd.read_length_prefixed(), n);
    auto logged = inner_->decompress(rd.read_length_prefixed());
    if (logged.size() != n) rd.fail("inner payload size mismatch");

    std::vector<float> out(n);
    dev::launch_linear(
        n,
        [&](std::size_t i) {
          if (zero[i]) {
            out[i] = 0.0f;
          } else {
            const float mag = std::exp(logged[i]);
            out[i] = negative[i] ? -mag : mag;
          }
        },
        1 << 14);
    return out;
  }

 private:
  std::unique_ptr<Compressor> inner_;
};

}  // namespace

std::unique_ptr<Compressor> with_pointwise_rel(
    std::unique_ptr<Compressor> inner) {
  return std::make_unique<PwRelWrapped>(std::move(inner));
}

}  // namespace szi
