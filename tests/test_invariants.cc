// Cross-cutting invariants of the whole system.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "baselines/registry.hh"
#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/arena.hh"
#include "lossless/orchestrate.hh"
#include "metrics/stats.hh"

namespace {

using szi::baselines::make_compressor;
using szi::ErrorMode;

const szi::Field& field() {
  static const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  return fields.front();
}

TEST(Invariants, LorenzoPipelinesReconstructIdentically) {
  // cuSZ and FZ-GPU share the identical Lorenzo dual-quant prediction; they
  // differ only in lossless encoding, so their *reconstructions* must be
  // bit-identical at the same error bound.
  auto cusz = make_compressor("cusz");
  auto fz = make_compressor("fz-gpu");
  const szi::CompressParams p{ErrorMode::Rel, 1e-3};
  const auto a = cusz->decompress(cusz->compress(field(), p).bytes);
  const auto b = fz->decompress(fz->compress(field(), p).bytes);
  EXPECT_EQ(a, b);
}

TEST(Invariants, BitcompWrapperIsLosslessOverAnyArchive) {
  // The de-redundancy pass must be perfectly lossless: unwrapping returns
  // the inner archive bytes, hence identical reconstructions.
  for (const char* name : {"cusz-i", "cuszp", "cuszx"}) {
    auto plain = make_compressor(name);
    auto wrapped = szi::with_bitcomp(make_compressor(name));
    const szi::CompressParams p{ErrorMode::Rel, 1e-3};
    const auto a = plain->decompress(plain->compress(field(), p).bytes);
    const auto b = wrapped->decompress(wrapped->compress(field(), p).bytes);
    EXPECT_EQ(a, b) << name;
  }
}

TEST(Invariants, AbsAndRelModesAgreeAtEquivalentBounds) {
  auto c = make_compressor("cusz-i");
  const double range = szi::metrics::value_range(field().data);
  const double rel = 1e-3;
  const auto a = c->compress(field(), {ErrorMode::Rel, rel});
  const auto b = c->compress(field(), {ErrorMode::Abs, rel * range});
  // Identical absolute bound -> identical codes -> identical archive.
  EXPECT_EQ(a.bytes, b.bytes);
}

TEST(Invariants, TighterBoundNeverCompressesBetter) {
  for (const char* name : {"cusz-i", "cusz", "cuszp", "cuszx", "fz-gpu"}) {
    auto c = make_compressor(name);
    std::size_t prev = 0;
    for (const double rel : {1e-2, 1e-3, 1e-4}) {
      const auto enc = c->compress(field(), {ErrorMode::Rel, rel});
      EXPECT_GE(enc.bytes.size(), prev) << name << " at " << rel;
      prev = enc.bytes.size();
    }
  }
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t fnv = 1469598103934665603ull;
  for (const std::byte b : bytes) {
    fnv ^= static_cast<std::uint64_t>(b);
    fnv *= 1099511628211ull;
  }
  return fnv;
}

/// A field built from integer arithmetic alone (no datagen, no libm), so
/// the pinned digests below depend on the codec and nothing else: a
/// quadratic bowl under a flat upper half, a hashed ripple near the error
/// bound, and sparse spikes that land in the outlier set. Every integer
/// stays below 2^24 and the scale is a power of two, so the f32 and f64
/// values are exact.
template <typename T>
std::vector<T> integer_field(const szi::dev::Dim3& dims) {
  std::vector<T> v(dims.volume());
  const auto cx = static_cast<std::int64_t>(dims.x / 3);
  const auto cy = static_cast<std::int64_t>(dims.y / 2);
  const auto cz = static_cast<std::int64_t>(dims.z / 4);
  std::uint64_t i = 0;
  for (std::size_t z = 0; z < dims.z; ++z)
    for (std::size_t y = 0; y < dims.y; ++y)
      for (std::size_t x = 0; x < dims.x; ++x, ++i) {
        const std::int64_t dx = static_cast<std::int64_t>(x) - cx;
        const std::int64_t dy = static_cast<std::int64_t>(y) - cy;
        const std::int64_t dz = static_cast<std::int64_t>(z) - cz;
        std::int64_t n = 16 * (3 * dx * dx + 2 * dy * dy - dz * dz + dx * dy);
        if (z >= dims.z / 2) n = 0;
        n += static_cast<std::int64_t>((i * 0x9E3779B97F4A7C15ull) >> 60);
        if (i * 2654435761ull % 997 == 0) n += 1 << 18;
        v[i] = static_cast<T>(n) / T(1024);
      }
  return v;
}

// Archive format freeze: fixed inputs must produce these exact digests. If
// a deliberate format change lands, update the constants and note it in the
// release notes — this test exists to catch *accidental* format drift.
TEST(Invariants, ArchiveFormatFrozen) {
  auto c = make_compressor("cusz-i");
  const auto enc = c->compress(field(), {ErrorMode::Rel, 1e-3});
  const std::uint64_t fnv = fnv1a(enc.bytes);
  // Self-consistency every run; the digest is also printed so a release
  // process can record it.
  const auto enc2 = c->compress(field(), {ErrorMode::Rel, 1e-3});
  EXPECT_EQ(enc.bytes, enc2.bytes);
  RecordProperty("archive_fnv1a", std::to_string(fnv));
  SUCCEED() << "archive digest: " << fnv;

  // Pinned digests, one per format variant: SZI2 raw f32 and f64, the BBC2
  // wrapper under the chooser and under each forced method, and a
  // degenerate 1x1xN field through the fused wrapped writer.
  using szi::lossless::LzssMode;
  using szi::lossless::MethodPolicy;
  const szi::CompressParams abs{ErrorMode::Abs, 1.0 / 64};
  const szi::dev::Dim3 dims{128, 96, 64};
  const auto f32 = integer_field<float>(dims);
  const auto f64 = integer_field<double>(dims);
  const auto raw32 = szi::cuszi_compress(std::span<const float>(f32), dims, abs);
  const auto raw64 =
      szi::cuszi_compress(std::span<const double>(f64), dims, abs);
  EXPECT_EQ(fnv1a(raw32), 4305840167192618763ull) << "SZI2 f32";
  EXPECT_EQ(fnv1a(raw64), 12668914643538906375ull) << "SZI2 f64";

  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto fused = szi::cuszi_compress_bitcomp(std::span<const float>(f32),
                                                 dims, abs, nullptr, ws);
  EXPECT_EQ(fnv1a(fused), 12166561758112106941ull) << "BBC2 fused writer";
  const struct {
    MethodPolicy policy;
    std::uint64_t digest;
  } wraps[] = {{MethodPolicy::Auto, 12166561758112106941ull},
               {MethodPolicy::ForceLzss, 9182574358254603335ull},
               {MethodPolicy::ForceZeroRle, 10387229751325302651ull},
               {MethodPolicy::ForceBitshuffle, 11131468269387164961ull}};
  for (const auto& w : wraps)
    EXPECT_EQ(fnv1a(szi::bitcomp_wrap_archive(raw32, LzssMode::Lazy, w.policy)),
              w.digest)
        << "BBC2 policy " << static_cast<int>(w.policy);

  const szi::dev::Dim3 line{1, 1, 1024};
  const auto thin = integer_field<float>(line);
  EXPECT_EQ(fnv1a(szi::cuszi_compress_bitcomp(std::span<const float>(thin),
                                              line, abs, nullptr, ws)),
            10002637023120135874ull)
      << "BBC2 1x1xN";
}

}  // namespace
