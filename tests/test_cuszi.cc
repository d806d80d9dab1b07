// End-to-end cuSZ-i pipeline tests: round trips over real generator output,
// error-bound modes, archive robustness, concurrent callers, decode stage
// timings, and the de-redundancy wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/arena.hh"
#include "metrics/stats.hh"

namespace {

using szi::CompressParams;
using szi::ErrorMode;

szi::Field small_field(const std::string& dataset) {
  auto fields = szi::datagen::make_dataset(dataset, szi::datagen::Size::Small);
  auto f = std::move(fields.front());
  return f;
}

TEST(Cuszi, RoundTripAbsMode) {
  auto c = szi::make_cuszi();
  const auto f = small_field("miranda");
  const double eb = 1e-3;
  const auto enc = c->compress(f, {ErrorMode::Abs, eb});
  const auto dec = c->decompress(enc.bytes);
  ASSERT_EQ(dec.size(), f.size());
  EXPECT_TRUE(szi::metrics::error_bounded(f.data, dec, eb));
}

TEST(Cuszi, RoundTripRelMode) {
  auto c = szi::make_cuszi();
  const auto f = small_field("nyx");  // huge dynamic range
  const double rel = 1e-3;
  const auto range = szi::metrics::value_range(f.data);
  const auto enc = c->compress(f, {ErrorMode::Rel, rel});
  const auto dec = c->decompress(enc.bytes);
  EXPECT_TRUE(szi::metrics::error_bounded(f.data, dec, rel * range));
}

TEST(Cuszi, CompressesSmoothDataWell) {
  auto c = szi::make_cuszi();
  const auto f = small_field("miranda");
  const auto enc = c->compress(f, {ErrorMode::Rel, 1e-3});
  const double cr = szi::metrics::compression_ratio(f.bytes(), enc.bytes.size());
  EXPECT_GT(cr, 20.0) << "Miranda at 1e-3 should compress well";
}

TEST(Cuszi, RejectsFixedRate) {
  auto c = szi::make_cuszi();
  const auto f = small_field("qmcpack");
  EXPECT_THROW((void)c->compress(f, {ErrorMode::FixedRate, 4.0}),
               std::invalid_argument);
}

TEST(Cuszi, ThrowsOnCorruptArchive) {
  auto c = szi::make_cuszi();
  const auto f = small_field("rtm");
  auto enc = c->compress(f, {ErrorMode::Rel, 1e-2});
  enc.bytes[0] = std::byte{0xFF};  // break the magic
  EXPECT_THROW((void)c->decompress(enc.bytes), std::runtime_error);
  auto enc2 = c->compress(f, {ErrorMode::Rel, 1e-2});
  enc2.bytes.resize(enc2.bytes.size() / 3);
  EXPECT_THROW((void)c->decompress(enc2.bytes), std::runtime_error);
}

TEST(Cuszi, TimingsArePopulated) {
  auto c = szi::make_cuszi();
  const auto f = small_field("s3d");
  const auto enc = c->compress(f, {ErrorMode::Rel, 1e-3});
  EXPECT_GT(enc.timings.total, 0.0);
  EXPECT_GT(enc.timings.predict, 0.0);
  EXPECT_LE(enc.timings.kernel_time(), enc.timings.total);
  double dec_s = -1;
  (void)c->decompress(enc.bytes, &dec_s);
  EXPECT_GT(dec_s, 0.0);
}

// Concurrency comes from callers sharing the pool and the global arena,
// each over its own Workspace (as the serve layer runs requests): every
// caller's archive and reconstruction are byte-identical to the same call
// made alone.
TEST(Cuszi, ConcurrentCallersMatchSequential) {
  const std::vector<std::string> names = {"miranda", "nyx", "s3d", "rtm"};
  const CompressParams p{ErrorMode::Rel, 1e-3};
  std::vector<szi::Field> fields;
  std::vector<std::vector<std::byte>> want_bytes;
  std::vector<std::vector<float>> want_data;
  for (const auto& n : names) {
    fields.push_back(small_field(n));
    want_bytes.push_back(
        szi::cuszi_compress(fields.back().view(), fields.back().dims, p));
    want_data.push_back(szi::cuszi_decompress_f32(want_bytes.back()));
  }
  std::vector<std::vector<std::byte>> got_bytes(names.size());
  std::vector<std::vector<float>> got_data(names.size());
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < names.size(); ++i)
    callers.emplace_back([&, i] {
      szi::dev::Workspace ws(szi::dev::Arena::instance());
      got_bytes[i] = szi::cuszi_compress(fields[i].view(), fields[i].dims, p,
                                         nullptr, ws);
      got_data[i] = szi::cuszi_decompress_f32(got_bytes[i], ws);
    });
  for (auto& t : callers) t.join();
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(got_bytes[i], want_bytes[i]) << names[i];
    EXPECT_EQ(got_data[i], want_data[i]) << names[i];
  }
}

// The Compressor adapter pools its scratch in the global arena: after a
// compress or decompress through it, the field-sized quant-code buffer sits
// in Arena::instance()'s free lists with nothing left outstanding, and a
// repeat call is served from them. Bytes and values equal the typed API's.
TEST(Cuszi, InterfaceDrawsScratchFromGlobalArena) {
  auto& arena = szi::dev::Arena::instance();
  auto c = szi::make_cuszi();
  const auto f = small_field("miranda");
  const CompressParams p{ErrorMode::Rel, 1e-3};
  const std::size_t codes_bytes = f.size() * sizeof(std::uint16_t);

  (void)szi::dev::Arena::trim_all();
  const auto base = arena.stats();
  const auto enc = c->compress(f, p);
  const auto after_c = arena.stats();
  EXPECT_EQ(enc.bytes, szi::cuszi_compress(f.view(), f.dims, p));
  EXPECT_EQ(after_c.outstanding, base.outstanding);
  EXPECT_GE(after_c.pooled_bytes, codes_bytes);
  const auto enc2 = c->compress(f, p);
  EXPECT_GT(arena.stats().hits, after_c.hits);
  EXPECT_EQ(enc2.bytes, enc.bytes);

  (void)szi::dev::Arena::trim_all();
  const auto dec = c->decompress(enc.bytes);
  const auto after_d = arena.stats();
  EXPECT_EQ(dec, szi::cuszi_decompress_f32(enc.bytes));
  EXPECT_EQ(after_d.outstanding, base.outstanding);
  EXPECT_GE(after_d.pooled_bytes, codes_bytes);
  (void)c->decompress(enc.bytes);
  EXPECT_GT(arena.stats().hits, after_d.hits);
}

TEST(CusziBitcomp, WrapperRoundTripsAndShrinks) {
  auto plain = szi::make_cuszi();
  auto wrapped = szi::with_bitcomp(szi::make_cuszi());
  const auto f = small_field("s3d");  // mostly-zero CO field: best case
  const CompressParams p{ErrorMode::Rel, 1e-2};
  const auto a = plain->compress(f, p);
  const auto b = wrapped->compress(f, p);
  EXPECT_LT(b.bytes.size(), a.bytes.size());
  const auto dec = wrapped->decompress(b.bytes);
  const auto range = szi::metrics::value_range(f.data);
  EXPECT_TRUE(szi::metrics::error_bounded(f.data, dec, 1e-2 * range));
  EXPECT_EQ(wrapped->name(), "cuSZ-i w/ Bitcomp");
}

TEST(CusziBitcomp, WrapperRejectsPlainArchive) {
  auto plain = szi::make_cuszi();
  auto wrapped = szi::with_bitcomp(szi::make_cuszi());
  const auto f = small_field("miranda");
  const auto enc = plain->compress(f, {ErrorMode::Rel, 1e-3});
  EXPECT_THROW((void)wrapped->decompress(enc.bytes), std::runtime_error);
}

// with_bitcomp() composes the inner compress with the wrap: its archive is
// byte-identical to wrapping the plain cuSZ-i archive, and to the phased
// cuszi_compress_bitcomp writer.
TEST(CusziBitcomp, AdapterBytesEqualWrapOfInnerArchive) {
  auto plain = szi::make_cuszi();
  auto wrapped = szi::with_bitcomp(szi::make_cuszi());
  for (const char* name : {"s3d", "nyx"}) {
    SCOPED_TRACE(name);
    const auto f = small_field(name);
    const CompressParams p{ErrorMode::Rel, 1e-3};
    const auto inner = plain->compress(f, p);
    const auto outer = wrapped->compress(f, p);
    EXPECT_EQ(outer.bytes, szi::bitcomp_wrap_archive(inner.bytes));
    szi::dev::Workspace ws(szi::dev::Arena::instance());
    EXPECT_EQ(outer.bytes,
              szi::cuszi_compress_bitcomp(f.view(), f.dims, p, nullptr, ws));
  }
}

// Every decode the adapter offers — plain, staged, full-fidelity preview
// and a whole-field box — unwraps to the same values as the plain decode
// of the inner archive; the staged one reports the unwrap as its own slice
// of the wall clock.
TEST(CusziBitcomp, AdapterDecodePathsAgree) {
  auto wrapped = szi::with_bitcomp(szi::make_cuszi());
  const auto f = small_field("rtm");
  const auto inner = szi::cuszi_compress(f.view(), f.dims,
                                         {ErrorMode::Rel, 1e-3});
  const auto outer = szi::bitcomp_wrap_archive(inner);
  const auto ref = szi::cuszi_decompress_f32(inner);

  double secs = -1;
  EXPECT_EQ(wrapped->decompress(outer, &secs), ref);
  EXPECT_GT(secs, 0.0);

  szi::DecodeTimings t;
  EXPECT_EQ(wrapped->decompress_stages(outer, t), ref);
  EXPECT_GT(t.unwrap, 0.0);
  EXPECT_GT(t.huffman, 0.0);
  EXPECT_GT(t.reconstruct, 0.0);
  EXPECT_LE(t.unwrap + t.huffman + t.reconstruct, t.total);

  const auto prev = wrapped->decompress_progressive(outer, 1);
  EXPECT_EQ(prev.dims, f.dims);
  EXPECT_EQ(prev.data, ref);

  const auto roi = wrapped->decompress_roi(outer, {{0, 0, 0}, f.dims});
  EXPECT_EQ(roi.data, ref);
}

// A full decode runs its stages one after another, so each stage it
// reports is a wall-clock slice of `total`: raw and wrapped, f32 and f64
// (the wrapped decode adds the unwrap, which a raw one never reports).
TEST(Cuszi, DecodeStagesAreWallSlicesOfTotal) {
  const auto f = small_field("miranda");
  std::vector<double> v64(f.data.begin(), f.data.end());
  const CompressParams p{ErrorMode::Rel, 1e-3};
  const auto raw32 = szi::cuszi_compress(f.view(), f.dims, p);
  const auto raw64 =
      szi::cuszi_compress(std::span<const double>(v64), f.dims, p);
  const auto expect_slices = [](const szi::DecodeTimings& t, bool wrapped) {
    if (wrapped)
      EXPECT_GT(t.unwrap, 0.0);
    else
      EXPECT_EQ(t.unwrap, 0.0);
    EXPECT_GT(t.huffman, 0.0);
    EXPECT_GT(t.reconstruct, 0.0);
    EXPECT_LE(t.unwrap + t.huffman + t.reconstruct, t.total);
  };
  szi::dev::Workspace ws(szi::dev::Arena::instance());
  szi::DecodeTimings t32, t64, w32, w64;
  const auto d32 = szi::cuszi_decompress_f32(raw32, &t32);
  const auto d64 = szi::cuszi_decompress_f64(raw64, &t64);
  EXPECT_EQ(szi::cuszi_decompress_bitcomp_f32(
                szi::bitcomp_wrap_archive(raw32), ws, &w32),
            d32);
  EXPECT_EQ(szi::cuszi_decompress_bitcomp_f64(
                szi::bitcomp_wrap_archive(raw64), ws, &w64),
            d64);
  expect_slices(t32, false);
  expect_slices(t64, false);
  expect_slices(w32, true);
  expect_slices(w64, true);
}

// Every dataset x error bound must round-trip within bound — the paper's
// TABLE III grid as a correctness property.
class CusziDatasetSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(CusziDatasetSweep, ErrorBounded) {
  const auto& [dataset, rel] = GetParam();
  auto c = szi::make_cuszi();
  for (const auto& f :
       szi::datagen::make_dataset(dataset, szi::datagen::Size::Small)) {
    const auto enc = c->compress(f, {ErrorMode::Rel, rel});
    const auto dec = c->decompress(enc.bytes);
    const auto range = szi::metrics::value_range(f.data);
    EXPECT_TRUE(szi::metrics::error_bounded(f.data, dec, rel * range))
        << f.label();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, CusziDatasetSweep,
    ::testing::Combine(::testing::ValuesIn(szi::datagen::dataset_names()),
                       ::testing::Values(1e-2, 1e-3, 1e-4)));

}  // namespace
