// Cross-compressor integration tests: every baseline must round-trip within
// its error bound on every dataset family, and the relative behaviours the
// paper reports must hold on at least the clear-cut cases.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/registry.hh"
#include "datagen/datasets.hh"
#include "metrics/stats.hh"

namespace {

using szi::CompressParams;
using szi::ErrorMode;
using szi::baselines::make_compressor;

const szi::Field& cached_field(const std::string& dataset) {
  static std::map<std::string, szi::Field> cache;
  auto it = cache.find(dataset);
  if (it == cache.end()) {
    auto fields = szi::datagen::make_dataset(dataset, szi::datagen::Size::Small);
    it = cache.emplace(dataset, std::move(fields.front())).first;
  }
  return it->second;
}

class BaselineSweep : public ::testing::TestWithParam<
                          std::tuple<std::string, std::string, double>> {};

TEST_P(BaselineSweep, ErrorBoundHolds) {
  const auto& [comp_name, dataset, rel] = GetParam();
  auto c = make_compressor(comp_name);
  const auto& f = cached_field(dataset);
  const auto enc = c->compress(f, {ErrorMode::Rel, rel});
  ASSERT_GT(enc.bytes.size(), 0u);
  const auto dec = c->decompress(enc.bytes);
  ASSERT_EQ(dec.size(), f.size());
  const double eb = rel * szi::metrics::value_range(f.data);
  EXPECT_TRUE(szi::metrics::error_bounded(f.data, dec, eb))
      << comp_name << " on " << f.label() << " max_err="
      << szi::metrics::distortion(f.data, dec).max_err << " eb=" << eb;
}

INSTANTIATE_TEST_SUITE_P(
    AllCompressorsAllDatasets, BaselineSweep,
    ::testing::Combine(
        ::testing::Values("cusz", "cuszp", "cuszx", "fz-gpu", "cusz-i", "sz3",
                          "qoz"),
        ::testing::ValuesIn(szi::datagen::dataset_names()),
        ::testing::Values(1e-2, 1e-4)));

TEST(Baselines, RegistryRejectsUnknown) {
  EXPECT_THROW((void)make_compressor("nvcomp"), std::invalid_argument);
}

TEST(Baselines, NamesMatchPaper) {
  EXPECT_EQ(make_compressor("cusz-i")->name(), "cuSZ-i");
  EXPECT_EQ(make_compressor("cusz")->name(), "cuSZ");
  EXPECT_EQ(make_compressor("cuszp")->name(), "cuSZp");
  EXPECT_EQ(make_compressor("cuszx")->name(), "cuSZx");
  EXPECT_EQ(make_compressor("fz-gpu")->name(), "FZ-GPU");
  EXPECT_EQ(make_compressor("cuzfp")->name(), "cuZFP");
  EXPECT_EQ(make_compressor("sz3")->name(), "SZ3");
  EXPECT_EQ(make_compressor("qoz")->name(), "QoZ");
}

TEST(Baselines, CuzfpRejectsErrorBoundMode) {
  auto c = make_compressor("cuzfp");
  const auto& f = cached_field("miranda");
  EXPECT_THROW((void)c->compress(f, {ErrorMode::Rel, 1e-3}),
               std::invalid_argument);
  EXPECT_THROW((void)c->compress(f, {ErrorMode::Abs, 1e-3}),
               std::invalid_argument);
}

TEST(Baselines, ErrorBoundedCompressorsRejectFixedRate) {
  const auto& f = cached_field("miranda");
  for (const auto& name : szi::baselines::table3_compressors()) {
    auto c = make_compressor(name);
    EXPECT_THROW((void)c->compress(f, {ErrorMode::FixedRate, 4.0}),
                 std::invalid_argument)
        << name;
  }
}

TEST(Baselines, CuzfpFixedRateSizesMatchRate) {
  auto c = make_compressor("cuzfp");
  const auto& f = cached_field("jhtdb");
  for (const double rate : {2.0, 4.0, 8.0}) {
    const auto enc = c->compress(f, {ErrorMode::FixedRate, rate});
    const double bits_per_val =
        8.0 * static_cast<double>(enc.bytes.size()) / static_cast<double>(f.size());
    EXPECT_NEAR(bits_per_val, rate, rate * 0.2 + 0.6) << "rate=" << rate;
    const auto dec = c->decompress(enc.bytes);
    ASSERT_EQ(dec.size(), f.size());
  }
}

TEST(Baselines, CuzfpQualityImprovesWithRate) {
  auto c = make_compressor("cuzfp");
  const auto& f = cached_field("miranda");
  double prev_psnr = -1e9;
  for (const double rate : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const auto enc = c->compress(f, {ErrorMode::FixedRate, rate});
    const auto dec = c->decompress(enc.bytes);
    const auto d = szi::metrics::distortion(f.data, dec);
    EXPECT_GT(d.psnr, prev_psnr) << "rate=" << rate;
    prev_psnr = d.psnr;
  }
  EXPECT_GT(prev_psnr, 90.0) << "16 bits/value should be near-transparent";
}

// The paper's headline behaviours, as coarse assertions on clear-cut cases.
TEST(PaperBehaviour, CusziBeatsLorenzoFamilyOnSmoothData) {
  const auto& f = cached_field("miranda");
  const CompressParams p{ErrorMode::Rel, 1e-3};
  const auto cuszi = make_compressor("cusz-i")->compress(f, p);
  const auto cusz = make_compressor("cusz")->compress(f, p);
  const auto cuszp = make_compressor("cuszp")->compress(f, p);
  EXPECT_LT(cuszi.bytes.size(), cusz.bytes.size());
  EXPECT_LT(cuszi.bytes.size(), cuszp.bytes.size());
}

TEST(PaperBehaviour, QozBeatsCusziInRatio) {
  // §VII-C.2: "CPU-based QoZ still features a better compression ratio than
  // cuSZ-i due to larger interpolation blocks and more effective lossless".
  const auto& f = cached_field("miranda");
  const CompressParams p{ErrorMode::Rel, 1e-3};
  const auto qoz = make_compressor("qoz")->compress(f, p);
  const auto cuszi =
      szi::with_bitcomp(make_compressor("cusz-i"))->compress(f, p);
  EXPECT_LT(qoz.bytes.size(), cuszi.bytes.size());
}

TEST(PaperBehaviour, BitcompGainIsLargestForCuszi) {
  // §VII-C.1: G-Interp "is more attuned to the additional pass of lossless
  // encoding than any other compressor".
  const auto& f = cached_field("s3d");
  const CompressParams p{ErrorMode::Rel, 1e-2};
  auto gain = [&](const std::string& name) {
    const auto plain = make_compressor(name)->compress(f, p);
    const auto wrapped =
        szi::with_bitcomp(make_compressor(name))->compress(f, p);
    return static_cast<double>(plain.bytes.size()) /
           static_cast<double>(wrapped.bytes.size());
  };
  const double g_cuszi = gain("cusz-i");
  EXPECT_GT(g_cuszi, gain("cuszp"));
  EXPECT_GT(g_cuszi, gain("fz-gpu"));
  EXPECT_GT(g_cuszi, 1.5);
}

TEST(PaperBehaviour, GInterpHigherPsnrThanLorenzoAtSameEb) {
  // Fig. 6's claim, on an RTM snapshot.
  const auto f = szi::datagen::rtm_snapshot(1500, szi::datagen::Size::Small);
  const CompressParams p{ErrorMode::Rel, 1e-2};
  auto ci = make_compressor("cusz-i");
  auto cz = make_compressor("cusz");
  const auto di = szi::metrics::distortion(
      f.data, ci->decompress(ci->compress(f, p).bytes));
  const auto dz = szi::metrics::distortion(
      f.data, cz->decompress(cz->compress(f, p).bytes));
  EXPECT_GT(di.psnr, dz.psnr);
}

}  // namespace
