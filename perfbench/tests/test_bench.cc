// Tests of the benchmark's own arithmetic and inputs.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "inputs.hh"
#include "oracle.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Tail, NearestRankWithEnoughBeyond) {
  EXPECT_EQ(tail(one_to(100), 0.50).value, 50.0);
  EXPECT_EQ(tail(one_to(40), 0.10).value, 4.0);
  // Order of the input does not matter.
  EXPECT_EQ(tail({5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15}, 0.2).value,
            3.0);
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Tail, P99WhenTenSamplesLieBeyond) {
  // 2000 samples: p99 is rank 1980, and 20 samples lie beyond it.
  const Tail t = tail(one_to(2000));
  EXPECT_EQ(t.value, 1980.0);
  EXPECT_EQ(t.beyond, 20u);
  EXPECT_DOUBLE_EQ(t.pct, 99.0);
  EXPECT_EQ(t.samples, 2000u);
  // Exactly 1000 samples still leave ten beyond p99.
  const Tail k = tail(one_to(1000));
  EXPECT_EQ(k.value, 990.0);
  EXPECT_EQ(k.beyond, 10u);
}

TEST(Tail, FallsBackToKeepTenBeyond) {
  // 100 samples cannot support p99 with ten beyond: rank 90 is taken.
  const Tail t = tail(one_to(100));
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.pct, 90.0);
  // Eleven samples: the smallest one, with all ten others beyond it.
  const Tail s = tail(one_to(11));
  EXPECT_EQ(s.value, 1.0);
  EXPECT_EQ(s.beyond, 10u);
}

TEST(Tail, TooFewSamplesTakesTheMaximum) {
  const Tail t = tail(one_to(5));
  EXPECT_EQ(t.value, 5.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_EQ(tail({}).samples, 0u);
}

TEST(Throughput, AggregatesBytesOverBusySeconds) {
  Throughput t;
  EXPECT_EQ(t.gbps(), 0.0);
  t.add(1e9, 0.5);
  t.add(3e9, 1.5);
  EXPECT_EQ(t.ops, 2u);
  // 4e9 bytes over 2 s, not the mean of the per-op rates (2 and 2).
  EXPECT_DOUBLE_EQ(t.gbps(), 2.0);
  Throughput u;
  u.add(1e9, 1.0);
  u.add(1e9, 0.1);  // 10 GB/s op does not dominate: 2e9 / 1.1 s
  EXPECT_DOUBLE_EQ(u.gbps(), 2e9 / 1.1 / 1e9);
}

TEST(Throughput, MedianPassIgnoresOneSlowRepeat) {
  const std::vector<double> bytes{1e9, 3e9};
  // Item 0 ran three times, one of them 10x slow; item 1 twice.
  const std::vector<std::vector<double>> s{{0.5, 5.0, 0.5}, {1.0, 2.0}};
  EXPECT_DOUBLE_EQ(median_pass_gbps(bytes, s), 4e9 / (0.5 + 1.5) / 1e9);
  // Untimed items are left out of both sums.
  EXPECT_DOUBLE_EQ(median_pass_gbps(bytes, {{}, {1.0}}), 3.0);
  EXPECT_EQ(median_pass_gbps(bytes, {}), 0.0);
}

TEST(LayerSum, RatioOfSerialLayersToEndToEnd) {
  const std::vector<double> layers{0.1, 0.2, 0.3};
  EXPECT_DOUBLE_EQ(layer_sum_ratio(layers, 0.3), 2.0);  // overlapped
  EXPECT_DOUBLE_EQ(layer_sum_ratio(layers, 1.2), 0.5);  // unaccounted time
  EXPECT_EQ(layer_sum_ratio(layers, 0.0), 0.0);
}

TEST(Trace, SpansNestAndShareTheOperationId) {
  trace::clear();
  trace::set_enabled(true);
  {
    trace::Span root("test.root", 10);
    trace::Span child("test.child", 5);
  }
  { trace::Span other("test.other"); }
  trace::set_enabled(false);
  { trace::Span off("test.off"); }
  const auto spans = trace::collect();
  ASSERT_EQ(spans.size(), 3u);
  const auto& child = spans[0];  // closes first
  const auto& root = spans[1];
  const auto& other = spans[2];
  EXPECT_STREQ(child.name, "test.child");
  EXPECT_EQ(child.parent, root.id);
  EXPECT_EQ(child.op, root.id);
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(root.op, root.id);
  EXPECT_NE(other.op, root.op);
  EXPECT_LE(root.t0_ns, child.t0_ns);
  EXPECT_GE(root.t1_ns, child.t1_ns);
  const auto t = trace::totals(spans);
  EXPECT_EQ(t.at("test.root").bytes, 10.0);
  EXPECT_EQ(t.at("test.child").count, 1u);
  trace::clear();
}

TEST(Inputs, SameSeedSameFields) {
  for (const auto c :
       {Character::Smooth, Character::Turbulent, Character::LogNormal}) {
    const szi::dev::Dim3 d{24, 20, 16};
    const auto a = synth_field(c, d, 42);
    const auto b = synth_field(c, d, 42);
    const auto other = synth_field(c, d, 43);
    const auto bytes = [](const szi::Field& f) {
      return std::as_bytes(std::span<const float>(f.data));
    };
    EXPECT_EQ(fnv1a(bytes(a)), fnv1a(bytes(b)));
    EXPECT_NE(fnv1a(bytes(a)), fnv1a(bytes(other)));
  }
}

TEST(Inputs, SameSeedSameRequests) {
  const szi::dev::Dim3 d{384, 384, 256};
  const auto a = random_access_requests(7, d, 4, 500);
  const auto b = random_access_requests(7, d, 4, 500);
  const auto c = random_access_requests(8, d, 4, 500);
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].roi, b[i].roi);
    EXPECT_EQ(a[i].box.lo.x, b[i].box.lo.x);
    EXPECT_EQ(a[i].box.ext.z, b[i].box.ext.z);
    EXPECT_EQ(a[i].level, b[i].level);
    differs |= a[i].roi != c[i].roi || a[i].box.lo.x != c[i].box.lo.x;
    if (a[i].roi) {
      EXPECT_GE(a[i].box.ext.x, 16u);
      EXPECT_LE(a[i].box.ext.x, 128u);
      EXPECT_LE(a[i].box.lo.z + a[i].box.ext.z, d.z);
    } else {
      EXPECT_GE(a[i].level, 2);
      EXPECT_LE(a[i].level, 4);
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Oracle, BoundAndSlack) {
  const std::vector<float> x{1.0f, 2.0f, 1.0e6f};
  std::vector<float> y{1.0009f, 1.9991f, std::nextafter(1.0e6f, 2.0e6f)};
  EXPECT_EQ(bound_violations(x, y, 1e-3), 0u);
  y[0] = 1.002f;
  EXPECT_EQ(bound_violations(x, y, 1e-3), 1u);
  y[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(bound_violations(x, y, 1e-3), 2u);
  EXPECT_EQ(bound_violations(x, std::vector<float>(2), 1.0), 3u);
}

TEST(Oracle, CropAndDigest) {
  const szi::dev::Dim3 d{4, 3, 2};
  std::vector<float> f(d.volume());
  std::iota(f.begin(), f.end(), 0.0f);
  const szi::RoiBox box{{1, 1, 1}, {2, 2, 1}};
  const auto c = crop<float>(f, d, box);
  EXPECT_EQ(c, (std::vector<float>{17, 18, 21, 22}));
  EXPECT_EQ(fnv1a({}), kFnvOffset);
  // Published FNV-1a 64 test vector.
  const char a = 'a';
  EXPECT_EQ(fnv1a(std::as_bytes(std::span<const char>(&a, 1))),
            0xaf63dc4c8601ec8cULL);
}

}  // namespace
}  // namespace perfbench
