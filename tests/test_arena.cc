// The pooled-memory layer: arena bucketing, reuse and footprint accounting,
// workspaces, and pooled buffers acquired concurrently from kernel bodies.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "device/arena.hh"
#include "device/launch.hh"

namespace {

using szi::dev::Arena;
using szi::dev::PooledBuffer;
using szi::dev::Workspace;

TEST(Arena, RoundsUpAndReusesBlocks) {
  Arena a;
  std::size_t cap = 0;
  std::byte* p = a.acquire(1000, cap);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(cap, 1000u);
  a.release(p, cap);

  // Same bucket: the freed block must come back (LIFO reuse).
  std::size_t cap2 = 0;
  std::byte* q = a.acquire(cap, cap2);
  EXPECT_EQ(q, p);
  EXPECT_EQ(cap2, cap);
  a.release(q, cap2);

  const auto st = a.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.outstanding, 0u);
}

TEST(Arena, TrimFreesIdleBlocks) {
  Arena a;
  std::size_t cap = 0;
  std::byte* p = a.acquire(4096, cap);
  a.release(p, cap);
  EXPECT_GT(a.stats().pooled_bytes, 0u);
  a.trim();
  EXPECT_EQ(a.stats().pooled_blocks, 0u);
  EXPECT_EQ(a.stats().pooled_bytes, 0u);
}

TEST(Workspace, SpansAreDistinctAndWritable) {
  Arena a;
  Workspace ws(a);
  auto x = ws.make<std::uint32_t>(1000);
  auto y = ws.make<std::uint32_t>(1000);
  ASSERT_EQ(x.size(), 1000u);
  ASSERT_EQ(y.size(), 1000u);
  // Distinct blocks: writing one never touches the other.
  for (std::size_t i = 0; i < 1000; ++i) x[i] = 7;
  for (std::size_t i = 0; i < 1000; ++i) y[i] = 9;
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(x[i], 7u);
}

TEST(Workspace, ResetReturnsBlocksForReuse) {
  Arena a;
  Workspace ws(a);
  auto x = ws.make<std::uint8_t>(10000);
  std::uint8_t* first = x.data();
  ws.reset();
  EXPECT_EQ(a.stats().outstanding, 0u);

  // Same-size request after reset reuses the exact block (pool hit).
  auto y = ws.make<std::uint8_t>(10000);
  EXPECT_EQ(y.data(), first);
  EXPECT_GE(a.stats().hits, 1u);
}

TEST(Workspace, DestructorReleasesEverything) {
  Arena a;
  {
    Workspace ws(a);
    (void)ws.make<double>(512);
    (void)ws.make<double>(2048);
    EXPECT_EQ(a.stats().outstanding, 2u);
  }
  EXPECT_EQ(a.stats().outstanding, 0u);
}

// Concurrent callers each hold their own Workspace over one shared Arena:
// every caller's spans stay private to it through other callers' make and
// reset traffic, and every block is back in the pool once they finish.
TEST(Workspace, ConcurrentCallersShareOneArena) {
  Arena a;
  constexpr std::size_t kCallers = 4;
  std::vector<int> bad(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      Workspace ws(a);
      for (std::uint32_t round = 0; round < 50; ++round) {
        const std::size_t n = 1000 + 97 * ((c + round) % 7);
        auto x = ws.make<std::uint32_t>(n);
        auto y = ws.make<std::uint32_t>(n / 2);
        const auto tag = static_cast<std::uint32_t>(c << 24 | round << 8);
        for (std::size_t i = 0; i < x.size(); ++i)
          x[i] = tag + static_cast<std::uint32_t>(i & 0xFF);
        for (auto& v : y) v = ~tag;
        std::this_thread::yield();
        for (std::size_t i = 0; i < x.size(); ++i)
          bad[c] += x[i] != tag + static_cast<std::uint32_t>(i & 0xFF);
        for (const auto v : y) bad[c] += v != ~tag;
        ws.reset();
      }
    });
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) EXPECT_EQ(bad[c], 0) << c;
  const auto st = a.stats();
  EXPECT_EQ(st.outstanding, 0u);
  EXPECT_EQ(st.outstanding_bytes, 0u);
  EXPECT_GT(st.hits, 0u);
  EXPECT_EQ(st.pooled_bytes, st.held_bytes);
}

TEST(PooledBufferTest, ConcurrentAcquireReleaseFromKernels) {
  Arena a;
  const std::size_t n = 2000;
  std::vector<std::uint64_t> sums(n);
  szi::dev::launch_linear(
      n,
      [&](std::size_t i) {
        PooledBuffer buf(a, 256 * sizeof(std::uint32_t));
        auto scratch = buf.as<std::uint32_t>(256);
        for (std::size_t j = 0; j < 256; ++j)
          scratch[j] = static_cast<std::uint32_t>(i + j);
        std::uint64_t s = 0;
        for (std::size_t j = 0; j < 256; ++j) s += scratch[j];
        sums[i] = s;
      },
      16);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(sums[i], 256 * i + (255 * 256) / 2);
  EXPECT_EQ(a.stats().outstanding, 0u);
}

TEST(Arena, TracksHeldAndHighWaterBytes) {
  Arena a;
  std::size_t cap1 = 0, cap2 = 0;
  std::byte* p = a.acquire(5000, cap1);
  std::byte* q = a.acquire(50000, cap2);
  auto st = a.stats();
  EXPECT_EQ(st.outstanding_bytes, cap1 + cap2);
  EXPECT_EQ(st.held_bytes, cap1 + cap2);
  EXPECT_EQ(st.high_water_bytes, cap1 + cap2);

  a.release(p, cap1);
  a.release(q, cap2);
  st = a.stats();
  EXPECT_EQ(st.outstanding_bytes, 0u);
  // Released blocks stay pooled: the OS footprint (held) is unchanged, and
  // the peak never drops on release.
  EXPECT_EQ(st.held_bytes, cap1 + cap2);
  EXPECT_EQ(st.high_water_bytes, cap1 + cap2);

  // A pool hit recycles held bytes: no new footprint, no new peak.
  std::size_t cap3 = 0;
  std::byte* r = a.acquire(cap2, cap3);
  EXPECT_EQ(a.stats().held_bytes, cap1 + cap2);
  EXPECT_EQ(a.stats().high_water_bytes, cap1 + cap2);
  a.release(r, cap3);

  a.trim();
  st = a.stats();
  EXPECT_EQ(st.held_bytes, 0u);
  EXPECT_EQ(st.high_water_bytes, cap1 + cap2);  // trim never lowers the peak

  a.reset_high_water();
  EXPECT_EQ(a.stats().high_water_bytes, 0u);  // restarts from held (now 0)
}

TEST(Arena, TrimAllReleasesPooledAcrossGlobalArenas) {
  {
    Workspace ws(Arena::instance());
    (void)ws.make<float>(4096);
    (void)ws.make<float>(4096);
  }
  const auto before = Arena::aggregate_stats();
  EXPECT_GT(before.pooled_bytes, 0u);
  EXPECT_GT(before.held_bytes, 0u);
  EXPECT_GT(before.high_water_bytes, 0u);

  const std::size_t released = Arena::trim_all();
  EXPECT_GT(released, 0u);
  const auto after = Arena::aggregate_stats();
  EXPECT_EQ(after.pooled_bytes, 0u);
  EXPECT_EQ(after.held_bytes, before.held_bytes - released);
  EXPECT_GE(after.high_water_bytes, before.high_water_bytes);

  Arena::reset_high_water_all();
  const auto reset = Arena::aggregate_stats();
  EXPECT_EQ(reset.high_water_bytes, reset.held_bytes);
}

// With the per-stream shards gone, aggregate_stats() is the global
// arena's own stats(): a live Workspace on instance() shows up in it block
// for block, and is gone from it once released.
TEST(Arena, AggregateStatsReportTheGlobalArena) {
  const auto base = Arena::aggregate_stats();
  {
    Workspace ws(Arena::instance());
    (void)ws.make<float>(3000);
    (void)ws.make<double>(5000);
    const auto live = Arena::aggregate_stats();
    const auto inst = Arena::instance().stats();
    EXPECT_EQ(live.outstanding, inst.outstanding);
    EXPECT_EQ(live.outstanding_bytes, inst.outstanding_bytes);
    EXPECT_EQ(live.held_bytes, inst.held_bytes);
    EXPECT_EQ(live.hits + live.misses, inst.hits + inst.misses);
    EXPECT_EQ(live.outstanding, base.outstanding + 2);
    EXPECT_GE(live.outstanding_bytes,
              base.outstanding_bytes + 3000 * sizeof(float) +
                  5000 * sizeof(double));
    EXPECT_EQ(live.hits + live.misses, base.hits + base.misses + 2);
  }
  const auto after = Arena::aggregate_stats();
  EXPECT_EQ(after.outstanding, base.outstanding);
  EXPECT_EQ(after.outstanding_bytes, base.outstanding_bytes);
}

}  // namespace
