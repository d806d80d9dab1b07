// Device substrate tests: pool scheduling, exception propagation, scan /
// reduce correctness, index arithmetic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "device/dims.hh"
#include "device/launch.hh"
#include "device/reduce.hh"
#include "device/scan.hh"
#include "device/thread_pool.hh"

namespace {

using namespace szi::dev;

TEST(Dims, LinearizeRoundTrip) {
  const Dim3 dims{7, 5, 3};
  for (std::size_t i = 0; i < dims.volume(); ++i) {
    const Coord3 c = delinearize(dims, i);
    EXPECT_EQ(linearize(dims, c.x, c.y, c.z), i);
  }
}

TEST(Dims, Rank) {
  EXPECT_EQ((Dim3{5, 1, 1}.rank()), 1);
  EXPECT_EQ((Dim3{5, 2, 1}.rank()), 2);
  EXPECT_EQ((Dim3{5, 1, 2}.rank()), 3);  // z > 1 forces rank 3
  EXPECT_EQ((Dim3{1, 1, 1}.rank()), 1);
}

TEST(Dims, GridFor) {
  const Dim3 g = grid_for({65, 8, 9}, {32, 8, 8});
  EXPECT_EQ(g, (Dim3{3, 1, 2}));
}

TEST(ThreadPool, CoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; }, 7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManySmallLaunches) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(round + 1, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(),
              static_cast<std::size_t>(round) * (round + 1) / 2);
  }
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   1000,
                   [&](std::size_t i) {
                     if (i == 567) throw std::runtime_error("boom");
                   },
                   1),
               std::runtime_error);
  // Pool must stay usable after a failed launch.
  std::atomic<int> n{0};
  pool.parallel_for(100, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, NestedLaunchRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> n{0};
  pool.parallel_for(8, [&](std::size_t) {
    // A kernel launching a kernel must not deadlock the pool.
    ThreadPool::instance().parallel_for(10, [&](std::size_t) { n++; });
  });
  EXPECT_EQ(n.load(), 80);
}

// Callers on separate threads launch into one pool at once (the serve
// layer's model: each request runs on its caller's thread); every caller
// must see exactly its own launches' results.
TEST(ThreadPool, ConcurrentCallersShareThePool) {
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kN = 20000;
  std::vector<std::vector<std::uint32_t>> out(
      kCallers, std::vector<std::uint32_t>(kN));
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      for (std::uint32_t round = 1; round <= 20; ++round)
        pool.parallel_for(
            kN,
            [&](std::size_t i) {
              out[c][i] += static_cast<std::uint32_t>(c + 1) * round;
            },
            64);
    });
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    const std::uint32_t want = static_cast<std::uint32_t>(c + 1) * 210;
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(out[c][i], want) << "caller " << c << " index " << i;
  }
}

// A throwing launch fails only its own caller: a launch running beside it
// on another thread completes every index and throws nothing.
TEST(ThreadPool, ConcurrentCallerExceptionStaysWithItsLaunch) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 20000;
  std::atomic<std::size_t> good{0};
  std::exception_ptr good_error;
  std::thread bystander([&] {
    try {
      for (int round = 0; round < 20; ++round)
        pool.parallel_for(kN, [&](std::size_t) { good++; }, 64);
    } catch (...) {
      good_error = std::current_exception();
    }
  });
  int thrown = 0;
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(
          kN,
          [&](std::size_t i) {
            if (i % 997 == 5) throw std::runtime_error("boom");
          },
          64);
    } catch (const std::runtime_error&) {
      ++thrown;
    }
  }
  bystander.join();
  EXPECT_EQ(thrown, 20);
  EXPECT_FALSE(good_error);
  EXPECT_EQ(good.load(), 20 * kN);
}

TEST(Scan, MatchesSerial) {
  std::vector<std::uint64_t> in(100001);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = (i * 37) % 11;
  std::vector<std::uint64_t> out(in.size());
  const auto total = exclusive_scan<std::uint64_t>(in, out, 1000);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], acc);
    acc += in[i];
  }
  EXPECT_EQ(total, acc);
}

TEST(Scan, EmptyAndSingle) {
  std::vector<int> in, out;
  EXPECT_EQ(exclusive_scan<int>(in, out), 0);
  in = {42};
  out.resize(1);
  EXPECT_EQ(exclusive_scan<int>(in, out), 42);
  EXPECT_EQ(out[0], 0);
}

TEST(Reduce, SumAndMinMax) {
  std::vector<float> v(54321);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<float>((i * 7919) % 1000) - 500.0f;
  const auto mm = minmax<float>(v);
  EXPECT_EQ(mm.min, *std::min_element(v.begin(), v.end()));
  EXPECT_EQ(mm.max, *std::max_element(v.begin(), v.end()));
  std::vector<double> dv(v.begin(), v.end());
  const auto s = reduce<double>(dv, 0.0, [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(s, std::accumulate(v.begin(), v.end(), 0.0));
}

TEST(Launch, BlocksCoverGrid) {
  std::atomic<std::size_t> count{0};
  std::vector<std::atomic<int>> hit(3 * 4 * 5);
  launch_blocks({3, 4, 5}, [&](const BlockIdx& b) {
    count++;
    hit[b.linear]++;
    EXPECT_EQ(b.linear, (b.z * 4 + b.y) * 3 + b.x);
  });
  EXPECT_EQ(count.load(), 60u);
  for (auto& h : hit) EXPECT_EQ(h.load(), 1);
}

// The decoders rely on exceptions thrown inside plain (synchronous) launch
// workers reaching the caller — e.g. huffman::decode_chunks throwing
// core::CorruptArchive from a pool worker.
TEST(Launch, LinearExceptionPropagatesToCaller) {
  EXPECT_THROW(
      launch_linear(
          10000,
          [](std::size_t i) {
            if (i == 8191) throw std::invalid_argument("bad element");
          },
          16),
      std::invalid_argument);
}

TEST(Launch, BlocksExceptionPropagatesToCaller) {
  EXPECT_THROW(launch_blocks({8, 8, 8},
                             [](const BlockIdx& b) {
                               if (b.linear == 300)
                                 throw std::runtime_error("bad block");
                             }),
               std::runtime_error);
}

TEST(Launch, LaunchUsableAfterWorkerException) {
  try {
    launch_linear(
        1000, [](std::size_t) { throw std::runtime_error("poison"); }, 8);
    FAIL() << "exception did not propagate";
  } catch (const std::runtime_error&) {
  }
  // The pool must survive a throwing launch: later launches run normally.
  std::atomic<std::size_t> count{0};
  launch_linear(1000, [&](std::size_t) { count++; }, 8);
  EXPECT_EQ(count.load(), 1000u);
}

}  // namespace
