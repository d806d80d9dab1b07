// szi::serve — the multi-tenant service must never change *what* runs:
// every response here is checked byte-for-byte against the direct library
// call. The concurrency tests (concurrent submit/drain, failure isolation,
// the admission byte gate) are the tsan targets.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/arena.hh"
#include "device/thread_pool.hh"
#include "serve/serve.hh"

namespace szi {
namespace {

using serve::ServeConfig;
using serve::Service;
using serve::Status;
using serve::Ticket;

CompressParams rel3() { return {ErrorMode::Rel, 1e-3}; }

/// A small smooth field (cheap to compress, still exercises every level).
Field small_field(std::size_t nx = 24, std::size_t ny = 20,
                  std::size_t nz = 16, float phase = 0.f) {
  Field f("serve", "synth", {nx, ny, nz});
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x)
        f.at(x, y, z) = std::sin(0.3f * float(x) + phase) +
                        std::cos(0.2f * float(y)) * float(z + 1) * 0.05f;
  return f;
}

TEST(Serve, CompressBytesIdenticalToDirectCall) {
  Service svc;
  std::vector<Field> fields;
  for (int i = 0; i < 6; ++i)
    fields.push_back(small_field(24 + 4 * std::size_t(i % 3), 20, 16,
                                 0.1f * float(i)));
  std::vector<Ticket> tickets;
  for (const auto& f : fields)
    tickets.push_back(svc.submit_compress("t0", f.view(), f.dims, rel3()));
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const auto& r = tickets[i].wait();
    ASSERT_EQ(r.status, Status::Ok) << r.error;
    const auto direct =
        cuszi_compress(fields[i].view(), fields[i].dims, rel3());
    EXPECT_EQ(r.archive, direct) << "field " << i;
    EXPECT_EQ(r.bytes_in, fields[i].bytes());
    EXPECT_EQ(r.bytes_out, direct.size());
  }
}

TEST(Serve, DecompressAndRoiMatchDirectCalls) {
  Service svc;
  const Field f = small_field();
  const auto raw = cuszi_compress(f.view(), f.dims, rel3());
  const auto direct = cuszi_decompress_f32(raw);
  const RoiBox box{{3, 2, 1}, {8, 6, 5}};
  const auto roi_direct = cuszi_decompress_roi_f32(raw, box);

  // Raw and 'BBC2'-wrapped archives, dispatched on the magic.
  for (const auto& archive : {raw, bitcomp_wrap_archive(raw)}) {
    auto td = svc.submit_decompress("t0", archive);
    auto troi = svc.submit_roi("t0", archive, box);

    const auto& rd = td.wait();
    ASSERT_EQ(rd.status, Status::Ok) << rd.error;
    EXPECT_EQ(rd.data, direct);

    const auto& rr = troi.wait();
    ASSERT_EQ(rr.status, Status::Ok) << rr.error;
    EXPECT_EQ(rr.data, roi_direct.data);
  }
}

TEST(Serve, F64RoundTripThroughService) {
  Service svc;
  std::vector<double> data(24 * 20 * 16);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = std::sin(0.01 * double(i));
  const dev::Dim3 dims{24, 20, 16};
  auto tc = svc.submit_compress_f64("t0", data, dims, rel3());
  const auto& rc = tc.wait();
  ASSERT_EQ(rc.status, Status::Ok) << rc.error;
  EXPECT_EQ(rc.archive, cuszi_compress(std::span<const double>(data), dims,
                                       rel3()));
  auto tdec = svc.submit_decompress_f64("t0", rc.archive);
  const auto& rdec = tdec.wait();
  ASSERT_EQ(rdec.status, Status::Ok) << rdec.error;
  EXPECT_EQ(rdec.data_f64, cuszi_decompress_f64(rc.archive));
  auto tw = svc.submit_decompress_f64("t0", bitcomp_wrap_archive(rc.archive));
  const auto& rw = tw.wait();
  ASSERT_EQ(rw.status, Status::Ok) << rw.error;
  EXPECT_EQ(rw.data_f64, rdec.data_f64);
}

TEST(Serve, InlineModeProducesIdenticalBytes) {
  Service svc;
  const Field f = small_field();
  auto t = svc.submit_compress("t0", f.view(), f.dims, rel3());
  EXPECT_TRUE(t.ready());  // inline: completed inside submit()
  const auto& r = t.wait();
  ASSERT_EQ(r.status, Status::Ok) << r.error;
  EXPECT_EQ(r.archive, cuszi_compress(f.view(), f.dims, rel3()));
  auto td = svc.submit_decompress("t0", r.archive);
  EXPECT_EQ(td.wait().data, cuszi_decompress_f32(r.archive));
}

TEST(Serve, FailedRequestDoesNotPoisonItsWave) {
  Service svc;
  const Field good = small_field();
  Field corrupt = small_field();
  std::fill(corrupt.data.begin(), corrupt.data.end(), 1.f);
  // Constant field under Rel: value range 0 -> non-positive absolute bound.
  const auto direct = cuszi_compress(good.view(), good.dims, rel3());

  // The corrupt field runs on one thread while good ones run on three others.
  constexpr int kGoodThreads = 3;
  constexpr int kPerThread = 4;
  Ticket bad;
  std::vector<std::vector<Ticket>> goods(kGoodThreads);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    bad = svc.submit_compress("t0", corrupt.view(), corrupt.dims, rel3());
  });
  for (int t = 0; t < kGoodThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        goods[t].push_back(
            svc.submit_compress("t0", good.view(), good.dims, rel3()));
    });
  for (auto& th : threads) th.join();

  const auto& b = bad.wait();
  EXPECT_EQ(b.status, Status::Failed);
  EXPECT_NE(b.error.find("error bound"), std::string::npos) << b.error;
  for (const auto& mine : goods)
    for (const auto& t : mine) {
      const auto& r = t.wait();
      ASSERT_EQ(r.status, Status::Ok) << r.error;
      EXPECT_EQ(r.archive, direct);
    }
  const auto s = svc.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, std::uint64_t(1 + kGoodThreads * kPerThread));
}

TEST(Serve, AdmissionRejectModeRejectsOverBudget) {
  ServeConfig cfg;
  cfg.workspace_budget_bytes = 1;  // nothing fits
  cfg.over_budget = ServeConfig::OverBudget::Reject;
  Service svc(cfg);
  const Field f = small_field();
  auto t = svc.submit_compress("t0", f.view(), f.dims, rel3());
  const auto& r = t.wait();
  EXPECT_EQ(r.status, Status::Rejected);
  EXPECT_NE(r.error.find("budget"), std::string::npos);
  const auto s = svc.stats();
  EXPECT_EQ(s.admission_rejects, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(svc.tenant_stats("t0").rejected, 1u);
}

TEST(Serve, AdmissionQueueModeRunsLoneRequestOverBudget) {
  ServeConfig cfg;
  cfg.workspace_budget_bytes = 1;  // no estimate ever fits
  cfg.over_budget = ServeConfig::OverBudget::Queue;
  Service svc(cfg);
  const Field f = small_field();
  // Nothing else is in flight, so waiting could only starve: it runs now.
  auto t = svc.submit_compress("t0", f.view(), f.dims, rel3());
  const auto& r = t.wait();
  ASSERT_EQ(r.status, Status::Ok) << r.error;
  EXPECT_EQ(r.archive, cuszi_compress(f.view(), f.dims, rel3()));
  const auto s = svc.stats();
  EXPECT_EQ(s.admission_deferrals, 0u);
  EXPECT_EQ(s.admission_rejects, 0u);
  EXPECT_EQ(s.completed, 1u);
}

TEST(Serve, AdmissionQueueModeSplitsWavesButCompletesAll) {
  const Field big = small_field(96, 96, 96);
  const Field small = small_field();
  ServeConfig cfg;
  // Fits the big request alone, never the big and the small one together.
  cfg.workspace_budget_bytes =
      Service::estimate_workspace_bytes(big.bytes()) + 1;
  cfg.over_budget = ServeConfig::OverBudget::Queue;
  Service svc(cfg);
  const auto big_direct = cuszi_compress(big.view(), big.dims, rel3());
  const auto small_direct = cuszi_compress(small.view(), small.dims, rel3());

  // Thread A submits the big field; once it is admitted, this thread
  // submits the small one, which must wait for A to retire. A round where
  // A finished before the small request arrived defers nothing; retry it.
  std::uint64_t rounds = 0;
  while (rounds < 8 && svc.stats().admission_deferrals == 0) {
    ++rounds;
    Ticket ta;
    std::thread a([&] {
      ta = svc.submit_compress("t0", big.view(), big.dims, rel3());
    });
    while (svc.stats().submitted < 2 * rounds - 1) std::this_thread::yield();
    const auto tb = svc.submit_compress("t1", small.view(), small.dims, rel3());
    a.join();
    const auto& ra = ta.wait();
    const auto& rb = tb.wait();
    ASSERT_EQ(ra.status, Status::Ok) << ra.error;
    ASSERT_EQ(rb.status, Status::Ok) << rb.error;
    EXPECT_EQ(ra.archive, big_direct);
    EXPECT_EQ(rb.archive, small_direct);
    if (svc.stats().admission_deferrals > 0) {
      EXPECT_GT(rb.queue_seconds, 0.0);  // the wait shows in the response
    }
  }
  svc.drain();
  const auto s = svc.stats();
  EXPECT_EQ(s.completed, 2 * rounds);
  EXPECT_GT(s.admission_deferrals, 0u);  // the second caller waited
  EXPECT_EQ(s.rejected, 0u);
}

TEST(Serve, ConcurrentSubmitAndDrainFromManyTenants) {
  Service svc;
  const Field f = small_field();
  const auto archive = cuszi_compress(f.view(), f.dims, rel3());
  const auto direct = cuszi_decompress_f32(archive);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> tenants;
  for (int t = 0; t < kThreads; ++t) {
    tenants.emplace_back([&, t] {
      const std::string name = "tenant" + std::to_string(t);
      // 4 x 12 mixed requests: each runs on its tenant's thread, all four
      // tenants at once over the shared pool and arena.
      std::vector<std::pair<int, Ticket>> mine;
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 3 == 0)
          mine.emplace_back(i, svc.submit_decompress(name, archive));
        else
          mine.emplace_back(i, svc.submit_compress(name, f.view(), f.dims,
                                                   rel3()));
      }
      for (auto& [i, tk] : mine) {
        const auto& r = tk.wait();
        if (i % 3 == 0) {
          if (r.data != direct) ++mismatches;
        } else {
          if (r.archive != archive) ++mismatches;
        }
      }
    });
  }
  for (auto& th : tenants) th.join();
  svc.drain();
  EXPECT_EQ(mismatches.load(), 0);
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, std::uint64_t(kThreads * kPerThread));
  EXPECT_EQ(s.completed, std::uint64_t(kThreads * kPerThread));
  EXPECT_EQ(s.failed, 0u);
  for (int t = 0; t < kThreads; ++t) {
    const auto ts = svc.tenant_stats("tenant" + std::to_string(t));
    EXPECT_EQ(ts.requests, std::uint64_t(kPerThread));
    EXPECT_GT(ts.bytes_in, 0u);
    EXPECT_GT(ts.bytes_out, 0u);
    EXPECT_GE(ts.busy_seconds, 0.0);
  }
}

TEST(Serve, PerTenantAccountingSeparatesTenants) {
  Service svc;
  const Field f = small_field();
  auto a = svc.submit_compress("alice", f.view(), f.dims, rel3());
  auto b1 = svc.submit_compress("bob", f.view(), f.dims, rel3());
  auto b2 = svc.submit_compress("bob", f.view(), f.dims, rel3());
  (void)a.wait();
  (void)b1.wait();
  (void)b2.wait();
  EXPECT_EQ(svc.tenant_stats("alice").requests, 1u);
  EXPECT_EQ(svc.tenant_stats("bob").requests, 2u);
  EXPECT_EQ(svc.tenant_stats("bob").bytes_in, 2 * f.bytes());
  EXPECT_EQ(svc.tenant_stats("nobody").requests, 0u);
  EXPECT_EQ(svc.all_tenant_stats().size(), 2u);
  EXPECT_GT(svc.stats().arena_high_water_bytes, 0u);
}

TEST(Serve, StatsCountEveryExecutedRequestAndNoCoalescing) {
  Service svc;
  const Field good = small_field();
  Field corrupt = small_field();
  std::fill(corrupt.data.begin(), corrupt.data.end(), 1.f);
  const auto c = svc.submit_compress("t0", good.view(), good.dims, rel3());
  ASSERT_EQ(c.wait().status, Status::Ok) << c.wait().error;
  const auto d = svc.submit_decompress("t0", c.wait().archive);
  const auto bad =
      svc.submit_compress("t0", corrupt.view(), corrupt.dims, rel3());
  EXPECT_EQ(d.wait().status, Status::Ok);
  EXPECT_EQ(bad.wait().status, Status::Failed);
  const auto s = svc.stats();
  EXPECT_EQ(s.waves, 3u);  // one execution per request, failed ones too
  EXPECT_EQ(s.waves, s.completed);
  EXPECT_EQ(s.coalesced, 0u);

  // A rejected request never executes.
  ServeConfig cfg;
  cfg.workspace_budget_bytes = 1;
  cfg.over_budget = ServeConfig::OverBudget::Reject;
  Service strict(cfg);
  const auto r = strict.submit_compress("t0", good.view(), good.dims, rel3());
  EXPECT_EQ(r.wait().status, Status::Rejected);
  EXPECT_EQ(strict.stats().waves, 0u);
  EXPECT_EQ(strict.stats().coalesced, 0u);
}

TEST(Serve, DrainWaitsForInFlightCallsOnOtherThreads) {
  Service svc;
  const Field big = small_field(96, 96, 96);
  Ticket t;
  std::thread caller(
      [&] { t = svc.submit_compress("t0", big.view(), big.dims, rel3()); });
  // submitted ticks in the same critical section that puts the request in
  // flight, so drain() below must wait for it to retire.
  while (svc.stats().submitted < 1) std::this_thread::yield();
  svc.drain();
  const auto s = svc.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(svc.tenant_stats("t0").requests, 1u);
  caller.join();
  ASSERT_EQ(t.wait().status, Status::Ok) << t.wait().error;
  EXPECT_EQ(t.wait().archive, cuszi_compress(big.view(), big.dims, rel3()));
}

TEST(Serve, DestructionDrainsAcceptedRequests) {
  const Field f = small_field();
  std::vector<Ticket> tickets;
  {
    Service svc;
    for (int i = 0; i < 10; ++i)
      tickets.push_back(svc.submit_compress("t0", f.view(), f.dims, rel3()));
  }  // destructor must complete everything
  for (auto& t : tickets) {
    EXPECT_TRUE(t.ready());
    EXPECT_EQ(t.wait().status, Status::Ok);
  }
}

}  // namespace
}  // namespace szi
