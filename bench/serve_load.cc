// Load bench for szi::serve — the service-layer counterpart of
// bench/scaling.cc.
//
// One mixed workload — f32 compresses over three size classes, f64
// compresses, full decompresses, and ROI decodes — driven two ways:
//   open-loop    a deterministic Poisson arrival schedule (fixed seed,
//                600/s) taken in schedule order by one sender thread per
//                core (the handler pool a front end runs the inline service
//                on). Each request is timed from its *scheduled* arrival, so
//                a request that finds every sender busy carries that wait in
//                its latency; lateness (actual send - scheduled arrival)
//                reports how far behind the generator ran.
//   closed-loop  one client per core, each sending its next request as soon
//                as the previous one completes: the service's maximum
//                throughput (saturation).
//
// Byte-identity is enforced two ways:
//   1. In-process: every compress response is memcmp'd against the direct
//      cuszi_compress() call, every decompress against cuszi_decompress.
//   2. Cross-worker-count: the pool reads SZI_THREADS once per process, so
//      the parent re-executes itself with `--child` under SZI_THREADS =
//      1, 2, 4, 8 and asserts the FNV-1a hash over all open-loop responses
//      (in schedule order) matches the 1-worker reference.
//
// Writes BENCH_serve.json at the repo root. `--smoke` runs a tiny workload
// with no children and no ledger — the CI crash gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/thread_pool.hh"
#include "serve/serve.hh"

namespace {
using namespace szi;
using serve::Service;
using serve::Status;
using serve::Ticket;
using Clock = std::chrono::steady_clock;

constexpr int kSweep[] = {1, 2, 4, 8};
constexpr std::uint64_t kSeed = 42;
constexpr double kArrivalsPerSec = 600.0;
// 1200 requests per run leave at least ten samples beyond the p99.
constexpr int kRequests = 1200;
constexpr int kSmokeRequests = 32;

std::uint64_t fnv1a(const void* p, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The fixed asset set every request draws from: three f32 size classes,
/// one f64 field, and pre-built archives for the decompress/ROI legs.
struct Assets {
  std::vector<Field> f32_fields;                   // small / medium / large
  std::vector<std::vector<std::byte>> f32_direct;  // direct-call archives
  std::vector<double> f64_data;
  dev::Dim3 f64_dims;
  std::vector<std::byte> f64_direct;
  std::vector<float> decomp_direct;  // direct decode of f32_direct[0]
  RoiBox roi_box;
  std::vector<float> roi_direct;
  CompressParams params{ErrorMode::Rel, 1e-3};
};

Field synth_field(std::size_t nx, std::size_t ny, std::size_t nz,
                  float phase) {
  Field f("serve", "synth", {nx, ny, nz});
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x)
        f.at(x, y, z) = std::sin(0.21f * float(x) + phase) +
                        std::cos(0.13f * float(y)) * std::sin(0.08f * float(z));
  return f;
}

Assets build_assets() {
  Assets a;
  a.f32_fields.push_back(synth_field(24, 20, 16, 0.0f));
  a.f32_fields.push_back(synth_field(48, 40, 32, 0.5f));
  a.f32_fields.push_back(synth_field(96, 64, 48, 1.0f));
  for (const auto& f : a.f32_fields)
    a.f32_direct.push_back(cuszi_compress(f.view(), f.dims, a.params));

  a.f64_dims = {32, 24, 16};
  a.f64_data.resize(a.f64_dims.volume());
  for (std::size_t i = 0; i < a.f64_data.size(); ++i)
    a.f64_data[i] = std::sin(0.017 * double(i));
  a.f64_direct = cuszi_compress(std::span<const double>(a.f64_data),
                                a.f64_dims, a.params);

  a.decomp_direct = cuszi_decompress_f32(a.f32_direct[0]);
  a.roi_box = RoiBox{{8, 6, 4}, {12, 10, 8}};
  a.roi_direct = cuszi_decompress_roi_f32(a.f32_direct[1], a.roi_box).data;
  return a;
}

/// Request kinds: 0-2 compress f32 (size class = kind), 3 compress f64,
/// 4 decompress, 5 ROI; weighted ~55% f32 compress, 10% f64 compress, 25%
/// decompress, 10% ROI.
std::discrete_distribution<int> kind_mix() {
  return std::discrete_distribution<int>({25, 20, 10, 10, 25, 10});
}

/// One scheduled arrival of the open loop.
struct Arrival {
  int kind;
  double at_seconds;
};

/// Deterministic open-loop schedule: Poisson gaps over the kind mix.
std::vector<Arrival> build_schedule(int n) {
  std::mt19937_64 rng(kSeed);
  std::exponential_distribution<double> gap(kArrivalsPerSec);
  auto kind = kind_mix();
  std::vector<Arrival> plan;
  plan.reserve(n);
  double t = 0;
  for (int i = 0; i < n; ++i) {
    t += gap(rng);
    plan.push_back({kind(rng), t});
  }
  return plan;
}

Ticket submit(Service& svc, const Assets& a, int kind) {
  switch (kind) {
    case 0:
    case 1:
    case 2: {
      const Field& f = a.f32_fields[std::size_t(kind)];
      return svc.submit_compress("load", f.view(), f.dims, a.params);
    }
    case 3:
      return svc.submit_compress_f64("load", a.f64_data, a.f64_dims,
                                     a.params);
    case 4:
      return svc.submit_decompress("load", a.f32_direct[0]);
    default:
      return svc.submit_roi("load", a.f32_direct[1], a.roi_box);
  }
}

/// One request's record: its kind, its response, and its timings.
struct Outcome {
  int kind = 0;
  Ticket ticket;
  double latency_ms = 0;  ///< from scheduled arrival (closed loop: send)
  double late_ms = 0;     ///< send - scheduled arrival (open loop only)
};

struct ScenarioResult {
  std::string name;
  unsigned clients = 0;
  double wall_seconds = 0;
  std::size_t requests = 0, ok = 0, failed = 0, rejected = 0;
  std::size_t bytes_in = 0, bytes_out = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double late_p50_ms = 0, late_p99_ms = 0, late_max_ms = 0;
  serve::ServiceStats stats;
  bool byte_identical = true;
  std::uint64_t response_hash = 0;  ///< FNV over responses, request order
};

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * double(sorted.size()))) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Checks every response against the direct calls and fills the counts,
/// percentiles and response hash.
void summarize(const Assets& a, const std::vector<Outcome>& outcomes,
               ScenarioResult& res) {
  std::vector<double> latencies, lateness;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& o : outcomes) {
    const auto& r = o.ticket.wait();
    ++res.requests;
    res.bytes_in += r.bytes_in;
    res.bytes_out += r.bytes_out;
    lateness.push_back(o.late_ms);
    if (r.status == Status::Rejected) {
      ++res.rejected;
      continue;
    }
    if (r.status == Status::Failed) {
      ++res.failed;
      continue;
    }
    ++res.ok;
    latencies.push_back(o.latency_ms);
    switch (o.kind) {
      case 0:
      case 1:
      case 2:
        res.byte_identical = res.byte_identical &&
                             r.archive == a.f32_direct[std::size_t(o.kind)];
        h = fnv1a(r.archive.data(), r.archive.size(), h);
        break;
      case 3:
        res.byte_identical = res.byte_identical && r.archive == a.f64_direct;
        h = fnv1a(r.archive.data(), r.archive.size(), h);
        break;
      case 4:
        res.byte_identical = res.byte_identical && r.data == a.decomp_direct;
        h = fnv1a(r.data.data(), r.data.size() * sizeof(float), h);
        break;
      default:
        res.byte_identical = res.byte_identical && r.data == a.roi_direct;
        h = fnv1a(r.data.data(), r.data.size() * sizeof(float), h);
    }
  }
  res.response_hash = h;
  std::sort(latencies.begin(), latencies.end());
  std::sort(lateness.begin(), lateness.end());
  res.p50_ms = percentile(latencies, 0.50);
  res.p95_ms = percentile(latencies, 0.95);
  res.p99_ms = percentile(latencies, 0.99);
  res.late_p50_ms = percentile(lateness, 0.50);
  res.late_p99_ms = percentile(lateness, 0.99);
  res.late_max_ms = lateness.empty() ? 0 : lateness.back();
}

ScenarioResult run_open_loop(const Assets& a, const std::vector<Arrival>& plan,
                             unsigned senders) {
  ScenarioResult res;
  res.name = "open-loop";
  res.clients = senders;
  Service svc;
  std::vector<Outcome> outcomes(plan.size());
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  {
    // Each free sender takes the next arrival in schedule order and sends it
    // when it is due — or at once, late, when it became free after that.
    std::vector<std::thread> pool;
    for (unsigned s = 0; s < senders; ++s)
      pool.emplace_back([&] {
        for (std::size_t i = next++; i < plan.size(); i = next++) {
          const auto due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(plan[i].at_seconds));
          std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          Outcome& o = outcomes[i];
          o.kind = plan[i].kind;
          o.ticket = submit(svc, a, o.kind);
          o.late_ms = ms_between(due, sent);
          o.latency_ms = ms_between(due, Clock::now());
        }
      });
    for (auto& t : pool) t.join();
  }
  res.wall_seconds = ms_between(start, Clock::now()) / 1e3;
  summarize(a, outcomes, res);
  res.stats = svc.stats();
  return res;
}

ScenarioResult run_closed_loop(const Assets& a, unsigned clients,
                               int requests) {
  ScenarioResult res;
  res.name = "closed-loop";
  res.clients = clients;
  Service svc;
  const std::size_t per_client =
      (static_cast<std::size_t>(requests) + clients - 1) / clients;
  std::vector<Outcome> outcomes(per_client * clients);
  const auto start = Clock::now();
  {
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < clients; ++c)
      pool.emplace_back([&, c] {
        std::mt19937_64 rng(kSeed + 1 + c);
        auto kind = kind_mix();
        for (std::size_t i = 0; i < per_client; ++i) {
          Outcome& o = outcomes[c * per_client + i];
          o.kind = kind(rng);
          const auto sent = Clock::now();
          o.ticket = submit(svc, a, o.kind);
          o.latency_ms = ms_between(sent, Clock::now());
        }
      });
    for (auto& t : pool) t.join();
  }
  res.wall_seconds = ms_between(start, Clock::now()) / 1e3;
  summarize(a, outcomes, res);
  res.stats = svc.stats();
  return res;
}

unsigned core_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

int run_child(const char* outfile) {
  const Assets a = build_assets();
  const auto res = run_open_loop(a, build_schedule(kRequests), core_count());
  FILE* out = std::fopen(outfile, "w");
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", outfile);
    return 1;
  }
  std::fprintf(out, "workers=%u hash=%016" PRIx64 " identical=%d failed=%zu\n",
               dev::ThreadPool::instance().worker_count(), res.response_hash,
               res.byte_identical ? 1 : 0, res.failed);
  std::fclose(out);
  return res.byte_identical && res.failed == 0 ? 0 : 1;
}

std::string scenario_json(const ScenarioResult& r, bool open_loop,
                          bool last) {
  const double wall = r.wall_seconds > 0 ? r.wall_seconds : 1.0;
  char late[160] = "";
  if (open_loop)
    std::snprintf(late, sizeof late,
                  "     \"late_p50_ms\": %.3f, \"late_p99_ms\": %.3f, "
                  "\"late_max_ms\": %.3f,\n",
                  r.late_p50_ms, r.late_p99_ms, r.late_max_ms);
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "    {\"scenario\": \"%s\", \"clients\": %u, \"requests\": %zu, "
      "\"ok\": %zu, \"failed\": %zu, \"rejected\": %zu,\n"
      "     \"wall_seconds\": %.4f, \"requests_per_second\": %.1f, "
      "\"in_mb_per_second\": %.2f, \"out_mb_per_second\": %.2f,\n"
      "     \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f,\n"
      "%s"
      "     \"arena_high_water_bytes\": %zu, \"byte_identical\": %s}%s\n",
      r.name.c_str(), r.clients, r.requests, r.ok, r.failed, r.rejected,
      r.wall_seconds, double(r.requests) / wall,
      double(r.bytes_in) / 1e6 / wall, double(r.bytes_out) / 1e6 / wall,
      r.p50_ms, r.p95_ms, r.p99_ms, late, r.stats.arena_high_water_bytes,
      r.byte_identical ? "true" : "false", last ? "" : ",");
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (argc == 3 && std::strcmp(argv[1], "--child") == 0)
    return run_child(argv[2]);

  const unsigned cores = core_count();
  const int requests = smoke ? kSmokeRequests : kRequests;
  std::printf("serve_load: %d requests per run, open loop Poisson %.0f/s and "
              "closed loop, %u client(s), mixed compress/decompress/ROI, "
              "%u core(s)\n",
              requests, kArrivalsPerSec, cores, cores);

  const Assets a = build_assets();
  std::vector<ScenarioResult> scenarios;
  scenarios.push_back(run_open_loop(a, build_schedule(requests), cores));
  scenarios.push_back(run_closed_loop(a, cores, requests));

  bool all_identical = true;
  for (const auto& s : scenarios) {
    std::printf("  %-11s %5.2f s  %6.1f req/s  p50 %6.3f ms  p95 %6.3f ms  "
                "p99 %6.3f ms  identical %s\n",
                s.name.c_str(), s.wall_seconds,
                s.wall_seconds > 0 ? double(s.requests) / s.wall_seconds : 0.0,
                s.p50_ms, s.p95_ms, s.p99_ms, s.byte_identical ? "yes" : "NO");
    all_identical = all_identical && s.byte_identical && s.failed == 0;
  }
  std::printf("  open-loop generator late p50 %.3f ms  p99 %.3f ms  "
              "max %.3f ms\n",
              scenarios[0].late_p50_ms, scenarios[0].late_p99_ms,
              scenarios[0].late_max_ms);

  if (smoke) {
    std::printf("smoke: %s\n", all_identical ? "ok" : "FAILED");
    return all_identical ? 0 : 1;
  }

  // Cross-worker-count golden pinning: same workload, SZI_THREADS sweep via
  // re-exec (the pool is a read-once singleton), every response hash must
  // match the 1-worker reference.
  struct ChildResult {
    unsigned workers = 0;
    std::uint64_t hash = 0;
    int identical = 0;
    std::size_t failed = 0;
  };
  std::vector<ChildResult> children;
  for (const int k : kSweep) {
    const std::string tmp =
        std::string(argv[0]) + ".child" + std::to_string(k) + ".txt";
    const std::string cmd = "SZI_THREADS=" + std::to_string(k) + " '" +
                            argv[0] + "' --child '" + tmp + "'";
    std::printf("\n[%d worker(s)] %s\n", k, cmd.c_str());
    std::fflush(stdout);
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "error: child failed at SZI_THREADS=%d\n", k);
      return 1;
    }
    FILE* in = std::fopen(tmp.c_str(), "r");
    ChildResult c;
    if (!in || std::fscanf(in, "workers=%u hash=%" SCNx64 " identical=%d "
                           "failed=%zu",
                           &c.workers, &c.hash, &c.identical, &c.failed) != 4) {
      std::fprintf(stderr, "error: unparsable child output %s\n", tmp.c_str());
      if (in) std::fclose(in);
      return 1;
    }
    std::fclose(in);
    std::remove(tmp.c_str());
    children.push_back(c);
    std::printf("  workers=%u hash=%016" PRIx64 " identical=%d\n", c.workers,
                c.hash, c.identical);
  }
  bool sweep_identical = true;
  for (const auto& c : children)
    sweep_identical = sweep_identical && c.identical == 1 &&
                      c.hash == children.front().hash && c.failed == 0;
  std::printf("\nbyte-identical across worker counts: %s\n",
              sweep_identical ? "yes" : "NO");

  std::string json;
  json += "{\n  \"bench\": \"serve_load\",\n";
  json += "  \"workload\": \"" + std::to_string(kRequests) +
          " requests per run: 55% f32 compress (3 size classes), 10% f64 "
          "compress, 25% decompress, 10% ROI; open loop: Poisson " +
          std::to_string(int(kArrivalsPerSec)) +
          "/s sent by one thread per core, latency from scheduled arrival; "
          "closed loop: one client per core\",\n";
  json += "  \"cpu_cores\": " + std::to_string(cores) + ",\n";
  json += std::string("  \"byte_identical_across_workers\": ") +
          (sweep_identical ? "true" : "false") + ",\n";
  json += "  \"worker_sweep\": [1, 2, 4, 8],\n";
  json += "  \"scenarios\": [\n";
  json += scenario_json(scenarios[0], /*open_loop=*/true, /*last=*/false);
  json += scenario_json(scenarios[1], /*open_loop=*/false, /*last=*/true);
  json += "  ]\n}\n";
  bench::write_ledger("BENCH_serve.json", json);
  return all_identical && sweep_identical ? 0 : 1;
}
