#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/cuszi.hh"
#include "device/arena.hh"
#include "host.hh"
#include "inputs.hh"
#include "io/archive_source.hh"
#include "oracle.hh"
#include "predictor/ginterp.hh"
#include "serve/serve.hh"
#include "serve_mix.hh"
#include "stats.hh"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Everything an end-to-end run accumulates before it becomes metrics.
struct EndToEnd {
  std::vector<double> setup_s;
  Throughput compress;
  Throughput decompress;
  double raw_bytes = 0;      ///< input bytes of the distinct archives
  double archive_bytes = 0;  ///< their archive bytes
  std::vector<double> latency_ms;
  double request_seconds = 0;  ///< ops_per_s denominator unless per-job
  std::vector<std::uint64_t> digests;  ///< one per distinct archive
  double input_bytes = 0;
  /// Single-client workloads that repeat a fixed set of jobs: each job's
  /// bytes and the seconds of every repeat of its compress and decompress.
  /// When set, throughput and ops_per_s come from per-job medians.
  std::vector<double> job_bytes;
  std::vector<std::vector<double>> compress_s, decompress_s;
  /// Workloads whose only compresses happen at set-up: the rate of each
  /// set-up repetition; compress_gbps is their median.
  std::vector<double> setup_compress_gbps;

  void per_job(const std::vector<Job>& jobs) {
    for (const auto& j : jobs) job_bytes.push_back(static_cast<double>(j.bytes()));
    compress_s.resize(jobs.size());
    decompress_s.resize(jobs.size());
  }
};

void stamp_host(Result& r, double input_bytes) {
  const auto llc = llc_bytes();
  r.info("cpu_cores", cpu_cores());
  r.info("llc_bytes", static_cast<double>(llc));
  r.info("pool_workers", pool_workers());
  r.info("input_bytes", input_bytes);
  r.info("input_over_llc", llc ? input_bytes / static_cast<double>(llc) : 0.0);
}

void finish(const EndToEnd& e, Result& r) {
  const Tail t = tail(e.latency_ms);
  const bool per_job = !e.job_bytes.empty();
  double ops_per_s = e.request_seconds > 0
                         ? static_cast<double>(e.latency_ms.size()) /
                               e.request_seconds
                         : 0.0;
  double p50_ms = median(e.latency_ms), tail_ms = t.value;
  if (per_job) {
    // One pass over the jobs at their median times. Latency too is taken
    // per operation (job and direction) at its median: pooled, the median
    // would fall between two operations and the tail's rank would move
    // with the number of rotations that fit in the run.
    double pass_s = 0;
    std::vector<double> op_ms;
    for (const auto* runs : {&e.compress_s, &e.decompress_s})
      for (const auto& s : *runs)
        if (!s.empty()) {
          pass_s += median(s);
          op_ms.push_back(median(s) * 1e3);
        }
    ops_per_s = pass_s > 0 ? static_cast<double>(op_ms.size()) / pass_s : 0.0;
    p50_ms = median(op_ms);
    tail_ms = op_ms.empty() ? 0.0 : *std::max_element(op_ms.begin(), op_ms.end());
  }
  r.metric("setup_s", median(e.setup_s), "s");
  r.metric("compress_gbps",
           !e.setup_compress_gbps.empty() ? median(e.setup_compress_gbps)
           : per_job ? median_pass_gbps(e.job_bytes, e.compress_s)
                     : e.compress.gbps(),
           "GB/s");
  r.metric("decompress_gbps",
           per_job ? median_pass_gbps(e.job_bytes, e.decompress_s)
                   : e.decompress.gbps(),
           "GB/s");
  r.metric("ratio", e.archive_bytes > 0 ? e.raw_bytes / e.archive_bytes : 0.0,
           "x");
  r.metric("p50_ms", p50_ms, "ms");
  r.metric("tail_ms", tail_ms, "ms");
  r.metric("ops_per_s", ops_per_s, "1/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.info("samples", static_cast<double>(t.samples));
  r.info("tail_pct", t.pct);
  r.info("tail_beyond", static_cast<double>(t.beyond));
  r.info("compress_ops", static_cast<double>(e.compress.ops));
  r.info("decompress_ops", static_cast<double>(e.decompress.ops));
  r.info("failed_ops_fraction",
         r.attempted() ? static_cast<double>(r.failed()) /
                             static_cast<double>(r.attempted())
                       : 0.0);
  r.info("archive_digest", digest_hex(e.digests));
  stamp_host(r, e.input_bytes);
}

/// Adds a per-kind latency summary (p50, p99 and its sample count).
void kind_latency(Result& r, const std::string& kind,
                  const std::vector<double>& ms) {
  const Tail t = tail(ms);
  r.info(kind + "_p50_ms", median(ms));
  r.info(kind + "_p99_ms", t.value);
  r.info(kind + "_p99_pct", t.pct);
  r.info(kind + "_samples", static_cast<double>(t.samples));
}

// ---- bulk-wrapped ---------------------------------------------------------

Result bulk_wrapped(const Args& a) {
  // Each decode returns a fresh 151 MB field: reuse the freed pages rather
  // than fault new ones in (device.first_touch_gbps measures that cost).
  retain_freed_memory();
  Result r;
  EndToEnd e;
  const auto jobs = bulk_jobs(a.seed, a.input_cache);
  std::vector<double> eb;
  for (const auto& j : jobs) {
    eb.push_back(abs_bound(j.params, j.f32));
    e.input_bytes += static_cast<double>(j.bytes());
  }
  szi::dev::Workspace ws;

  // Set-up: one wrapped round trip of the first field (pool start-up,
  // arena warm-up, page faults of the pipeline's buffers).
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const auto& j = jobs[0];
    const auto z = szi::cuszi_compress_bitcomp(j.f32, j.dims, j.params,
                                               nullptr, ws);
    const auto y = szi::cuszi_decompress_bitcomp_f32(z, ws);
    ws.reset();
    e.setup_s.push_back(since(t0));
  }

  const auto deadline = Clock::now() + std::chrono::duration<double>(a.seconds);
  e.per_job(jobs);
  bool first = true;
  do {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& j = jobs[i];
      r.attempt();
      std::vector<std::byte> z;
      try {
        const auto t0 = Clock::now();
        z = szi::cuszi_compress_bitcomp(j.f32, j.dims, j.params, nullptr, ws);
        const double dt = since(t0);
        ws.reset();
        e.compress.add(static_cast<double>(j.bytes()), dt);
        e.latency_ms.push_back(dt * 1e3);
        e.compress_s[i].push_back(dt);
      } catch (const std::exception& ex) {
        r.fail(j.label + " compress: " + ex.what());
        continue;
      }
      const auto h = fnv1a(z);
      if (first) {
        e.digests.push_back(h);
        e.raw_bytes += static_cast<double>(j.bytes());
        e.archive_bytes += static_cast<double>(z.size());
        r.info(j.label + "_ratio", static_cast<double>(j.bytes()) /
                                       static_cast<double>(z.size()));
      } else if (h != e.digests[i]) {
        r.fail(j.label + ": archive differs from the first rotation's");
      }
      r.attempt();
      try {
        const auto t0 = Clock::now();
        const auto y = szi::cuszi_decompress_bitcomp_f32(z, ws);
        const double dt = since(t0);
        ws.reset();
        e.decompress.add(static_cast<double>(j.bytes()), dt);
        e.latency_ms.push_back(dt * 1e3);
        e.decompress_s[i].push_back(dt);
        if (const auto bad = bound_violations(j.f32, y, eb[i]))
          r.fail(j.label + ": " + std::to_string(bad) + " values out of bound");
      } catch (const std::exception& ex) {
        r.fail(j.label + " decompress: " + ex.what());
      }
    }
    first = false;
  } while (Clock::now() < deadline);
  finish(e, r);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    r.info(jobs[i].label + "_compress_ms", median(e.compress_s[i]) * 1e3);
    r.info(jobs[i].label + "_decompress_ms", median(e.decompress_s[i]) * 1e3);
  }
  return r;
}

// ---- small-raw ------------------------------------------------------------

/// One raw compress + full decode of `j`, both timed, the decode checked
/// against the bound. Returns the archive (empty on failure).
std::vector<std::byte> raw_round_trip(const Job& j, std::size_t i, double eb,
                                      szi::dev::Workspace& ws, Result& r,
                                      EndToEnd* e) {
  std::vector<std::byte> z;
  r.attempt();
  try {
    const auto t0 = Clock::now();
    z = j.is_f64() ? szi::cuszi_compress(std::span<const double>(j.f64), j.dims,
                                         j.params, nullptr, ws)
                   : szi::cuszi_compress(std::span<const float>(j.f32), j.dims,
                                         j.params, nullptr, ws);
    const double dt = since(t0);
    ws.reset();
    if (e) {
      e->compress.add(static_cast<double>(j.bytes()), dt);
      e->compress_s[i].push_back(dt);
      e->latency_ms.push_back(dt * 1e3);
    }
  } catch (const std::exception& ex) {
    r.fail(j.label + " compress: " + ex.what());
    return {};
  }
  r.attempt();
  try {
    std::size_t bad = 0;
    const auto t0 = Clock::now();
    double dt = 0;
    if (j.is_f64()) {
      const auto y = szi::cuszi_decompress_f64(z, ws);
      dt = since(t0);
      bad = bound_violations(j.f64, y, eb);
    } else {
      const auto y = szi::cuszi_decompress_f32(z, ws);
      dt = since(t0);
      bad = bound_violations(j.f32, y, eb);
    }
    ws.reset();
    if (e) {
      e->decompress.add(static_cast<double>(j.bytes()), dt);
      e->decompress_s[i].push_back(dt);
      e->latency_ms.push_back(dt * 1e3);
    }
    if (bad)
      r.fail(j.label + ": " + std::to_string(bad) + " values out of bound");
  } catch (const std::exception& ex) {
    r.fail(j.label + " decompress: " + ex.what());
  }
  return z;
}

double job_bound(const Job& j) {
  return j.is_f64() ? abs_bound(j.params, j.f64) : abs_bound(j.params, j.f32);
}

Result small_raw(const Args& a) {
  Result r;
  EndToEnd e;
  const auto jobs = small_jobs(a.seed);
  std::vector<double> eb;
  for (const auto& j : jobs) {
    eb.push_back(job_bound(j));
    e.input_bytes += static_cast<double>(j.bytes());
  }
  e.per_job(jobs);
  szi::dev::Workspace ws;

  // Set-up: one untimed pass over every field (pool, arena, codebooks).
  Result warm;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i)
      (void)raw_round_trip(jobs[i], i, eb[i], ws, warm, nullptr);
    e.setup_s.push_back(since(t0));
  }
  r.attempt(warm.attempted());
  if (warm.failed()) r.fail("set-up pass: " + std::to_string(warm.failed()) +
                            " failed operations");

  const auto deadline = Clock::now() + std::chrono::duration<double>(a.seconds);
  bool first = true;
  do {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto z = raw_round_trip(jobs[i], i, eb[i], ws, r, &e);
      if (z.empty()) continue;
      const auto h = fnv1a(z);
      if (first) {
        e.digests.push_back(h);
        e.raw_bytes += static_cast<double>(jobs[i].bytes());
        e.archive_bytes += static_cast<double>(z.size());
      } else if (i < e.digests.size() && h != e.digests[i]) {
        r.fail(jobs[i].label + ": archive differs from the first rotation's");
      }
    }
    first = false;
  } while (Clock::now() < deadline);
  finish(e, r);
  return r;
}

// ---- random-access --------------------------------------------------------

void write_file(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

Result random_access(const Args& a) {
  Result r;
  EndToEnd e;
  const Job job = random_access_job(a.seed);
  const double eb = job_bound(job);
  const auto dims = job.dims;
  e.input_bytes = static_cast<double>(job.bytes());
  szi::dev::Workspace ws;

  const std::string base = a.out_dir + "/ra-" + std::to_string(::getpid());
  const std::string raw_path = base + "-raw.szi";
  const std::string wrapped_path = base + "-wrapped.szi";

  // Set-up: mint both archives (timed as compress), write them, map them.
  std::vector<std::byte> raw, wrapped;
  std::unique_ptr<szi::io::MmapSource> raw_src, wrapped_src;
  for (int rep = 0; rep < 5; ++rep) {
    raw_src.reset();
    wrapped_src.reset();
    const auto t0 = Clock::now();
    raw = szi::cuszi_compress(std::span<const float>(job.f32), dims,
                              job.params, nullptr, ws);
    wrapped = szi::cuszi_compress_bitcomp(job.f32, dims, job.params, nullptr, ws);
    e.setup_compress_gbps.push_back(2.0 * static_cast<double>(job.bytes()) / since(t0) / 1e9);
    ws.reset();
    write_file(raw_path, raw);
    write_file(wrapped_path, wrapped);
    raw_src = std::make_unique<szi::io::MmapSource>(raw_path);
    wrapped_src = std::make_unique<szi::io::MmapSource>(wrapped_path);
    e.setup_s.push_back(since(t0));
  }
  e.raw_bytes = 2.0 * static_cast<double>(job.bytes());
  e.archive_bytes = static_cast<double>(raw.size() + wrapped.size());
  e.digests = {fnv1a(raw), fnv1a(wrapped)};
  {
    // The chooser's per-segment methods decide what a wrapped ROI decodes.
    std::string methods;
    for (const auto& s : szi::bitcomp_parse_container(wrapped).segments)
      methods += std::string(methods.empty() ? "" : ",") +
                 szi::lossless::method_name(s.method);
    r.info("wrapped_segment_methods", methods);
  }

  // Oracle references, outside timing: the full decode (itself checked
  // against the bound) and its subsample at every preview level.
  const int max_level = szi::predictor::ginterp_level_count(dims) + 1;
  r.attempt();
  const auto ref = szi::cuszi_decompress_f32(raw);
  if (const auto bad = bound_violations(job.f32, ref, eb))
    r.fail("reference decode: " + std::to_string(bad) + " values out of bound");
  std::map<int, std::vector<float>> ref_preview;
  for (int l = 2; l <= max_level; ++l)
    ref_preview[l] = szi::predictor::ginterp_subsample(ref, dims, l);

  const auto requests = random_access_requests(a.seed, dims, max_level, 1 << 16);
  std::vector<double> roi_ms, preview_ms;
  double roi_read = 0, roi_size = 0, preview_read = 0, preview_size = 0;
  std::vector<std::byte> scratch;
  const auto deadline = Clock::now() + std::chrono::duration<double>(a.seconds);
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    const auto& q = requests[i % requests.size()];
    auto& src = q.wrapped ? *wrapped_src : *raw_src;
    r.attempt();
    try {
      std::vector<float> got;
      std::size_t read = 0;
      const auto t0 = Clock::now();
      if (q.roi) {
        auto res = szi::cuszi_decompress_roi_f32(src, q.box);
        got = std::move(res.data);
        read = res.bytes_read;
      } else {
        const auto bytes = src.view(0, src.size(), scratch);
        auto res = szi::cuszi_decompress_progressive_f32(bytes, q.level);
        got = std::move(res.data);
        read = res.bytes_read;
      }
      const double dt = since(t0);
      e.decompress.add(static_cast<double>(got.size() * sizeof(float)), dt);
      e.latency_ms.push_back(dt * 1e3);
      (q.roi ? roi_ms : preview_ms).push_back(dt * 1e3);
      (q.roi ? roi_read : preview_read) += static_cast<double>(read);
      (q.roi ? roi_size : preview_size) += static_cast<double>(src.size());
      const bool ok =
          q.roi ? same_bits<float>(got, crop<float>(ref, dims, q.box))
                : same_bits<float>(got, ref_preview[q.level]);
      if (!ok)
        r.fail(std::string(q.roi ? "roi" : "preview") +
               " result differs from the reference decode");
    } catch (const std::exception& ex) {
      r.fail(std::string(q.roi ? "roi: " : "preview: ") + ex.what());
    }
  }
  raw_src.reset();
  wrapped_src.reset();
  std::remove(raw_path.c_str());
  std::remove(wrapped_path.c_str());

  e.request_seconds = e.decompress.seconds;
  finish(e, r);
  kind_latency(r, "roi", roi_ms);
  kind_latency(r, "preview", preview_ms);
  r.info("roi_bytes_read_fraction", roi_size > 0 ? roi_read / roi_size : 0.0);
  r.info("preview_bytes_read_fraction",
         preview_size > 0 ? preview_read / preview_size : 0.0);
  return r;
}

}  // namespace

namespace {

Result serve_closed(const Args& a) {
  Result r;
  EndToEnd e;
  const auto corpus = serve_corpus(a.seed);
  const auto refs = make_serve_refs(corpus);
  for (std::size_t k = 0; k < kServeKinds; ++k)
    for (std::size_t i = 0; i < corpus.by_kind[k].size(); ++i) {
      const auto& j = corpus.by_kind[k][i];
      e.input_bytes += static_cast<double>(j.bytes());
      e.digests.push_back(fnv1a(refs.archive[k][i]));
      if (is_compress(static_cast<ServeKind>(k))) {
        e.raw_bytes += static_cast<double>(j.bytes());
        e.archive_bytes += static_cast<double>(refs.archive[k][i].size());
      }
    }

  // Set-up: start a service, serve one request of every kind, shut down.
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    szi::serve::Service svc;
    std::vector<szi::serve::Ticket> tickets;
    for (std::size_t k = 0; k < kServeKinds; ++k) {
      ServeRequest q;
      q.kind = static_cast<ServeKind>(k);
      q.box = {{0, 0, 0}, {16, 16, 16}};
      tickets.push_back(submit(svc, "setup", q, corpus, refs));
    }
    for (const auto& t : tickets) (void)t.wait();
    svc.drain();
    e.setup_s.push_back(since(t0));
  }

  const unsigned clients = cpu_cores();
  struct ClientLog {
    std::vector<double> ms;
    std::vector<double> kind_ms[kServeKinds];
    double compress_bytes = 0, decode_bytes = 0;
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
  };
  std::vector<ClientLog> logs(clients);
  szi::serve::Service svc;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(a.seconds);
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        auto& log = logs[c];
        const auto reqs = serve_requests(a.seed, c, 1 << 15, corpus);
        const std::string tenant = "client-" + std::to_string(c);
        for (std::size_t i = 0; Clock::now() < deadline; ++i) {
          const auto& q = reqs[i % reqs.size()];
          ++log.attempted;
          try {
            const auto t0 = Clock::now();
            const auto ticket = submit(svc, tenant, q, corpus, refs);
            const auto& resp = ticket.wait();
            const double ms = since(t0) * 1e3;
            log.ms.push_back(ms);
            log.kind_ms[static_cast<std::size_t>(q.kind)].push_back(ms);
            (is_compress(q.kind) ? log.compress_bytes : log.decode_bytes) +=
                static_cast<double>(payload_bytes(q, corpus));
            if (auto why = check_reply(resp, q, corpus, refs); !why.empty())
              log.failures.push_back(std::move(why));
          } catch (const std::exception& ex) {
            log.failures.push_back(ex.what());
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double wall = since(start);
  svc.drain();

  double compress_bytes = 0, decode_bytes = 0;
  std::vector<double> kind_ms[kServeKinds];
  for (auto& log : logs) {
    r.attempt(log.attempted);
    for (const auto& f : log.failures) r.fail(f);
    e.latency_ms.insert(e.latency_ms.end(), log.ms.begin(), log.ms.end());
    for (std::size_t k = 0; k < kServeKinds; ++k)
      kind_ms[k].insert(kind_ms[k].end(), log.kind_ms[k].begin(),
                        log.kind_ms[k].end());
    compress_bytes += log.compress_bytes;
    decode_bytes += log.decode_bytes;
  }
  // Closed loop with `clients` threads: rates are per wall second.
  e.compress.bytes = compress_bytes;
  e.compress.seconds = wall;
  e.decompress.bytes = decode_bytes;
  e.decompress.seconds = wall;
  e.request_seconds = wall;
  finish(e, r);
  r.info("clients", clients);
  r.info("serve_rps", static_cast<double>(e.latency_ms.size()) / wall);
  kind_latency(r, "serve", e.latency_ms);
  for (std::size_t k = 0; k < kServeKinds; ++k)
    kind_latency(r, std::string("serve.") +
                        serve_kind_name(static_cast<ServeKind>(k)),
                 kind_ms[k]);
  const auto st = svc.stats();
  r.info("serve_waves", static_cast<double>(st.waves));
  r.info("serve_coalesced", static_cast<double>(st.coalesced));
  return r;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "bulk-wrapped" || name == "small-raw" ||
         name == "random-access" || name == "serve-closed";
}

Result run_end_to_end(const Args& args) {
  if (args.workload == "bulk-wrapped") return bulk_wrapped(args);
  if (args.workload == "small-raw") return small_raw(args);
  if (args.workload == "random-access") return random_access(args);
  return serve_closed(args);
}

// ---- Result ---------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Result::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, json_string(value));
}

void Result::fail(const std::string& why) {
  ++failed_;
  if (notes_.size() < 8) notes_.push_back(why);
}

void Result::require(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  if (notes_.size() < 8) notes_.push_back(what);
}

std::string Result::report_json() const {
  std::string s = "{\"report\": {";
  for (const auto& [k, v] : info_) s += json_string(k) + ": " + v + ", ";
  s += "\"notes\": [";
  for (std::size_t i = 0; i < notes_.size(); ++i)
    s += (i ? ", " : "") + json_string(notes_[i]);
  return s + "]}}";
}

std::string Result::result_json() const {
  std::string s = "{\"correct\": ";
  s += correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    s += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
         json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}}";
}

}  // namespace perfbench
