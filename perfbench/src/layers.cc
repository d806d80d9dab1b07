// The traced run. It replays each workload's inputs stage by stage through
// the layers' public functions, with a span around every call, and checks
// each replayed stage against the bytes the real pipeline produced. The
// same replay runs again in a re-exec under SZI_THREADS=1 for the _w1
// figures, and both halves digest the archives they minted.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/cuszi.hh"
#include "device/arena.hh"
#include "device/launch.hh"
#include "host.hh"
#include "huffman/huffman.hh"
#include "inputs.hh"
#include "lossless/orchestrate.hh"
#include "oracle.hh"
#include "predictor/autotune.hh"
#include "predictor/ginterp.hh"
#include "serve/serve.hh"
#include "serve_mix.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using szi::dev::Dim3;
using trace::Span;

/// Which archive format the workload's end-to-end operations use.
struct Formats {
  bool wrapped_compress = false;
  bool wrapped_decode = false;
};

Formats formats_of(const std::string& w) {
  if (w == "bulk-wrapped" || w == "random-access") return {true, true};
  if (w == "serve-closed") return {false, true};
  return {false, false};
}

/// The fields the traced run replays: the workload's own inputs.
std::vector<Job> replay_jobs(const Args& a) {
  if (a.workload == "bulk-wrapped") return bulk_jobs(a.seed);
  if (a.workload == "small-raw") return small_jobs(a.seed);
  if (a.workload == "random-access") return {random_access_job(a.seed)};
  auto corpus = serve_corpus(a.seed);
  std::vector<Job> jobs;
  for (auto& kind : corpus.by_kind)
    for (auto& j : kind) jobs.push_back(std::move(j));
  return jobs;
}

/// Exact counts gathered by the replay.
struct Counts {
  double elements = 0;
  double outliers = 0;
  double symbols = 0;       ///< Huffman-coded quant codes
  double stream_bytes = 0;  ///< their framed stream bytes
  double inner_bytes = 0;   ///< raw archive bytes fed to the wrapper
  double wrapped_bytes = 0;
  double segments[szi::lossless::kMethodCount] = {0, 0, 0};
  std::vector<std::uint64_t> digests;  ///< raw and wrapped, per job
};

/// The fixed SZI2 header (docs/FORMAT.md): magic u32 | precision u8 |
/// dims 3 x u64 | eb f64 | alpha f64 | cubic u8[3] | order u8[3] |
/// radius u16.
struct Header {
  Dim3 dims;
  double eb = 0;
  szi::predictor::InterpConfig cfg;
  int radius = 0;
};

Header parse_header(std::span<const std::byte> a) {
  if (a.size() < 53) throw std::runtime_error("archive shorter than its header");
  auto u64 = [&](std::size_t off) {
    std::uint64_t v;
    std::memcpy(&v, a.data() + off, sizeof v);
    return v;
  };
  Header h;
  h.dims = {u64(5), u64(13), u64(21)};
  std::memcpy(&h.eb, a.data() + 29, sizeof h.eb);
  std::memcpy(&h.cfg.alpha, a.data() + 37, sizeof h.cfg.alpha);
  for (std::size_t i = 0; i < 3; ++i) {
    h.cfg.cubic[i] =
        static_cast<szi::predictor::CubicKind>(static_cast<std::uint8_t>(a[45 + i]));
    h.cfg.dim_order[i] = static_cast<std::uint8_t>(a[48 + i]);
  }
  std::uint16_t radius;
  std::memcpy(&radius, a.data() + 51, sizeof radius);
  h.radius = radius;
  return h;
}

template <typename T>
std::span<const T> data_of(const Job& j) {
  if constexpr (std::is_same_v<T, float>) return j.f32;
  else return j.f64;
}

template <typename T>
std::vector<T> decode_raw(std::span<const std::byte> z) {
  if constexpr (std::is_same_v<T, float>) return szi::cuszi_decompress_f32(z);
  else return szi::cuszi_decompress_f64(z);
}

/// Replays one job: every compress stage, the lossless wrap, every decode
/// stage and every preview level, each against the real pipeline's bytes.
template <typename T>
void replay_job(const Job& j, Counts& c, Result& r, szi::dev::Workspace& ws) {
  namespace pr = szi::predictor;
  namespace hf = szi::huffman;
  namespace ll = szi::lossless;
  const auto data = data_of<T>(j);
  const auto dims = j.dims;
  const std::uint64_t bytes = j.bytes();
  const std::size_t n = data.size();
  const auto fail = [&](const std::string& what) {
    r.require(false, j.label + ": " + what);
  };

  // The archives the real pipelines produce.
  const auto raw = szi::cuszi_compress(data, dims, j.params, nullptr, ws);
  const auto wrapped =
      szi::cuszi_compress_bitcomp(data, dims, j.params, nullptr, ws);
  ws.reset();
  c.digests.push_back(fnv1a(raw));
  c.digests.push_back(fnv1a(wrapped));
  const auto segs = szi::cuszi_archive_segments(raw);
  const Header h = parse_header(raw);
  const std::span<const std::byte> raw_view(raw);

  // ---- compress stages ----
  {
    Span op("replay.compress", bytes);
    pr::ProfileResult prof;
    {
      Span s("predictor.autotune", bytes);
      prof = pr::autotune(data, dims, j.params.value, ws);
    }
    const bool rel = j.params.mode == szi::ErrorMode::Rel;
    const double eb = rel ? j.params.value * prof.value_range : j.params.value;
    auto cfg = prof.config;
    if (rel) cfg.alpha = pr::alpha_of_epsilon(j.params.value);
    if (eb != h.eb) fail("replayed error bound differs from the archive's");

    pr::GInterpLevelsT<T> fl;
    {
      Span s("predictor.predict", bytes);
      fl = pr::ginterp_compress_fused_levels(data, dims, eb, cfg,
                                             szi::quant::kDefaultRadius, ws);
    }
    c.elements += static_cast<double>(n);
    c.outliers += static_cast<double>(fl.pred.outliers.count());

    std::vector<hf::Codebook> books;
    {
      Span s("huffman.codebook");
      books = hf::build_level_books(fl.levels.histograms);
    }
    for (std::size_t i = 0; i < fl.levels.streams.size(); ++i) {
      const auto codes = fl.levels.streams[i];
      std::span<const std::byte> stream;
      {
        Span s("huffman.encode", codes.size() * sizeof(szi::quant::Code));
        stream = hf::encode_with_book_serial(codes, books[i],
                                             hf::kDefaultChunk, ws);
      }
      c.symbols += static_cast<double>(codes.size());
      c.stream_bytes += static_cast<double>(stream.size());
      const auto seg = std::find_if(segs.begin(), segs.end(), [&](auto& s) {
        return s.kind == 2 && s.level == i + 1;
      });
      if (seg == segs.end() || seg->size != stream.size() ||
          !std::equal(stream.begin(), stream.end(),
                      raw_view.subspan(seg->offset, seg->size).begin()))
        fail("replayed level stream differs from the archive's");
    }
    ws.reset();

    // The wrapper splits the raw archive at its segment boundaries, with
    // the header + directory as a leading segment.
    std::vector<std::pair<std::size_t, std::size_t>> parts{
        {0, segs.front().offset}};
    for (const auto& s : segs) parts.emplace_back(s.offset, s.size);
    const auto view = szi::bitcomp_parse_container(wrapped);
    if (view.segments.size() != parts.size())
      fail("wrapper segment count differs from the archive's");
    for (std::size_t k = 0; k < parts.size() && k < view.segments.size(); ++k) {
      const auto part = raw_view.subspan(parts[k].first, parts[k].second);
      ll::Method m;
      {
        Span s("lossless.choose", part.size());
        m = ll::choose_method(part, ll::LzssMode::Lazy, ws);
      }
      std::size_t zsize = 0;
      {
        Span s("lossless.lzss_encode", part.size());
        const auto t = ll::method_transform(part, m, ws);
        zsize = ll::lzss_compress(t, ll::kLzssBlock, ws, ll::LzssMode::Lazy).size();
      }
      ws.reset();
      c.segments[static_cast<std::size_t>(m)] += 1;
      if (view.segments[k].method != m || view.segments[k].size != zsize)
        fail("replayed wrapper segment differs from the archive's");
    }
    c.inner_bytes += static_cast<double>(raw.size());
    c.wrapped_bytes += static_cast<double>(wrapped.size());
  }

  // ---- decode stages, from the wrapped archive ----
  {
    Span op("replay.decompress", bytes);
    const auto view = szi::bitcomp_parse_container(wrapped);
    std::vector<std::byte> inner(raw.size());
    {
      Span s("lossless.lzss_decode", inner.size());
      std::size_t off = 0;
      for (std::size_t k = 0; k < view.segments.size(); ++k) {
        const auto len = static_cast<std::size_t>(view.segments[k].raw_size);
        if (off + len > inner.size()) break;
        const auto dec = ll::lzss_decompress(view.payloads[k]);
        ll::method_untransform(dec, view.segments[k].method,
                               std::span<std::byte>(inner).subspan(off, len));
        off += len;
      }
    }
    if (inner != raw) fail("replayed unwrap differs from the raw archive");

    std::vector<T> anchors(segs[0].count);
    std::memcpy(anchors.data(), raw.data() + segs[0].offset, segs[0].size);
    const std::size_t nout = segs[1].count;
    std::vector<std::uint64_t> idx(nout);
    std::vector<T> vals(nout);
    const std::byte* blob = raw.data() + segs[1].offset + sizeof(std::uint64_t);
    std::memcpy(idx.data(), blob, nout * sizeof(std::uint64_t));
    std::memcpy(vals.data(), blob + nout * sizeof(std::uint64_t), nout * sizeof(T));
    const szi::quant::OutlierViewT<T> outliers{idx, vals};

    std::vector<szi::quant::Code> codes(n, static_cast<szi::quant::Code>(h.radius));
    for (const auto& seg : segs) {
      if (seg.kind != 2) continue;
      const auto stream = raw_view.subspan(seg.offset, seg.size);
      std::span<const szi::quant::Code> syms;
      {
        Span s("huffman.decode", seg.count * sizeof(szi::quant::Code));
        syms = hf::decode(stream, ws);
      }
      if (syms.size() != seg.count) fail("level stream symbol count mismatch");
      {
        Span s("predictor.scatter", seg.count * sizeof(szi::quant::Code));
        pr::LevelScatterCursor cur(dims, seg.level);
        cur.advance(syms, syms.size(), codes);
      }
    }
    ws.reset();
    std::vector<T> out;
    {
      Span s("device.first_touch", n * sizeof(T));
      out = std::vector<T>(n);
    }
    {
      Span s("predictor.reconstruct", n * sizeof(T));
      pr::ginterp_decompress_into(codes, std::span<const T>(anchors), outliers,
                                  dims, h.eb, h.cfg, h.radius, std::span<T>(out),
                                  ws);
    }
    ws.reset();

    // Oracle: the replay must equal the library's decode, and both must
    // honour the bound.
    r.attempt();
    if (!same_bits<T>(out, decode_raw<T>(raw)))
      fail("replayed reconstruction differs from the library decode");
    const double bound = abs_bound(j.params, data);
    if (const auto bad = bound_violations(data, out, bound))
      r.fail(j.label + ": " + std::to_string(bad) + " values out of bound");

    const int max_level = pr::ginterp_level_count(dims) + 1;
    for (int level = 2; level <= max_level; ++level) {
      std::vector<T> p;
      {
        Span s("predictor.preview");
        p = pr::ginterp_decompress_to_level(codes, std::span<const T>(anchors),
                                            outliers, dims, h.eb, h.cfg,
                                            h.radius, level, ws);
        s.set_bytes(p.size() * sizeof(T));
      }
      ws.reset();
      r.attempt();
      if (!same_bits<T>(p, pr::ginterp_subsample(std::span<const T>(out), dims,
                                                 level)))
        r.fail(j.label + ": preview level " + std::to_string(level) +
               " differs from the subsampled decode");
    }
  }
}

void replay_all(const std::vector<Job>& jobs, Counts& c, Result& r) {
  szi::dev::Workspace ws;
  for (const auto& j : jobs) {
    if (j.is_f64()) replay_job<double>(j, c, r, ws);
    else replay_job<float>(j, c, r, ws);
  }
}

// ---- device probes ------------------------------------------------------

/// Pool-parallel memcpy over a 420 MiB buffer (1 MiB blocks), median of
/// three passes after a warm-up that faults both buffers in.
double memcpy_gbps() {
  constexpr std::size_t kBytes = 420ull << 20;
  constexpr std::size_t kBlock = 1 << 20;
  std::vector<std::byte> src(kBytes, std::byte{1}), dst(kBytes);
  std::vector<double> s;
  for (int rep = 0; rep < 4; ++rep) {
    const auto t0 = Clock::now();
    szi::dev::launch_linear(
        kBytes / kBlock,
        [&](std::size_t b) {
          std::memcpy(dst.data() + b * kBlock, src.data() + b * kBlock, kBlock);
        },
        1);
    if (rep > 0) s.push_back(since(t0));
  }
  if (dst[kBytes - 1] != std::byte{1}) throw std::runtime_error("memcpy probe");
  return static_cast<double>(kBytes) / median(s) / 1e9;
}

/// Mean cost of an empty launch over the pool (one index per worker).
double launch_overhead_us() {
  const std::size_t workers = pool_workers();
  constexpr int kLaunches = 2000;
  for (int i = 0; i < 100; ++i)
    szi::dev::launch_linear(workers, [](std::size_t) {}, 1);
  const auto t0 = Clock::now();
  for (int i = 0; i < kLaunches; ++i)
    szi::dev::launch_linear(workers, [](std::size_t) {}, 1);
  return since(t0) / kLaunches * 1e6;
}

/// Throughput metrics (the ones that get a _w1 twin), from span totals.
std::vector<std::pair<std::string, double>> throughput_metrics(
    const std::map<std::string, trace::Total>& t, double memcpy) {
  auto g = [&](const char* span) {
    const auto it = t.find(span);
    return it == t.end() ? 0.0 : it->second.gbps();
  };
  return {
      {"predictor.predict_gbps", g("predictor.predict")},
      {"predictor.reconstruct_gbps", g("predictor.reconstruct")},
      {"predictor.preview_gbps", g("predictor.preview")},
      {"huffman.encode_gbps", g("huffman.encode")},
      {"huffman.decode_gbps", g("huffman.decode")},
      {"lossless.lzss_encode_gbps", g("lossless.lzss_encode")},
      {"lossless.lzss_decode_gbps", g("lossless.lzss_decode")},
      {"device.first_touch_gbps", g("device.first_touch")},
      {"device.memcpy_gbps", memcpy},
  };
}

// ---- end-to-end passes --------------------------------------------------

struct PassTimes {
  double compress = 0;
  double decompress = 0;
};

/// The workload's end-to-end compress + full decode over every job, timed
/// per call, untraced.
template <typename T>
void e2e_job(const Job& j, Formats f, szi::dev::Workspace& ws, PassTimes& pt) {
  const auto data = data_of<T>(j);
  std::vector<std::byte> z;
  auto t0 = Clock::now();
  z = f.wrapped_compress
          ? szi::cuszi_compress_bitcomp(data, j.dims, j.params, nullptr, ws)
          : szi::cuszi_compress(data, j.dims, j.params, nullptr, ws);
  pt.compress += since(t0);
  ws.reset();
  if (f.wrapped_decode && !f.wrapped_compress) z = szi::bitcomp_wrap_archive(z);
  t0 = Clock::now();
  if constexpr (std::is_same_v<T, float>) {
    const auto y = f.wrapped_decode ? szi::cuszi_decompress_bitcomp_f32(z, ws)
                                    : szi::cuszi_decompress_f32(z, ws);
  } else {
    const auto y = f.wrapped_decode ? szi::cuszi_decompress_bitcomp_f64(z, ws)
                                    : szi::cuszi_decompress_f64(z, ws);
  }
  pt.decompress += since(t0);
  ws.reset();
}

PassTimes e2e_pass(const std::vector<Job>& jobs, Formats f) {
  szi::dev::Workspace ws;
  PassTimes pt;
  for (const auto& j : jobs) {
    if (j.is_f64()) e2e_job<double>(j, f, ws, pt);
    else e2e_job<float>(j, f, ws, pt);
  }
  return pt;
}

// ---- io probe -----------------------------------------------------------

struct IoProbe {
  double roi_read = 0, roi_size = 0;
  double preview_read = 0, preview_size = 0;
};

/// Seeded ROI boxes and every preview level against the raw and wrapped
/// archives of the largest f32 job, each result checked against the full
/// decode.
IoProbe io_probe(const std::vector<Job>& jobs, std::uint64_t seed, Result& r) {
  const Job* big = nullptr;
  for (const auto& j : jobs)
    if (!j.is_f64() && (!big || j.bytes() > big->bytes())) big = &j;
  IoProbe p;
  if (!big) return p;
  szi::dev::Workspace ws;
  const auto raw = szi::cuszi_compress(std::span<const float>(big->f32),
                                       big->dims, big->params, nullptr, ws);
  const auto wrapped = szi::bitcomp_wrap_archive(raw);
  const auto ref = szi::cuszi_decompress_f32(raw);
  const int max_level = szi::predictor::ginterp_level_count(big->dims) + 1;
  szi::datagen::Rng rng(seed ^ 0x10b0);
  for (const auto* a : {&raw, &wrapped}) {
    for (int i = 0; i < 8; ++i) {
      const auto box = draw_box(rng, big->dims, 16, 128);
      r.attempt();
      Span s("io.roi", box.ext.volume() * sizeof(float));
      const auto res = szi::cuszi_decompress_roi_f32(*a, box);
      p.roi_read += static_cast<double>(res.bytes_read);
      p.roi_size += static_cast<double>(a->size());
      if (!same_bits<float>(res.data, crop<float>(ref, big->dims, box)))
        r.fail(big->label + ": ROI differs from the cropped decode");
    }
    for (int level = 2; level <= max_level; ++level) {
      r.attempt();
      Span s("io.preview");
      const auto res = szi::cuszi_decompress_progressive_f32(*a, level);
      p.preview_read += static_cast<double>(res.bytes_read);
      p.preview_size += static_cast<double>(a->size());
      if (!same_bits<float>(res.data,
                            szi::predictor::ginterp_subsample(ref, big->dims, level)))
        r.fail(big->label + ": preview differs from the subsampled decode");
    }
  }
  return p;
}

// ---- serve probe --------------------------------------------------------

struct ServeProbe {
  double queue_p50_ms = 0;
  double service_p50_ms = 0;
  double coalesced_fraction = 0;
  double serve_p50_ms = 0;
  double direct_p50_ms = 0;
};

/// The direct-library equivalent of a serve request (what the service
/// would run for it), for the overhead comparison.
void run_direct(const ServeRequest& q, const ServeCorpus& corpus,
                const ServeRefs& refs, szi::dev::Workspace& ws) {
  const auto k = static_cast<std::size_t>(q.kind);
  const auto& j = corpus.by_kind[k][q.index];
  switch (q.kind) {
    case ServeKind::CompressF64:
      (void)szi::cuszi_compress(std::span<const double>(j.f64), j.dims,
                                j.params, nullptr, ws);
      break;
    case ServeKind::Decompress:
      (void)szi::cuszi_decompress_bitcomp_f32(refs.archive[k][q.index], ws);
      break;
    case ServeKind::Roi:
      (void)szi::cuszi_decompress_roi_f32(refs.archive[k][q.index], q.box);
      break;
    default:
      (void)szi::cuszi_compress(std::span<const float>(j.f32), j.dims,
                                j.params, nullptr, ws);
  }
  ws.reset();
}

/// A closed loop of `per_client` requests from each of cpu_cores() client
/// threads through one default Service, then the same requests straight
/// against the library from the same number of threads.
ServeProbe serve_probe(std::uint64_t seed, std::size_t per_client, Result& r) {
  const auto corpus = serve_corpus(seed);
  const auto refs = make_serve_refs(corpus);
  const unsigned clients = cpu_cores();
  std::vector<std::vector<ServeRequest>> reqs;
  for (unsigned c = 0; c < clients; ++c)
    reqs.push_back(serve_requests(seed, c, per_client, corpus));

  struct Log {
    std::vector<double> total_ms, queue_ms, service_ms, direct_ms;
    std::vector<std::string> failures;
    std::size_t compresses = 0;
  };
  std::vector<Log> logs(clients);
  szi::serve::ServiceStats stats;
  {
    szi::serve::Service svc;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        auto& log = logs[c];
        for (const auto& q : reqs[c]) {
          try {
            Span s("serve.request", payload_bytes(q, corpus));
            const auto t0 = Clock::now();
            const auto ticket = submit(svc, "probe", q, corpus, refs);
            const auto& resp = ticket.wait();
            log.total_ms.push_back(since(t0) * 1e3);
            log.queue_ms.push_back(resp.queue_seconds * 1e3);
            log.service_ms.push_back(resp.service_seconds * 1e3);
            if (is_compress(q.kind)) ++log.compresses;
            if (auto why = check_reply(resp, q, corpus, refs); !why.empty())
              log.failures.push_back(std::move(why));
          } catch (const std::exception& ex) {
            log.failures.push_back(ex.what());
          }
        }
      });
    for (auto& t : threads) t.join();
    svc.drain();
    stats = svc.stats();
  }
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        auto& log = logs[c];
        szi::dev::Workspace ws;
        for (const auto& q : reqs[c]) {
          try {
            Span s("serve.direct", payload_bytes(q, corpus));
            const auto t0 = Clock::now();
            run_direct(q, corpus, refs, ws);
            log.direct_ms.push_back(since(t0) * 1e3);
          } catch (const std::exception& ex) {
            log.failures.push_back(ex.what());
          }
        }
      });
    for (auto& t : threads) t.join();
  }

  std::vector<double> total, queue, service, direct;
  std::size_t compresses = 0;
  for (auto& log : logs) {
    r.attempt(2 * per_client);
    for (const auto& f : log.failures) r.fail(f);
    total.insert(total.end(), log.total_ms.begin(), log.total_ms.end());
    queue.insert(queue.end(), log.queue_ms.begin(), log.queue_ms.end());
    service.insert(service.end(), log.service_ms.begin(), log.service_ms.end());
    direct.insert(direct.end(), log.direct_ms.begin(), log.direct_ms.end());
    compresses += log.compresses;
  }
  ServeProbe p;
  p.queue_p50_ms = median(queue);
  p.service_p50_ms = median(service);
  p.coalesced_fraction =
      compresses ? static_cast<double>(stats.coalesced) / compresses : 0.0;
  p.serve_p50_ms = median(total);
  p.direct_p50_ms = median(direct);
  return p;
}

// ---- the SZI_THREADS=1 re-exec ------------------------------------------

struct ChildOutput {
  std::map<std::string, double> metrics;
  std::string digest;
};

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return out + "'";
}

ChildOutput run_child(const Args& a) {
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) throw std::runtime_error("cannot locate own executable");
  exe[len] = '\0';
  const std::string cmd =
      "SZI_THREADS=1 " + shell_quote(exe) + " --workload " +
      shell_quote(a.workload) + " --seed " + std::to_string(a.seed) +
      " --seconds " + std::to_string(a.seconds) + " --trace 1 --out-dir " +
      shell_quote(a.out_dir) + " --child-w1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (!pipe) throw std::runtime_error("cannot start the one-worker re-exec");
  ChildOutput out;
  char line[512];
  while (std::fgets(line, sizeof line, pipe)) {
    std::istringstream in(line);
    std::string kind, key;
    in >> kind >> key;
    if (kind == "metric") {
      double v = 0;
      in >> v;
      out.metrics[key] = v;
    } else if (kind == "digest") {
      out.digest = key;
    }
  }
  const int status = ::pclose(pipe);
  if (status != 0) throw std::runtime_error("one-worker re-exec failed");
  return out;
}

}  // namespace

int run_layers_child(const Args& args) {
  const double memcpy = memcpy_gbps();
  const auto jobs = replay_jobs(args);
  Counts c;
  Result r;
  trace::set_enabled(true);
  replay_all(jobs, c, r);
  trace::set_enabled(false);
  if (!r.correct()) {
    std::fprintf(stderr, "perfbench: one-worker replay failed\n");
    return 1;
  }
  for (const auto& [name, v] : throughput_metrics(trace::totals(trace::collect()), memcpy))
    std::printf("metric %s %.17g\n", name.c_str(), v);
  std::printf("digest %s\n", digest_hex(c.digests).c_str());
  return 0;
}

Result run_layers(const Args& args) {
  Result r;
  // Device probes and the one-worker half first, before this process
  // holds the workload's inputs.
  const double memcpy = memcpy_gbps();
  const double launch_us = launch_overhead_us();
  const ChildOutput w1 = run_child(args);

  const auto jobs = replay_jobs(args);
  const Formats formats = formats_of(args.workload);

  // Untraced end-to-end passes, for the layer-sum denominators and the
  // arena hit rate.
  const auto arena0 = szi::dev::Arena::aggregate_stats();
  PassTimes plain;
  for (int rep = 0; rep < 2; ++rep) {
    const auto a = e2e_pass(jobs, formats);
    plain.compress += a.compress / 2;
    plain.decompress += a.decompress / 2;
  }
  const auto arena1 = szi::dev::Arena::aggregate_stats();

  // The replay with its spans disabled (after one warm-up pass that fills
  // the arena and the caches), then traced: their ratio is the tracing
  // overhead of the run that yields the per-layer numbers.
  Counts c_off;
  replay_all(jobs, c_off, r);
  auto t0 = Clock::now();
  replay_all(jobs, c_off, r);
  const double replay_plain_s = since(t0);
  trace::set_enabled(true);
  Counts c;
  t0 = Clock::now();
  replay_all(jobs, c, r);
  const double replay_traced_s = since(t0);
  const IoProbe io = io_probe(jobs, args.seed, r);
  const ServeProbe sp = serve_probe(
      args.seed, args.workload == "serve-closed" ? 96 : 24, r);
  trace::set_enabled(false);

  const auto spans = trace::collect();
  const auto t = trace::totals(spans);
  const std::string trace_path = args.out_dir + "/trace-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
  r.require(trace::write_chrome_json(trace_path, spans),
            "cannot write " + trace_path);

  const auto digest = digest_hex(c.digests);
  r.require(digest == w1.digest,
            "archive digest differs between the pool run and the one-worker "
            "re-exec");

  auto secs = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.seconds;
  };
  auto mean_ms = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() || it->second.count == 0
               ? 0.0
               : it->second.seconds / static_cast<double>(it->second.count) * 1e3;
  };

  r.metric("predictor.autotune_ms", mean_ms("predictor.autotune"), "ms");
  r.metric("quant.outlier_fraction", c.elements ? c.outliers / c.elements : 0.0,
           "fraction");
  r.metric("huffman.codebook_ms", mean_ms("huffman.codebook"), "ms");
  r.metric("huffman.bits_per_code",
           c.symbols ? c.stream_bytes * 8.0 / c.symbols : 0.0, "bits");
  r.metric("lossless.choose_ms", mean_ms("lossless.choose"), "ms");
  r.metric("lossless.wrap_ratio",
           c.wrapped_bytes ? c.inner_bytes / c.wrapped_bytes : 0.0, "x");
  r.metric("lossless.segments.lzss", c.segments[0], "count");
  r.metric("lossless.segments.zero-rle", c.segments[1], "count");
  r.metric("lossless.segments.bitshuffle", c.segments[2], "count");

  // Serial layer seconds over the pipelined end-to-end seconds of the same
  // jobs (untraced passes). Lossless layers count only where the
  // workload's end-to-end format is wrapped.
  std::vector<double> comp{secs("predictor.autotune"), secs("predictor.predict"),
                           secs("huffman.codebook"), secs("huffman.encode")};
  if (formats.wrapped_compress) {
    comp.push_back(secs("lossless.choose"));
    comp.push_back(secs("lossless.lzss_encode"));
  }
  std::vector<double> decomp{secs("huffman.decode"), secs("predictor.scatter"),
                             secs("device.first_touch"),
                             secs("predictor.reconstruct")};
  if (formats.wrapped_decode) decomp.push_back(secs("lossless.lzss_decode"));
  r.metric("core.compress_layer_sum_ratio",
           layer_sum_ratio(comp, plain.compress), "x");
  r.metric("core.decompress_layer_sum_ratio",
           layer_sum_ratio(decomp, plain.decompress), "x");

  for (const auto& [name, v] : throughput_metrics(t, memcpy)) {
    r.metric(name, v, "GB/s");
    const auto it = w1.metrics.find(name);
    r.require(it != w1.metrics.end(), "one-worker re-exec lacks " + name);
    r.metric(name + "_w1", it == w1.metrics.end() ? 0.0 : it->second, "GB/s");
  }
  const double hits = static_cast<double>(arena1.hits - arena0.hits);
  const double misses = static_cast<double>(arena1.misses - arena0.misses);
  r.metric("device.arena_hit_rate",
           hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction");
  r.metric("device.launch_overhead_us", launch_us, "us");
  r.metric("io.roi_bytes_read_fraction",
           io.roi_size ? io.roi_read / io.roi_size : 0.0, "fraction");
  r.metric("io.preview_bytes_read_fraction",
           io.preview_size ? io.preview_read / io.preview_size : 0.0,
           "fraction");
  r.metric("serve.queue_p50_ms", sp.queue_p50_ms, "ms");
  r.metric("serve.service_p50_ms", sp.service_p50_ms, "ms");
  r.metric("serve.coalesced_fraction", sp.coalesced_fraction, "fraction");
  r.metric("serve.overhead_p50_ms", sp.serve_p50_ms - sp.direct_p50_ms, "ms");
  r.metric("trace_overhead",
           replay_plain_s > 0 ? replay_traced_s / replay_plain_s : 0.0, "x");

  r.info("cpu_cores", cpu_cores());
  r.info("llc_bytes", static_cast<double>(llc_bytes()));
  r.info("pool_workers", pool_workers());
  r.info("archive_digest", digest);
  r.info("archive_digest_w1", w1.digest);
  r.info("trace_file", trace_path);
  r.info("spans", static_cast<double>(spans.size()));
  r.info("serve_p50_ms", sp.serve_p50_ms);
  r.info("direct_p50_ms", sp.direct_p50_ms);
  r.info("e2e_compress_s", plain.compress);
  r.info("e2e_decompress_s", plain.decompress);
  r.info("replay_plain_s", replay_plain_s);
  r.info("replay_traced_s", replay_traced_s);
  return r;
}

}  // namespace perfbench
