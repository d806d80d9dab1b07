#include "cli/cli.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>

#include "baselines/registry.hh"
#include "core/cuszi.hh"
#include "core/timer.hh"
#include "io/archive_source.hh"
#include "io/bin_io.hh"
#include "metrics/stats.hh"
#include "serve/serve.hh"

namespace szi::cli {

namespace {

double parse_double(const std::string& s, const std::string& flag) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("");
    return v;
  } catch (...) {
    throw std::invalid_argument("bad number for " + flag + ": " + s);
  }
}

/// Stage breakdown for --stages. When the pipeline fused the histogram into
/// the predict kernel there is no separate histogram pass to time — the two
/// are reported as one fused stage rather than as a zero-second pass.
void print_stages(const StageTimings& t) {
  if (t.histogram_fused) {
    std::printf(
        "stages: predict+histogram (fused) %.4f s | codebook %.4f s | "
        "encode %.4f s | total %.4f s\n",
        t.predict, t.codebook, t.encode, t.total);
  } else {
    std::printf(
        "stages: predict %.4f s | histogram %.4f s | codebook %.4f s | "
        "encode %.4f s | total %.4f s\n",
        t.predict, t.histogram, t.codebook, t.encode, t.total);
  }
}

/// Decode-side breakdown for --stages after -x.
void print_stages(const DecodeTimings& t) {
  std::printf(
      "stages: unwrap (lzss) %.4f s | huffman %.4f s | reconstruct %.4f s | "
      "total %.4f s\n",
      t.unwrap, t.huffman, t.reconstruct, t.total);
}

std::size_t parse_size(const std::string& s, const std::string& flag) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size() || v <= 0) throw std::invalid_argument("");
    return static_cast<std::size_t>(v);
  } catch (...) {
    throw std::invalid_argument("bad dimension for " + flag + ": " + s);
  }
}

/// --roi x0:x1,y0:y1,z0:z1 — half-open ranges per axis, all three required
/// (use 0:NZ for an axis the box spans fully).
RoiBox parse_roi(const std::string& s) {
  unsigned long long v[6];
  int consumed = 0;
  if (std::sscanf(s.c_str(), "%llu:%llu,%llu:%llu,%llu:%llu%n", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &consumed) != 6 ||
      static_cast<std::size_t>(consumed) != s.size())
    throw std::invalid_argument(
        "bad --roi (expected x0:x1,y0:y1,z0:z1): " + s);
  for (int a = 0; a < 3; ++a)
    if (v[2 * a + 1] <= v[2 * a])
      throw std::invalid_argument("empty --roi range: " + s);
  RoiBox box;
  box.lo = {static_cast<std::size_t>(v[0]), static_cast<std::size_t>(v[2]),
            static_cast<std::size_t>(v[4])};
  box.ext = {static_cast<std::size_t>(v[1] - v[0]),
             static_cast<std::size_t>(v[3] - v[2]),
             static_cast<std::size_t>(v[5] - v[4])};
  return box;
}

/// Per-segment size/ratio lines for --stages on a level-segmented (SZI2)
/// archive. Other archives have no directory — silent.
void print_segments(std::span<const std::byte> bytes) {
  std::vector<SegmentInfo> segs;
  try {
    segs = cuszi_archive_segments(bytes);
  } catch (...) {
    return;  // not a cusz-i archive
  }
  std::uint64_t total = 0;
  for (const auto& s : segs) total += s.size;
  for (const auto& s : segs) {
    const double pct =
        total > 0 ? 100.0 * static_cast<double>(s.size) /
                        static_cast<double>(total)
                  : 0.0;
    if (s.kind == 2) {
      std::printf("segment: level %u | %llu symbols | %llu bytes (%.1f%%)\n",
                  static_cast<unsigned>(s.level),
                  static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.size), pct);
    } else {
      std::printf("segment: %s | %llu items | %llu bytes (%.1f%%)\n",
                  s.kind == 0   ? "anchors"
                  : s.kind == 1 ? "outliers"
                                : "tile index",
                  static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.size), pct);
    }
  }
}

/// Per-wrapper-segment lossless-method/ratio lines for --info and --stages
/// on a de-redundancy ('BBC2') archive. Other archives are silent; a
/// corrupt wrapper is left for the decode path to report.
void print_wrap_segments(std::span<const std::byte> bytes) {
  std::uint32_t magic = 0;
  if (bytes.size() >= sizeof(magic))
    std::memcpy(&magic, bytes.data(), sizeof(magic));
  if (magic != kBitcompWrapMagicV2) return;
  WrapContainerView view;
  try {
    view = bitcomp_parse_container(bytes);
  } catch (...) {
    return;
  }
  for (std::size_t i = 0; i < view.segments.size(); ++i) {
    const auto& s = view.segments[i];
    const double ratio = s.size > 0 ? static_cast<double>(s.raw_size) /
                                          static_cast<double>(s.size)
                                    : 0.0;
    std::printf("wrap segment %zu: %s | %llu -> %llu bytes (%.2fx)\n", i,
                lossless::method_name(s.method),
                static_cast<unsigned long long>(s.raw_size),
                static_cast<unsigned long long>(s.size), ratio);
  }
}

/// --verify after -z: prints PSNR and max error. An Abs or Rel bound is
/// then checked, resolved as the compressors resolve it (Rel: the value
/// times the input's value range); the result is the exit code, 1 when the
/// bound is broken. Other modes are reported unchecked.
template <typename T>
int verify(std::span<const T> original, std::span<const T> decoded,
           const CompressParams& p) {
  const auto d = metrics::distortion(original, decoded);
  const bool checked = p.mode == ErrorMode::Abs || p.mode == ErrorMode::Rel;
  std::printf("verify: PSNR %.2f dB, max err %.4e%s\n", d.psnr, d.max_err,
              checked ? "" : " (bound not checked)");
  if (!checked) return 0;
  const double eb = p.mode == ErrorMode::Rel
                        ? p.value * metrics::value_range(original)
                        : p.value;
  if (metrics::error_bounded(original, decoded, eb)) return 0;
  std::fprintf(stderr, "szi: verify: error bound %.4e broken (max err %.4e)\n",
               eb, d.max_err);
  return 1;
}

/// --serve-bench: an in-process probe of the szi::serve layer. Deterministic
/// Poisson arrivals over a mixed workload (two f32 compress size classes,
/// decompress, ROI), sent from this thread; every response checked
/// byte-identical against the direct library call. Latency runs from each
/// request's scheduled send, so a request sent late behind a slow one carries
/// that wait; the generator's lateness is printed beside it. Returns nonzero
/// on any mismatch or failure.
int run_serve_bench(std::size_t n) {
  using Clock = std::chrono::steady_clock;
  const auto ms_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  CompressParams params{ErrorMode::Rel, 1e-3};

  auto synth = [](std::size_t nx, std::size_t ny, std::size_t nz) {
    Field f("serve", "bench", {nx, ny, nz});
    for (std::size_t i = 0; i < f.data.size(); ++i)
      f.data[i] = std::sin(0.013f * float(i)) + std::cos(0.0041f * float(i));
    return f;
  };
  const Field small = synth(24, 20, 16);
  const Field medium = synth(48, 40, 32);
  const auto small_arc = cuszi_compress(small.view(), small.dims, params);
  const auto medium_arc = cuszi_compress(medium.view(), medium.dims, params);
  const auto decomp_direct = cuszi_decompress_f32(small_arc);
  const RoiBox box{{8, 6, 4}, {12, 10, 8}};
  const auto roi_direct = cuszi_decompress_roi_f32(medium_arc, box).data;

  std::mt19937_64 rng(42);
  std::exponential_distribution<double> gap(600.0);
  std::discrete_distribution<int> kind({35, 30, 25, 10});

  serve::Service svc;
  std::printf("serve-bench: %zu requests, Poisson 600/s\n", n);
  std::vector<std::pair<int, serve::Ticket>> tickets;
  tickets.reserve(n);
  std::vector<double> lat, late;
  lat.reserve(n);
  late.reserve(n);
  const auto start = Clock::now();
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gap(rng);
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(t));
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    const int k = kind(rng);
    switch (k) {
      case 0:
        tickets.emplace_back(
            k, svc.submit_compress("cli", small.view(), small.dims, params));
        break;
      case 1:
        tickets.emplace_back(
            k, svc.submit_compress("cli", medium.view(), medium.dims, params));
        break;
      case 2:
        tickets.emplace_back(k, svc.submit_decompress("cli", small_arc));
        break;
      default:
        tickets.emplace_back(k, svc.submit_roi("cli", medium_arc, box));
    }
    const auto done = Clock::now();
    late.push_back(ms_between(due, sent));
    if (tickets.back().second.wait().status == serve::Status::Ok)
      lat.push_back(ms_between(due, done));
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  bool identical = true;
  std::size_t failed = 0;
  for (const auto& [k, tk] : tickets) {
    const auto& r = tk.wait();
    if (r.status != serve::Status::Ok) {
      ++failed;
      continue;
    }
    switch (k) {
      case 0: identical = identical && r.archive == small_arc; break;
      case 1: identical = identical && r.archive == medium_arc; break;
      case 2: identical = identical && r.data == decomp_direct; break;
      default: identical = identical && r.data == roi_direct;
    }
  }
  auto pct = [](std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx =
        static_cast<std::size_t>(std::ceil(q * double(v.size()))) - 1;
    return v[std::min(idx, v.size() - 1)];
  };
  const auto s = svc.stats();
  std::printf("  %.2f s | %.1f req/s | p50 %.3f ms | p95 %.3f ms | "
              "p99 %.3f ms (from scheduled send)\n",
              wall, wall > 0 ? double(n) / wall : 0.0, pct(lat, 0.50),
              pct(lat, 0.95), pct(lat, 0.99));
  std::printf("  generator late p50 %.3f ms | p99 %.3f ms | max %.3f ms\n",
              pct(late, 0.50), pct(late, 0.99), pct(late, 1.0));
  std::printf("  executed %llu | failed %zu | arena high-water %zu B\n",
              static_cast<unsigned long long>(s.waves), failed,
              s.arena_high_water_bytes);
  std::printf("  byte-identical to direct calls: %s\n",
              identical ? "yes" : "NO");
  return identical && failed == 0 ? 0 : 1;
}

}  // namespace

std::string usage() {
  return R"(szi — scientific error-bounded lossy compression (cuSZ-i reproduction)

compress:    szi -z -i <file.f32> -d NX [NY [NZ]] [-m abs|rel|rate] [-e VALUE]
                 [-c COMPRESSOR] [-t f32|f64] [--bitcomp] [-o <file.szi>]
                 [--verify]
decompress:  szi -x -i <file.szi> -o <file.f32> [-c COMPRESSOR] [-t f32|f64]
                 [--bitcomp] [--level N] [--roi x0:x1,y0:y1,z0:z1]
info:        szi --info -i <file.szi>  (identify the pipeline of an archive)
list:        szi --list               (available compressors)
serve-bench: szi --serve-bench [N]   (in-process service-layer load probe:
                 N mixed compress/decompress/ROI requests through szi::serve,
                 Poisson arrivals; prints sustained rate + p50/p95/p99 latency
                 and checks every response byte-identical to the direct call)

options:
  -m abs|rel|rate   error mode: absolute bound, value-range-relative bound
                    (default), or fixed rate in bits/value (cuzfp only)
  -e VALUE          bound / rate (default 1e-3)
  -c NAME           cusz-i (default), cusz, cuszp, cuszx, fz-gpu, cuzfp,
                    sz3, qoz
  -t f32|f64        value type (default f32; f64 supports cusz-i only)
  --bitcomp         wrap with the de-redundancy pass (must match on -x)
  --verify          after -z, decompress and report PSNR / max error; exit 1
                    when an abs/rel bound is broken
  --level N         with -x: progressive preview decode from a level-segmented
                    (SZI2) cusz-i archive — reconstruct anchors + levels >= N
                    onto the stride-2^(N-1) grid, reading only that prefix of
                    the archive. N is clamped to the archive's level range;
                    N = 1 is the full-fidelity decode
  --roi RANGES      with -x: random-access sub-volume decode from a cusz-i
                    archive — x0:x1,y0:y1,z0:z1 half-open element ranges.
                    The archive is memory-mapped and its tile index steers
                    the read, so only the byte ranges covering the box are
                    read. The box is bit-identical to the same crop of a full
                    decompress. Output holds (x1-x0)*(y1-y0)*(z1-z0) values
  --stages          print the per-stage timing breakdown. After -z: predict /
                    histogram / codebook / encode (fused stages report as one
                    entry). After -x: unwrap / huffman / reconstruct, plus
                    one size/ratio line per segment of an SZI2 archive
                    and, for --bitcomp archives, one line per wrapper segment
                    naming the chosen lossless method and its achieved ratio
)";
}

Options parse(const std::vector<std::string>& args) {
  Options opt;
  bool have_command = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&](const char* flag) -> const std::string& {
      if (i + 1 >= args.size())
        throw std::invalid_argument(std::string(flag) + " needs an argument");
      return args[++i];
    };
    if (a == "-z") {
      opt.command = Command::Compress;
      have_command = true;
    } else if (a == "-x") {
      opt.command = Command::Decompress;
      have_command = true;
    } else if (a == "--list") {
      opt.command = Command::List;
      have_command = true;
    } else if (a == "--info") {
      opt.command = Command::Info;
      have_command = true;
    } else if (a == "--serve-bench") {
      opt.command = Command::ServeBench;
      have_command = true;
      if (i + 1 < args.size() && !args[i + 1].empty() && args[i + 1][0] != '-')
        opt.serve_requests = parse_size(args[++i], "--serve-bench");
    } else if (a == "-h" || a == "--help") {
      opt.command = Command::Help;
      have_command = true;
    } else if (a == "-i") {
      opt.input = next("-i");
    } else if (a == "-o") {
      opt.output = next("-o");
    } else if (a == "-c") {
      opt.compressor = next("-c");
    } else if (a == "-t") {
      const std::string t = next("-t");
      if (t == "f32") opt.f64 = false;
      else if (t == "f64") opt.f64 = true;
      else throw std::invalid_argument("unknown type: " + t);
    } else if (a == "-e") {
      opt.value = parse_double(next("-e"), "-e");
    } else if (a == "-m") {
      const std::string m = next("-m");
      if (m == "abs") opt.mode = ErrorMode::Abs;
      else if (m == "rel") opt.mode = ErrorMode::Rel;
      else if (m == "rate") opt.mode = ErrorMode::FixedRate;
      else throw std::invalid_argument("unknown mode: " + m);
    } else if (a == "-d") {
      opt.dims.x = parse_size(next("-d"), "-d");
      opt.dims.y = opt.dims.z = 1;
      // Up to two more bare numbers.
      for (std::size_t* d : {&opt.dims.y, &opt.dims.z}) {
        if (i + 1 < args.size() && !args[i + 1].empty() &&
            args[i + 1][0] != '-') {
          *d = parse_size(args[++i], "-d");
        }
      }
    } else if (a == "--level") {
      opt.level = static_cast<int>(parse_size(next("--level"), "--level"));
    } else if (a == "--roi") {
      opt.roi = parse_roi(next("--roi"));
    } else if (a == "--bitcomp") {
      opt.bitcomp = true;
    } else if (a == "--verify") {
      opt.verify = true;
    } else if (a == "--stages") {
      opt.stages = true;
    } else {
      throw std::invalid_argument("unknown option: " + a);
    }
  }
  if (!have_command)
    throw std::invalid_argument("one of -z, -x, --list is required");
  if (opt.command == Command::Compress) {
    if (opt.input.empty()) throw std::invalid_argument("-z requires -i");
    if (opt.dims.volume() == 0 || opt.dims.x == 0)
      throw std::invalid_argument("-z requires -d NX [NY [NZ]]");
    if (opt.value <= 0) throw std::invalid_argument("-e must be positive");
  }
  if (opt.command == Command::Decompress) {
    if (opt.input.empty()) throw std::invalid_argument("-x requires -i");
    if (opt.output.empty()) throw std::invalid_argument("-x requires -o");
  }
  if (opt.command == Command::Info && opt.input.empty())
    throw std::invalid_argument("--info requires -i");
  if (opt.command == Command::ServeBench && opt.serve_requests == 0)
    throw std::invalid_argument("--serve-bench needs a positive count");
  if (opt.level > 0 && opt.command != Command::Decompress)
    throw std::invalid_argument("--level only applies to -x");
  if (opt.level > 0 && opt.compressor != "cusz-i")
    throw std::invalid_argument("--level supports only -c cusz-i");
  if (opt.roi) {
    if (opt.command != Command::Decompress)
      throw std::invalid_argument("--roi only applies to -x");
    if (opt.compressor != "cusz-i")
      throw std::invalid_argument("--roi supports only -c cusz-i");
    if (opt.level > 0)
      throw std::invalid_argument("--roi and --level are exclusive");
  }
  if (opt.f64 && opt.compressor != "cusz-i")
    throw std::invalid_argument("-t f64 supports only -c cusz-i");
  if (opt.f64 && opt.bitcomp)
    throw std::invalid_argument(
        "-t f64 with --bitcomp is not supported (wrap externally)");
  if (opt.f64 && opt.mode == ErrorMode::FixedRate)
    throw std::invalid_argument("-t f64 has no fixed-rate mode");
  return opt;
}

int run(const Options& opt) {
  switch (opt.command) {
    case Command::Help:
      std::fputs(usage().c_str(), stdout);
      return 0;
    case Command::List: {
      for (const auto& name : baselines::gpu_compressors())
        std::printf("%s\n", name.c_str());
      std::printf("sz3\nqoz\n");
      return 0;
    }
    case Command::ServeBench:
      return run_serve_bench(opt.serve_requests);
    case Command::Info: {
      auto asrc = io::open_archive(opt.input);
      std::vector<std::byte> scratch;
      const auto bytes = asrc->view(0, asrc->size(), scratch);
      if (bytes.size() < 4) {
        std::printf("%s: too short to be an archive\n", opt.input.c_str());
        return 1;
      }
      std::uint32_t magic = 0;
      std::memcpy(&magic, bytes.data(), 4);
      struct Known {
        std::uint32_t magic;
        const char* what;
      };
      static constexpr Known kKnown[] = {
          {0x31495A53, "cusz-i (retired single-stream layout; not decodable)"},
          {0x32495A53, "cusz-i (level-segmented)"},
          {0x5A535543, "cusz"},
          {0x505A5543, "cuszp"},
          {0x585A5543, "cuszx"},
          {0x55505A46, "fz-gpu"},
          {0x50465A43, "cuzfp"},
          {0x4C335A53, "sz3/qoz"},
          {0x50434242,
           "de-redundancy wrapper (retired single-stream layout; not "
           "decodable)"},
          {0x32434242, "de-redundancy wrapper (per-segment orchestrated)"},
          {0x4C525750, "pointwise-rel wrapper"},
          {0x42495A53, "bundle"},
      };
      const char* what = "unknown";
      for (const auto& k : kKnown)
        if (k.magic == magic) what = k.what;
      std::printf("%s: %zu bytes, pipeline: %s\n", opt.input.c_str(),
                  bytes.size(), what);
      if (magic == 0x32495A53) {
        std::printf("precision: %s\n",
                    cuszi_archive_precision(bytes) == Precision::F64 ? "f64"
                                                                     : "f32");
        print_segments(bytes);
      }
      print_wrap_segments(bytes);
      return 0;
    }
    case Command::Compress: {
      if (opt.f64) {
        const auto data = io::read_f64(opt.input, opt.dims.volume());
        StageTimings t;
        const auto bytes =
            cuszi_compress(std::span<const double>(data), opt.dims,
                           {opt.mode, opt.value}, &t);
        const std::string out =
            opt.output.empty() ? opt.input + ".szi" : opt.output;
        io::write_bytes(out, bytes);
        std::printf("cuSZ-i (f64): %zu -> %zu bytes (%.2fx) in %.3f s\n",
                    data.size() * sizeof(double), bytes.size(),
                    metrics::compression_ratio(data.size() * sizeof(double),
                                               bytes.size()),
                    t.total);
        if (opt.stages) print_stages(t);
        if (opt.verify)
          return verify<double>(data, cuszi_decompress_f64(bytes),
                                {opt.mode, opt.value});
        return 0;
      }
      auto c = baselines::make_compressor(opt.compressor);
      if (opt.bitcomp) c = with_bitcomp(std::move(c));
      Field field("cli", opt.input, opt.dims);
      field.data = io::read_f32(opt.input, opt.dims.volume());
      const auto enc = c->compress(field, {opt.mode, opt.value});
      const std::string out =
          opt.output.empty() ? opt.input + ".szi" : opt.output;
      io::write_bytes(out, enc.bytes);
      std::printf("%s: %zu -> %zu bytes (%.2fx, %.2f bits/val) in %.3f s\n",
                  c->name().c_str(), field.bytes(), enc.bytes.size(),
                  metrics::compression_ratio(field.bytes(), enc.bytes.size()),
                  metrics::bit_rate(field.size(), enc.bytes.size()),
                  enc.timings.total);
      if (opt.stages) {
        print_stages(enc.timings);
        print_wrap_segments(enc.bytes);
      }
      if (opt.verify)
        return verify<float>(field.data, c->decompress(enc.bytes),
                             {opt.mode, opt.value});
      return 0;
    }
    case Command::Decompress: {
      DecodeTimings dt;
      // Decode reads go through an ArchiveSource: mmap when possible, pread
      // otherwise — the archive is never copied into RAM up front, and ROI
      // requests touch only the covering ranges.
      auto asrc = io::open_archive(opt.input);
      if (opt.roi) {
        const RoiBox& box = *opt.roi;
        const std::size_t archive = asrc->size();
        const auto report = [&](std::size_t nvals, std::size_t bytes_read,
                                const DecodeTimings& rt, double secs) {
          std::printf(
              "cuSZ-i%s: ROI [%zu,%zu)x[%zu,%zu)x[%zu,%zu) (%zu values) -> "
              "%s in %.3f s\n",
              opt.f64 ? " (f64)" : "", box.lo.x, box.lo.x + box.ext.x,
              box.lo.y, box.lo.y + box.ext.y, box.lo.z, box.lo.z + box.ext.z,
              nvals, opt.output.c_str(), secs);
          if (opt.stages) {
            print_stages(rt);
            std::printf("roi: touched %zu of %zu archive bytes (%.1f%%)\n",
                        bytes_read, archive,
                        archive > 0 ? 100.0 * static_cast<double>(bytes_read) /
                                          static_cast<double>(archive)
                                    : 0.0);
          }
        };
        core::Timer t;
        if (opt.f64) {
          const auto r = cuszi_decompress_roi_f64(*asrc, box);
          const double secs = t.lap();
          io::write_f64(opt.output, r.data);
          report(r.data.size(), r.bytes_read, r.timings, secs);
        } else {
          const auto r = cuszi_decompress_roi_f32(*asrc, box);
          const double secs = t.lap();
          io::write_f32(opt.output, r.data);
          report(r.data.size(), r.bytes_read, r.timings, secs);
        }
        return 0;
      }
      std::vector<std::byte> scratch;
      const auto bytes = asrc->view(0, asrc->size(), scratch);
      if (opt.f64) {
        if (opt.level > 0) {
          core::Timer t;
          const auto r = cuszi_decompress_progressive_f64(bytes, opt.level);
          const double secs = t.lap();
          io::write_f64(opt.output, r.data);
          std::printf(
              "cuSZ-i (f64): preview level %d (%zu x %zu x %zu) from "
              "%zu of %zu bytes -> %s in %.3f s\n",
              r.level, r.dims.x, r.dims.y, r.dims.z, r.bytes_read,
              bytes.size(), opt.output.c_str(), secs);
          if (opt.stages) print_segments(bytes);
          return 0;
        }
        core::Timer t;
        const auto data =
            cuszi_decompress_f64(bytes, opt.stages ? &dt : nullptr);
        const double secs = t.lap();
        io::write_f64(opt.output, data);
        std::printf("cuSZ-i (f64): %zu values -> %s in %.3f s\n", data.size(),
                    opt.output.c_str(), secs);
        if (opt.stages) {
          print_stages(dt);
          print_segments(bytes);
        }
        return 0;
      }
      auto c = baselines::make_compressor(opt.compressor);
      if (opt.bitcomp) c = with_bitcomp(std::move(c));
      if (opt.level > 0) {
        core::Timer t;
        const auto r = c->decompress_progressive(bytes, opt.level);
        const double secs = t.lap();
        io::write_f32(opt.output, r.data);
        std::printf(
            "%s: preview level %d (%zu x %zu x %zu) from %zu of %zu bytes "
            "-> %s in %.3f s\n",
            c->name().c_str(), r.level, r.dims.x, r.dims.y, r.dims.z,
            r.bytes_read, bytes.size(), opt.output.c_str(), secs);
        if (opt.stages) {
          print_segments(bytes);
          print_wrap_segments(bytes);
        }
        return 0;
      }
      core::Timer t;
      const auto data =
          opt.stages ? c->decompress_stages(bytes, dt) : c->decompress(bytes);
      const double secs = t.lap();
      io::write_f32(opt.output, data);
      std::printf("%s: %zu values -> %s in %.3f s\n", c->name().c_str(),
                  data.size(), opt.output.c_str(), secs);
      if (opt.stages) {
        print_stages(dt);
        print_segments(bytes);
        print_wrap_segments(bytes);
      }
      return 0;
    }
  }
  return 2;
}

}  // namespace szi::cli
