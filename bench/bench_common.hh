// Shared helpers for the table/figure reproduction benches.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.hh"
#include "core/timer.hh"
#include "datagen/datasets.hh"
#include "io/archive_source.hh"
#include "metrics/stats.hh"

namespace szi::bench {

/// Absolute path of a repo-root ledger file. Benches historically opened
/// relative paths, so the JSON landed wherever the binary happened to be
/// invoked from (usually the build tree) and the committed copy went stale
/// without anyone noticing. SZI_REPO_ROOT is baked in by bench/CMakeLists.txt.
inline std::string ledger_path(const std::string& name) {
#ifdef SZI_REPO_ROOT
  return std::string(SZI_REPO_ROOT) + "/" + name;
#else
  return name;
#endif
}

/// Writes a committed benchmark ledger (BENCH_*.json) at the repo root and
/// fails the process loudly if it cannot — a silently missing ledger reads
/// as "bench ran and was recorded" when it wasn't. Every ledger is stamped
/// with resource telemetry: the peak RSS of this process or of the largest
/// child it waited for, whichever is larger (sweeps that measure in
/// subprocesses would otherwise record only the small parent), and the
/// process-wide ArchiveSource byte counter (0 for benches that decode from
/// memory), inserted as two extra members of the top-level JSON object.
inline void write_ledger(const std::string& name, std::string json) {
  struct rusage self = {}, children = {};
  getrusage(RUSAGE_SELF, &self);  // ru_maxrss is KiB on Linux
  getrusage(RUSAGE_CHILDREN, &children);
  const long peak_kib = std::max(self.ru_maxrss, children.ru_maxrss);
  const auto brace = json.rfind('}');
  if (brace != std::string::npos) {
    char stamp[128];
    std::snprintf(stamp, sizeof stamp,
                  ",\n  \"peak_rss_bytes\": %llu,\n"
                  "  \"archive_bytes_read\": %llu\n",
                  static_cast<unsigned long long>(peak_kib) * 1024ull,
                  static_cast<unsigned long long>(io::archive_bytes_read()));
    // The stamp replaces the newline that preceded the closing brace.
    const auto at = brace > 0 && json[brace - 1] == '\n' ? brace - 1 : brace;
    json.insert(at, stamp);
  }
  const std::string path = ledger_path(name);
  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "error: cannot open ledger %s: %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), out) == json.size();
  if (std::fclose(out) != 0 || !ok) {
    std::fprintf(stderr, "error: short write to ledger %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
}

/// Dataset cache: generators are deterministic but not free; every bench
/// touches the same fields.
inline const std::vector<Field>& dataset(const std::string& name) {
  static std::map<std::string, std::vector<Field>> cache;
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, datagen::make_dataset(name, datagen::size_from_env()))
             .first;
  return it->second;
}

/// One measured compression run.
struct Run {
  double ratio = 0;         ///< original/compressed
  double bit_rate = 0;      ///< bits per element
  double psnr = 0;
  double max_err = 0;
  double comp_seconds = 0;  ///< end-to-end
  double kernel_seconds = 0;///< excluding the CPU codebook build (§VI-A)
  double decomp_seconds = 0;
  std::size_t bytes = 0;
};

/// Compress + decompress `f`, measuring everything the figures need.
inline Run measure(Compressor& c, const Field& f, const CompressParams& p) {
  Run r;
  const auto enc = c.compress(f, p);
  r.bytes = enc.bytes.size();
  r.ratio = metrics::compression_ratio(f.bytes(), enc.bytes.size());
  r.bit_rate = metrics::bit_rate(f.size(), enc.bytes.size());
  r.comp_seconds = enc.timings.total;
  r.kernel_seconds = enc.timings.kernel_time();
  core::Timer t;
  const auto dec = c.decompress(enc.bytes);
  r.decomp_seconds = t.lap();
  const auto d = metrics::distortion(f.data, dec);
  r.psnr = d.psnr;
  r.max_err = d.max_err;
  return r;
}

/// Dataset-average of per-field runs (TABLE III aggregates whole datasets).
inline Run measure_dataset(Compressor& c, const std::vector<Field>& fields,
                           const CompressParams& p) {
  Run agg;
  std::size_t raw = 0, comp = 0;
  double psnr_sum = 0;
  for (const auto& f : fields) {
    const Run r = measure(c, f, p);
    raw += f.bytes();
    comp += r.bytes;
    psnr_sum += r.psnr;
    agg.comp_seconds += r.comp_seconds;
    agg.kernel_seconds += r.kernel_seconds;
    agg.decomp_seconds += r.decomp_seconds;
  }
  agg.bytes = comp;
  agg.ratio = metrics::compression_ratio(raw, comp);
  agg.bit_rate = 32.0 / agg.ratio;
  agg.psnr = psnr_sum / static_cast<double>(fields.size());
  return agg;
}

/// GB/s for `bytes` of input processed in `seconds`.
inline double throughput_gbps(std::size_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / 1e9 / seconds : 0.0;
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace szi::bench
