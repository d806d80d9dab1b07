// Progressive-archive bench: what the SZI2 level-segmented layout costs and
// buys. Two questions, answered per dataset:
//   1. Time-to-preview — how fast each coarse level materializes versus a
//      full decode, and what fraction of the archive it reads.
//   2. Per-level versus unified codebook — per-level books adapt to each
//      level's narrowing code distribution; the unified ablation shares one
//      book across every segment under identical framing.
// Emits BENCH_progressive.json. `--smoke` runs one tiny configuration and
// writes no ledger (CI gates on crashes, never on timings).
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/cuszi.hh"
#include "core/timer.hh"
#include "datagen/datasets.hh"
#include "metrics/stats.hh"
#include "predictor/ginterp.hh"

namespace {
using namespace szi;

/// Best-of-N wall time of `fn` (minimum filters scheduler noise).
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = -1;
  for (int r = 0; r < reps; ++r) {
    core::Timer t;
    fn();
    const double s = t.lap();
    if (best < 0 || s < best) best = s;
  }
  return best;
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") smoke = true;

  const std::vector<std::string> names =
      smoke ? std::vector<std::string>{"miranda"}
            : std::vector<std::string>{"miranda", "nyx", "s3d"};
  const int reps = smoke ? 1 : 3;
  const CompressParams p{ErrorMode::Rel, 1e-3};

  std::string json;
  json += "{\n  \"bench\": \"progressive\",\n";
  appendf(json, "  \"cpu_cores\": %u,\n",
          std::max(1u, std::thread::hardware_concurrency()));
  appendf(json, "  \"error_mode\": \"rel\",\n  \"error_bound\": %g,\n", p.value);
  appendf(json, "  \"reps\": %d,\n  \"datasets\": [\n", reps);

  for (std::size_t di = 0; di < names.size(); ++di) {
    const auto& fields = bench::dataset(names[di]);
    const auto& f = fields.front();

    // The archive and its unified-codebook ablation.
    const auto v2 = cuszi_compress(f.view(), f.dims, p);
    const auto uni = cuszi_compress_unified_book(f.view(), f.dims, p);
    const auto segs = cuszi_archive_segments(v2);

    const double ratio_v2 = metrics::compression_ratio(f.bytes(), v2.size());
    const double ratio_uni = metrics::compression_ratio(f.bytes(), uni.size());

    // Full-decode wall time, the reference every preview level is set
    // against.
    const double dec_v2 =
        best_of(reps, [&] { (void)cuszi_decompress_f32(v2); });

    std::printf("%s %s (%zux%zux%zu, %.1f MB)\n", names[di].c_str(),
                f.label().c_str(), f.dims.x, f.dims.y, f.dims.z,
                static_cast<double>(f.bytes()) / 1e6);
    std::printf("  archive: %zu B (%.2fx)  unified-book %zu B (%.2fx)\n",
                v2.size(), ratio_v2, uni.size(), ratio_uni);
    std::printf("  full decode: %.3f ms\n", dec_v2 * 1e3);

    appendf(json, "    {\n      \"dataset\": \"%s\",\n", names[di].c_str());
    appendf(json, "      \"dims\": [%zu, %zu, %zu],\n", f.dims.x, f.dims.y,
            f.dims.z);
    appendf(json, "      \"input_bytes\": %zu,\n", f.bytes());
    appendf(json,
            "      \"v2_bytes\": %zu,\n      \"unified_book_bytes\": %zu,\n",
            v2.size(), uni.size());
    appendf(json,
            "      \"v2_ratio\": %.4f,\n      \"unified_book_ratio\": %.4f,\n",
            ratio_v2, ratio_uni);
    appendf(json, "      \"full_decode_v2_seconds\": %.6f,\n", dec_v2);

    json += "      \"segments\": [\n";
    for (std::size_t i = 0; i < segs.size(); ++i)
      appendf(json,
              "        {\"kind\": %u, \"level\": %u, \"count\": %llu, "
              "\"bytes\": %llu}%s\n",
              segs[i].kind, segs[i].level,
              static_cast<unsigned long long>(segs[i].count),
              static_cast<unsigned long long>(segs[i].size),
              i + 1 < segs.size() ? "," : "");
    json += "      ],\n      \"previews\": [\n";

    // Time-to-preview, coarsest (anchor grid) to full fidelity. PSNR is
    // measured against the stride subsample of the original field so every
    // level has a ground truth at its own resolution.
    const int nlevels = predictor::ginterp_level_count(f.dims);
    for (int level = nlevels + 1; level >= 1; --level) {
      ProgressiveResult r;
      const double s = best_of(reps, [&] {
        r = cuszi_decompress_progressive_f32(v2, level);
      });
      const auto truth = predictor::ginterp_subsample(
          std::span<const float>(f.data), f.dims, level);
      const double psnr = metrics::distortion(truth, r.data).psnr;
      const double frac =
          static_cast<double>(r.bytes_read) / static_cast<double>(v2.size());
      std::printf("  level >= %d: %zux%zux%zu  %8.3f ms  reads %5.1f%%  "
                  "PSNR %6.2f dB\n",
                  level, r.dims.x, r.dims.y, r.dims.z, s * 1e3, frac * 100.0,
                  psnr);
      char psnr_s[32];
      if (std::isfinite(psnr))
        std::snprintf(psnr_s, sizeof psnr_s, "%.2f", psnr);
      else
        std::snprintf(psnr_s, sizeof psnr_s, "null");  // lossless preview
      appendf(json,
              "        {\"max_level\": %d, \"dims\": [%zu, %zu, %zu], "
              "\"seconds\": %.6f, \"bytes_read\": %zu, "
              "\"archive_fraction\": %.4f, \"psnr\": %s}%s\n",
              level, r.dims.x, r.dims.y, r.dims.z, s, r.bytes_read, frac,
              psnr_s, level > 1 ? "," : "");
    }
    appendf(json, "      ]\n    }%s\n", di + 1 < names.size() ? "," : "");
  }
  json += "  ]\n}\n";

  if (smoke) {
    std::printf("smoke run: ledger not written\n");
    return 0;
  }
  bench::write_ledger("BENCH_progressive.json", json);
  return 0;
}
