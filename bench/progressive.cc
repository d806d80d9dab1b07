// Progressive-archive bench: what the SZI2 level-segmented layout costs and
// buys. Two questions, answered per dataset (and on paper-size miranda,
// 384 x 384 x 256):
//   1. Time-to-preview — how fast each coarse level materializes versus a
//      full decode, raw and 'BBC2'-wrapped, and what fraction of the
//      archive it reads. A preview reconstructs on its own lattice, so its
//      time should scale with the preview, not the field.
//   2. Per-level versus unified codebook — per-level books adapt to each
//      level's narrowing code distribution; the unified ablation shares one
//      book across every segment under identical framing.
// Every preview, raw and wrapped, must be bit-identical to ginterp_subsample
// of the full decode; the bench exits 1 when one is not, `--smoke`
// included, so CI's smoke step gates correctness. Emits
// BENCH_progressive.json; `--smoke` runs one small configuration and writes
// no ledger.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/compressor_iface.hh"
#include "core/cuszi.hh"
#include "core/timer.hh"
#include "datagen/datasets.hh"
#include "device/arena.hh"
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

  struct Input {
    std::string name;
    Field field;
  };
  std::vector<Input> inputs;
  for (const char* name : smoke ? std::vector<const char*>{"miranda"}
                                : std::vector<const char*>{"miranda", "nyx",
                                                           "s3d"})
    inputs.push_back({name, bench::dataset(name).front()});
  if (!smoke)
    inputs.push_back(
        {"miranda-paper",
         datagen::make_dataset("miranda", datagen::Size::Paper).front()});
  const int reps = smoke ? 1 : 3;
  const CompressParams p{ErrorMode::Rel, 1e-3};
  int mismatches = 0;

  std::string json;
  json += "{\n  \"bench\": \"progressive\",\n";
  appendf(json, "  \"cpu_cores\": %u,\n",
          std::max(1u, std::thread::hardware_concurrency()));
  appendf(json, "  \"error_mode\": \"rel\",\n  \"error_bound\": %g,\n", p.value);
  appendf(json, "  \"reps\": %d,\n  \"datasets\": [\n", reps);

  for (std::size_t di = 0; di < inputs.size(); ++di) {
    const auto& f = inputs[di].field;

    // The archive, its 'BBC2' wrap and its unified-codebook ablation.
    const auto v2 = cuszi_compress(f.view(), f.dims, p);
    const auto wrapped = bitcomp_wrap_archive(v2);
    const auto uni = cuszi_compress_unified_book(f.view(), f.dims, p);
    const auto segs = cuszi_archive_segments(v2);

    const double ratio_v2 = metrics::compression_ratio(f.bytes(), v2.size());
    const double ratio_uni = metrics::compression_ratio(f.bytes(), uni.size());

    // Full-decode wall time, the reference every preview level is set
    // against, and the decode every preview must subsample exactly.
    std::vector<float> full;
    const double dec_v2 =
        best_of(reps, [&] { full = cuszi_decompress_f32(v2); });
    dev::Workspace ws(dev::Arena::instance());
    const double dec_w = best_of(reps, [&] {
      (void)cuszi_decompress_bitcomp_f32(wrapped, ws);
      ws.reset();
    });

    std::printf("%s %s (%zux%zux%zu, %.1f MB)\n", inputs[di].name.c_str(),
                f.label().c_str(), f.dims.x, f.dims.y, f.dims.z,
                static_cast<double>(f.bytes()) / 1e6);
    std::printf("  archive: %zu B (%.2fx)  wrapped %zu B  unified-book %zu B "
                "(%.2fx)\n",
                v2.size(), ratio_v2, wrapped.size(), uni.size(), ratio_uni);
    std::printf("  full decode: raw %.3f ms  wrapped %.3f ms\n", dec_v2 * 1e3,
                dec_w * 1e3);

    appendf(json, "    {\n      \"dataset\": \"%s\",\n",
            inputs[di].name.c_str());
    appendf(json, "      \"dims\": [%zu, %zu, %zu],\n", f.dims.x, f.dims.y,
            f.dims.z);
    appendf(json, "      \"input_bytes\": %zu,\n", f.bytes());
    appendf(json,
            "      \"v2_bytes\": %zu,\n      \"wrapped_bytes\": %zu,\n"
            "      \"unified_book_bytes\": %zu,\n",
            v2.size(), wrapped.size(), uni.size());
    appendf(json,
            "      \"v2_ratio\": %.4f,\n      \"unified_book_ratio\": %.4f,\n",
            ratio_v2, ratio_uni);
    appendf(json,
            "      \"full_decode_v2_seconds\": %.6f,\n"
            "      \"full_decode_wrapped_seconds\": %.6f,\n",
            dec_v2, dec_w);

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
      ProgressiveResult r, rw;
      const double s = best_of(reps, [&] {
        r = cuszi_decompress_progressive_f32(v2, level);
      });
      const double sw = best_of(reps, [&] {
        rw = cuszi_decompress_progressive_f32(wrapped, level);
      });
      const auto sub = predictor::ginterp_subsample(
          std::span<const float>(full), f.dims, level);
      for (const auto* got : {&r, &rw})
        if (got->data.size() != sub.size() ||
            std::memcmp(got->data.data(), sub.data(),
                        sub.size() * sizeof(float)) != 0) {
          std::fprintf(stderr,
                       "%s level %d: %s preview differs from the subsampled "
                       "full decode\n",
                       inputs[di].name.c_str(), level,
                       got == &r ? "raw" : "wrapped");
          ++mismatches;
        }
      const auto truth = predictor::ginterp_subsample(
          std::span<const float>(f.data), f.dims, level);
      const double psnr = metrics::distortion(truth, r.data).psnr;
      const double frac =
          static_cast<double>(r.bytes_read) / static_cast<double>(v2.size());
      const double frac_w = static_cast<double>(rw.bytes_read) /
                            static_cast<double>(wrapped.size());
      std::printf("  level >= %d: %zux%zux%zu  raw %8.3f ms (%5.1f%% of full, "
                  "reads %5.1f%%)  wrapped %8.3f ms (%5.1f%%, reads %5.1f%%)  "
                  "PSNR %6.2f dB\n",
                  level, r.dims.x, r.dims.y, r.dims.z, s * 1e3,
                  100.0 * s / dec_v2, frac * 100.0, sw * 1e3,
                  100.0 * sw / dec_w, frac_w * 100.0, psnr);
      char psnr_s[32];
      if (std::isfinite(psnr))
        std::snprintf(psnr_s, sizeof psnr_s, "%.2f", psnr);
      else
        std::snprintf(psnr_s, sizeof psnr_s, "null");  // lossless preview
      appendf(json,
              "        {\"max_level\": %d, \"dims\": [%zu, %zu, %zu], "
              "\"seconds\": %.6f, \"bytes_read\": %zu, "
              "\"archive_fraction\": %.4f, \"wrapped_seconds\": %.6f, "
              "\"wrapped_bytes_read\": %zu, \"wrapped_fraction\": %.4f, "
              "\"psnr\": %s}%s\n",
              level, r.dims.x, r.dims.y, r.dims.z, s, r.bytes_read, frac, sw,
              rw.bytes_read, frac_w, psnr_s, level > 1 ? "," : "");
    }
    appendf(json, "      ]\n    }%s\n", di + 1 < inputs.size() ? "," : "");
  }
  json += "  ]\n}\n";

  if (mismatches > 0) {
    std::fprintf(stderr, "%d preview(s) differ from the full decode\n",
                 mismatches);
    return 1;
  }
  if (smoke) {
    std::printf("smoke run: ledger not written\n");
    return 0;
  }
  bench::write_ledger("BENCH_progressive.json", json);
  return 0;
}
