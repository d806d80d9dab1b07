// Random-access (ROI) decode bench: what the TIDX tile index buys. Four
// questions, answered on paper-size miranda (384 x 384 x 256):
//   1. Time-to-region — wall time to materialize a sub-volume through the
//      indexed path versus full decode + crop, per region size.
//   2. Bytes touched — the fraction of the archive the indexed read fetches
//      (raw SZI2 and the 'BBC2'-wrapped archive, whose granularity is the
//      64 KiB LZSS block).
//   3. Scaling — both metrics across 16^3 .. 128^3 regions; time and bytes
//      must grow with the region, not the field. A full-x/y region 8 planes
//      deep covers 2 tile slabs; with more than 2 workers it times the
//      reconstructor's slabs-in-turn side. The whole-field region runs the
//      full decoder's phases and should cost about a full decode.
//   4. Concurrent readers — aggregate regions/s when N threads each serve
//      ROI requests from their own mmap of the same archive file, the
//      many-readers-of-one-snapshot scenario the index exists for.
// Emits BENCH_roi.json. `--smoke` runs one tiny configuration and writes no
// ledger (CI gates on crashes, never on timings).
#include <unistd.h>

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/cuszi.hh"
#include "core/timer.hh"
#include "datagen/datasets.hh"
#include "device/thread_pool.hh"
#include "io/archive_source.hh"
#include "io/bin_io.hh"

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

  // The acceptance scenario is the paper-size field; smoke keeps CI fast.
  const auto fields = datagen::make_dataset(
      "miranda", smoke ? datagen::Size::Small : datagen::Size::Paper);
  const auto& f = fields.front();
  const int reps = smoke ? 1 : 3;
  const CompressParams p{ErrorMode::Rel, 1e-3};

  const auto bytes = cuszi_compress(f.view(), f.dims, p);
  const auto wrapped = bitcomp_wrap_archive(bytes);

  std::printf("miranda %s (%zux%zux%zu, %.1f MB) -> %zu B raw, %zu B wrapped\n",
              f.label().c_str(), f.dims.x, f.dims.y, f.dims.z,
              static_cast<double>(f.bytes()) / 1e6, bytes.size(),
              wrapped.size());

  // Full decode + crop is the baseline every region competes against.
  const double full_s = best_of(reps, [&] { (void)cuszi_decompress_f32(bytes); });
  dev::Workspace ws(dev::Arena::instance());
  const double full_w_s = best_of(reps, [&] {
    (void)cuszi_decompress_bitcomp_f32(wrapped, ws);
    ws.reset();
  });
  std::printf("full decode: raw %.3f ms  wrapped %.3f ms\n", full_s * 1e3,
              full_w_s * 1e3);

  std::string json;
  json += "{\n  \"bench\": \"roi\",\n";
  appendf(json, "  \"dims\": [%zu, %zu, %zu],\n", f.dims.x, f.dims.y, f.dims.z);
  appendf(json, "  \"input_bytes\": %zu,\n", f.bytes());
  appendf(json, "  \"archive_bytes\": %zu,\n  \"wrapped_bytes\": %zu,\n",
          bytes.size(), wrapped.size());
  // cpu_cores contextualizes the reader sweep: on a single-core host the
  // readers time-slice one core and aggregate throughput cannot rise.
  appendf(json, "  \"workers\": %zu,\n  \"cpu_cores\": %u,\n  \"reps\": %d,\n",
          dev::ThreadPool::instance().worker_count(),
          std::thread::hardware_concurrency(), reps);
  appendf(json,
          "  \"full_decode_seconds\": %.6f,\n"
          "  \"full_decode_wrapped_seconds\": %.6f,\n  \"regions\": [\n",
          full_s, full_w_s);

  // Unaligned origins exercise the halo path; each cube is centered-ish so
  // every level contributes interior slabs. The thin region spans the whole
  // x/y plane and 8 planes from an unaligned z, so it covers 2 slabs.
  std::vector<RoiBox> regions;
  for (const std::size_t n : smoke ? std::vector<std::size_t>{16, 32}
                                   : std::vector<std::size_t>{16, 32, 64, 128})
    regions.push_back({{f.dims.x / 2 - n / 2 + 3, f.dims.y / 2 - n / 2 + 5,
                        f.dims.z / 2 - n / 2 + 1},
                       {n, n, n}});
  regions.push_back({{0, 0, f.dims.z / 2 + 1}, {f.dims.x, f.dims.y, 8}});
  // The whole field: the same phases as a full decode, so it should cost
  // about the same.
  regions.push_back({{0, 0, 0}, f.dims});
  for (std::size_t si = 0; si < regions.size(); ++si) {
    const RoiBox& box = regions[si];
    DecodeResultT<float> r, rw;
    const double roi_s =
        best_of(reps, [&] { r = cuszi_decompress_roi_f32(bytes, box); });
    const double roi_w_s =
        best_of(reps, [&] { rw = cuszi_decompress_roi_f32(wrapped, box); });
    const double frac =
        static_cast<double>(r.bytes_read) / static_cast<double>(bytes.size());
    const double frac_w = static_cast<double>(rw.bytes_read) /
                          static_cast<double>(wrapped.size());
    const double speedup = roi_s > 0 ? full_s / roi_s : 0.0;
    std::printf(
        "  %3zux%3zux%3zu: raw %8.3f ms (%5.1fx vs full, reads %5.1f%%)  "
        "wrapped %8.3f ms (reads %5.1f%%)\n",
        box.ext.x, box.ext.y, box.ext.z, roi_s * 1e3, speedup, frac * 100.0,
        roi_w_s * 1e3, frac_w * 100.0);
    appendf(json,
            "    {\"ext\": [%zu, %zu, %zu], \"lo\": [%zu, %zu, %zu],\n"
            "     \"seconds\": %.6f, \"bytes_read\": %zu, "
            "\"archive_fraction\": %.4f, \"speedup_vs_full\": %.2f,\n"
            "     \"wrapped_seconds\": %.6f, \"wrapped_bytes_read\": %zu, "
            "\"wrapped_fraction\": %.4f}%s\n",
            box.ext.x, box.ext.y, box.ext.z, box.lo.x, box.lo.y, box.lo.z,
            roi_s, r.bytes_read, frac, speedup, roi_w_s, rw.bytes_read,
            frac_w, si + 1 < regions.size() ? "," : "");
  }
  json += "  ],\n  \"concurrent_readers\": [\n";

  // Concurrent readers: the archive lives in one file; every reader thread
  // opens its own mmap and serves a distinct region. Aggregate regions/s
  // should scale until memory bandwidth saturates.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("szi_bench_roi_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "a.szi").string();
  io::write_bytes(path, bytes);
  const std::size_t rn = smoke ? 16 : 64;
  const std::vector<int> reader_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  for (std::size_t ci = 0; ci < reader_counts.size(); ++ci) {
    const int nr = reader_counts[ci];
    const int per_reader = smoke ? 1 : 4;
    const double wall = best_of(reps, [&] {
      std::vector<std::thread> ts;
      ts.reserve(static_cast<std::size_t>(nr));
      for (int t = 0; t < nr; ++t)
        ts.emplace_back([&, t] {
          io::MmapSource src(path);
          for (int q = 0; q < per_reader; ++q) {
            const RoiBox box{
                {(static_cast<std::size_t>(t) * 29 + 13 * static_cast<std::size_t>(q)) %
                     (f.dims.x - rn),
                 (static_cast<std::size_t>(t) * 17 + 7 * static_cast<std::size_t>(q)) %
                     (f.dims.y - rn),
                 (static_cast<std::size_t>(t) * 11 + 5 * static_cast<std::size_t>(q)) %
                     (f.dims.z - rn)},
                {rn, rn, rn}};
            (void)cuszi_decompress_roi_f32(src, box);
          }
        });
      for (auto& t : ts) t.join();
    });
    const double rps =
        wall > 0 ? static_cast<double>(nr) * per_reader / wall : 0.0;
    std::printf("  %d reader%s x %d region%s of %zu^3: %8.3f ms  "
                "(%.1f regions/s)\n",
                nr, nr == 1 ? " " : "s", per_reader, per_reader == 1 ? "" : "s",
                rn, wall * 1e3, rps);
    appendf(json,
            "    {\"readers\": %d, \"regions_each\": %d, \"region\": %zu, "
            "\"seconds\": %.6f, \"regions_per_second\": %.2f}%s\n",
            nr, per_reader, rn, wall, rps,
            ci + 1 < reader_counts.size() ? "," : "");
  }
  json += "  ]\n}\n";
  fs::remove_all(dir);

  if (smoke) {
    std::printf("smoke run: ledger not written\n");
    return 0;
  }
  bench::write_ledger("BENCH_roi.json", json);
  return 0;
}
