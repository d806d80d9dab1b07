// Worker-count scaling sweep: end-to-end compress and decompress of the
// paper-size Miranda density field (384 x 384 x 256, ~151 MB f32) at
// SZI_THREADS = 1, 2, 4, 8.
//
// The thread pool is a read-once singleton (SZI_THREADS is sampled exactly
// once, at first use), so one process cannot sweep worker counts. The
// parent re-executes itself with `--child <outfile>` under each SZI_THREADS
// value; every child measures the full pipeline and reports timings plus
// FNV-1a hashes of the archive and the reconstruction. The parent then
//   1. asserts the hashes agree across every worker count (the multicore
//      paths must be byte-identical to the single-worker reference), and
//   2. writes BENCH_scaling.json at the repo root with per-count timings
//      and speedups relative to one worker.
//
// Three phases are timed per child:
//   compress         cuszi_compress        (fused chunk-streamed pipeline)
//   decompress       cuszi_decompress_f32  (slab-parallel reconstruction)
//   decompress_bc    cuszi_decompress_bitcomp_f32 on the BBC2-wrapped
//                    archive (pool-wide LZSS block unwrap, then the same
//                    decode as the plain path)
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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
#include "device/thread_pool.hh"

namespace {
using namespace szi;

constexpr int kSweep[] = {1, 2, 4, 8};
constexpr int kReps = 3;

/// FNV-1a 64: cheap, deterministic, and order-sensitive — any byte-level
/// divergence between worker counts flips it.
std::uint64_t fnv1a(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

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

struct ChildResult {
  unsigned workers = 0;
  std::size_t archive_bytes = 0;
  std::uint64_t archive_hash = 0, recon_hash = 0;
  double comp_s = 0, decomp_s = 0, decomp_bc_s = 0;
};

int run_child(const char* outfile) {
  const auto fields = datagen::miranda(datagen::Size::Paper);
  const Field& f = fields.front();  // density
  const CompressParams p{ErrorMode::Rel, 1e-3};

  dev::Arena arena;
  dev::Workspace ws(arena);

  // Warmup compresses fault in the input pages and the arena pools, so the
  // timed reps measure the pipeline rather than first-touch.
  auto archive = cuszi_compress(f.view(), f.dims, p);
  const double comp_s = best_of(kReps, [&] {
    archive = cuszi_compress(f.view(), f.dims, p);
    if (archive.empty()) std::abort();
  });

  auto recon = cuszi_decompress_f32(archive);
  const double decomp_s = best_of(kReps, [&] {
    recon = cuszi_decompress_f32(archive);
    if (recon.size() != f.size()) std::abort();
  });

  const auto wrapped = bitcomp_wrap_archive(archive);
  auto recon_bc = cuszi_decompress_bitcomp_f32(wrapped, ws);
  const double decomp_bc_s = best_of(kReps, [&] {
    recon_bc = cuszi_decompress_bitcomp_f32(wrapped, ws);
    if (recon_bc.size() != f.size()) std::abort();
  });

  if (std::memcmp(recon.data(), recon_bc.data(),
                  recon.size() * sizeof(float)) != 0) {
    std::fprintf(stderr, "error: bitcomp-path reconstruction diverges from "
                         "the plain path\n");
    return 1;
  }

  FILE* out = std::fopen(outfile, "w");
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", outfile);
    return 1;
  }
  std::fprintf(out,
               "workers=%u archive_bytes=%zu archive_hash=%016" PRIx64
               " recon_hash=%016" PRIx64
               " comp_s=%.6f decomp_s=%.6f decomp_bc_s=%.6f\n",
               dev::ThreadPool::instance().worker_count(), archive.size(),
               fnv1a(archive.data(), archive.size()),
               fnv1a(recon.data(), recon.size() * sizeof(float)), comp_s,
               decomp_s, decomp_bc_s);
  std::fclose(out);
  return 0;
}

bool parse_child(const char* path, ChildResult& r) {
  FILE* in = std::fopen(path, "r");
  if (!in) return false;
  char line[512] = {0};
  const bool got = std::fgets(line, sizeof line, in) != nullptr;
  std::fclose(in);
  if (!got) return false;
  return std::sscanf(line,
                     "workers=%u archive_bytes=%zu archive_hash=%" SCNx64
                     " recon_hash=%" SCNx64
                     " comp_s=%lf decomp_s=%lf decomp_bc_s=%lf",
                     &r.workers, &r.archive_bytes, &r.archive_hash,
                     &r.recon_hash, &r.comp_s, &r.decomp_s,
                     &r.decomp_bc_s) == 7;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--child") == 0)
    return run_child(argv[2]);

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("scaling: miranda density 384x384x256, SZI_THREADS sweep, "
              "%u core(s)\n", cores);
  if (cores == 1)
    std::printf("note: single-core host — extra workers time-slice one core; "
                "expect flat-to-slightly-worse timings, not speedup\n");

  std::vector<ChildResult> results;
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
    ChildResult r;
    if (!parse_child(tmp.c_str(), r)) {
      std::fprintf(stderr, "error: unparsable child output %s\n", tmp.c_str());
      return 1;
    }
    std::remove(tmp.c_str());
    results.push_back(r);
    std::printf("  compress %.3f s   decompress %.3f s   decompress(bitcomp) "
                "%.3f s   archive %zu B\n",
                r.comp_s, r.decomp_s, r.decomp_bc_s, r.archive_bytes);
  }

  // Cross-count identity: every archive and reconstruction must hash equal
  // to the 1-worker reference.
  const ChildResult& ref = results.front();
  bool identical = true;
  for (const auto& r : results)
    identical = identical && r.archive_bytes == ref.archive_bytes &&
                r.archive_hash == ref.archive_hash &&
                r.recon_hash == ref.recon_hash;
  std::printf("\nbyte-identical across worker counts: %s\n",
              identical ? "yes" : "NO");

  std::string json;
  json += "{\n  \"bench\": \"scaling\",\n";
  json += "  \"field\": \"miranda/density 384x384x256 f32\",\n";
  json += "  \"reps\": " + std::to_string(kReps) + ",\n";
  json += "  \"cpu_cores\": " + std::to_string(cores) + ",\n";
  if (cores == 1)
    json += "  \"single_core_host\": \"true — worker counts > 1 time-slice "
            "one core, so parallel speedup cannot manifest; timings are "
            "honest measurements on this box\",\n";
  json += std::string("  \"byte_identical\": ") +
          (identical ? "true" : "false") + ",\n";
  json += "  \"archive_bytes\": " + std::to_string(ref.archive_bytes) + ",\n";
  json += "  \"runs\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"workers\": %u, \"compress_seconds\": %.6f, "
        "\"decompress_seconds\": %.6f, \"decompress_bitcomp_seconds\": %.6f, "
        "\"compress_speedup\": %.3f, \"decompress_speedup\": %.3f, "
        "\"decompress_bitcomp_speedup\": %.3f}%s\n",
        r.workers, r.comp_s, r.decomp_s, r.decomp_bc_s,
        r.comp_s > 0 ? ref.comp_s / r.comp_s : 0.0,
        r.decomp_s > 0 ? ref.decomp_s / r.decomp_s : 0.0,
        r.decomp_bc_s > 0 ? ref.decomp_bc_s / r.decomp_bc_s : 0.0,
        i + 1 < results.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  bench::write_ledger("BENCH_scaling.json", json);
  return identical ? 0 : 1;
}
