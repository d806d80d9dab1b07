// Seeded inputs of every workload. The seed drives field synthesis (through
// datagen's building blocks), ROI box placement and the request mixes; the
// library under test only ever receives the generated arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/compressor_iface.hh"
#include "core/field.hh"
#include "datagen/rng.hh"
#include "device/dims.hh"

namespace perfbench {

/// Signal character of a synthetic field, after the paper's datasets.
enum class Character {
  Smooth,     ///< diffuse material interface (Miranda-class)
  Turbulent,  ///< k^-5/3 broadband turbulence (JHTDB-class)
  LogNormal,  ///< log-normal, high dynamic range (Nyx-class)
};

[[nodiscard]] szi::Field synth_field(Character c, const szi::dev::Dim3& dims,
                                     std::uint64_t seed);

/// One compression job: a field (f32 or f64) and the bound it is
/// compressed at.
struct Job {
  std::string label;
  szi::dev::Dim3 dims;
  std::vector<float> f32;   ///< set for f32 jobs
  std::vector<double> f64;  ///< set for f64 jobs
  szi::CompressParams params;

  [[nodiscard]] bool is_f64() const { return !f64.empty(); }
  [[nodiscard]] std::size_t bytes() const {
    return f32.size() * sizeof(float) + f64.size() * sizeof(double);
  }
};

/// bulk-wrapped: three 384x384x256 f32 fields, one of each character, at
/// Rel 1e-3.
/// With a `cache` path, the fields are read from that file when it holds
/// them and written to it when they had to be made, so the processes of one
/// run share a single synthesis.
[[nodiscard]] std::vector<Job> bulk_jobs(std::uint64_t seed,
                                         const std::string& cache = {});

/// small-raw: cache-resident fields from 32^3 to 128^3, a thin slab and two
/// f64 fields, at mixed Abs/Rel bounds from 1e-2 to 1e-5.
[[nodiscard]] std::vector<Job> small_jobs(std::uint64_t seed);

/// random-access: one paper-size (384x384x256) turbulent field at Rel 1e-3.
/// Turbulent, because the wrapper's per-segment choice on it is the same for
/// every seed; on smooth fields it flips between LZSS and bitshuffle for the
/// finest levels, and a bitshuffled level makes wrapped ROI reads several
/// times slower.
[[nodiscard]] Job random_access_job(std::uint64_t seed);

/// A uniformly placed box with every extent drawn from [min_ext, max_ext]
/// (clamped to the field).
[[nodiscard]] szi::RoiBox draw_box(szi::datagen::Rng& rng,
                                   const szi::dev::Dim3& dims,
                                   std::size_t min_ext, std::size_t max_ext);

/// One request of the random-access loop: an ROI box or a preview level,
/// against the raw or the wrapped archive.
struct RaRequest {
  bool roi = true;
  bool wrapped = false;
  szi::RoiBox box;
  int level = 2;
};

/// `n` seeded requests: seven in eight are ROI cubes with edges 16 to 128,
/// the rest previews at levels 2..max_level; raw and wrapped alternate.
[[nodiscard]] std::vector<RaRequest> random_access_requests(
    std::uint64_t seed, const szi::dev::Dim3& dims, int max_level,
    std::size_t n);

/// Request kinds of the serve mix.
enum class ServeKind : std::uint8_t {
  CompressS,   ///< f32 32^3
  CompressM,   ///< f32 64^3
  CompressL,   ///< f32 128^3
  CompressF64, ///< f64 64^3
  Decompress,  ///< wrapped archive of a 64^3 field
  Roi,         ///< 16..48 box from the raw archive of a 128^3 field
};
inline constexpr std::size_t kServeKinds = 6;
[[nodiscard]] const char* serve_kind_name(ServeKind k);

/// The fields the serve mix draws from, per kind (Decompress and Roi name
/// the fields whose archives they read).
struct ServeCorpus {
  std::vector<Job> by_kind[kServeKinds];
};
[[nodiscard]] ServeCorpus serve_corpus(std::uint64_t seed);

struct ServeRequest {
  ServeKind kind = ServeKind::CompressS;
  std::size_t index = 0;  ///< into corpus.by_kind[kind]
  szi::RoiBox box;        ///< Roi only
};

/// `n` seeded requests for client `client`. Mix weights (percent): 30 S,
/// 20 M, 10 L, 10 f64 compress, 15 decompress, 15 ROI.
[[nodiscard]] std::vector<ServeRequest> serve_requests(
    std::uint64_t seed, std::size_t client, std::size_t n,
    const ServeCorpus& corpus);

}  // namespace perfbench
