#include "inputs.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "datagen/synth.hh"
#include "device/launch.hh"

namespace perfbench {

namespace dg = szi::datagen;
using szi::dev::Dim3;

namespace {

/// Independent sub-seed for item `salt` of a workload seed.
std::uint64_t subseed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return dg::splitmix64(s);
}

/// Modes with a fixed spectrum per field character (wavevectors and
/// amplitudes drawn from `structure`) and seeded phases: a field's
/// character, and so its compression ratio, stays put from seed to seed
/// while its values change.
std::vector<dg::Mode> seeded_modes(dg::Rng& rng, std::uint64_t structure,
                                   std::size_t count, double kmin, double kmax,
                                   double slope) {
  dg::Rng fixed(structure);
  auto modes = dg::draw_modes(fixed, count, kmin, kmax, slope);
  for (auto& m : modes) m.phase = static_cast<float>(rng.uniform(0.0, 6.283185307179586));
  return modes;
}

void add_into(szi::Field& dst, const szi::Field& src) {
  szi::dev::launch_linear(
      dst.size(), [&](std::size_t i) { dst.data[i] += src.data[i]; }, 1 << 14);
}

Job f32_job(std::string label, Character c, Dim3 dims, std::uint64_t seed,
            szi::ErrorMode mode, double value) {
  Job j;
  j.label = std::move(label);
  j.dims = dims;
  j.f32 = synth_field(c, dims, seed).data;
  j.params = {mode, value};
  return j;
}

Job f64_job(std::string label, Character c, Dim3 dims, std::uint64_t seed,
            szi::ErrorMode mode, double value) {
  Job j;
  j.label = std::move(label);
  j.dims = dims;
  const auto f = synth_field(c, dims, seed);
  j.f64.assign(f.data.begin(), f.data.end());
  j.params = {mode, value};
  return j;
}

}  // namespace

szi::Field synth_field(Character c, const Dim3& dims, std::uint64_t seed) {
  dg::Rng rng(seed);
  szi::Field f("perfbench", "field", dims);
  const double nx = static_cast<double>(dims.x);
  switch (c) {
    case Character::Smooth: {
      // tanh profile across a lattice-perturbed interface plane (fixed
      // shape, seeded height), plus a gentle large-scale component.
      szi::Field surface("perfbench", "surface", {dims.x, dims.y, 1});
      dg::Rng shape(0x5a0001);
      dg::add_lattice_noise(surface, shape, 6,
                            0.08f * static_cast<float>(dims.z));
      const float zc =
          static_cast<float>(rng.uniform(0.45, 0.55) * static_cast<double>(dims.z));
      const float width = std::max(1.0f, 0.12f * static_cast<float>(dims.z));
      szi::dev::launch_linear(
          dims.z,
          [&](std::size_t z) {
            for (std::size_t y = 0; y < dims.y; ++y) {
              float* row = f.data.data() + (z * dims.y + y) * dims.x;
              const float* s = surface.data.data() + y * dims.x;
              for (std::size_t x = 0; x < dims.x; ++x)
                row[x] = std::tanh((static_cast<float>(z) - zc - s[x]) / width);
            }
          },
          1);
      szi::Field bg("perfbench", "background", dims);
      dg::add_modes(bg, seeded_modes(rng, 0x5a0002, 6, 1.0, 4.0, -1.5));
      dg::rescale(bg, -0.05f, 0.05f);
      add_into(f, bg);
      dg::rescale(f, 1.0f, 3.0f);
      break;
    }
    case Character::Turbulent: {
      // Inertial range from the box scale down to ~12 cells, then
      // lattice noise at two finer scales for the dissipation tail. Enough
      // modes that the extremes, which set the range, vary little.
      dg::add_modes(f, seeded_modes(rng, 0x5a0003, 24, 1.5,
                                    std::max(3.0, nx / 12.0), -5.0 / 6.0));
      dg::add_lattice_noise(f, rng, std::max<std::size_t>(2, dims.x / 16),
                            0.25f);
      dg::add_lattice_noise(f, rng, std::max<std::size_t>(2, dims.x / 8),
                            0.08f);
      dg::rescale(f, -1.0f, 1.0f);
      break;
    }
    case Character::LogNormal: {
      // Correlated Gaussian overdensity, exponentiated: several decades of
      // dynamic range with rare strong peaks. The large-scale modes are
      // fixed (phases too: through the exponential, where the peaks fall
      // decides the ratio); the seed draws small-scale noise, and the
      // final rescale pins the range so the noise cannot move it.
      dg::Rng structure(0x5a0004);
      dg::add_modes(f, dg::draw_modes(structure, 16, 1.0,
                                      std::max(2.0, nx / 8.0), -1.0));
      dg::rescale(f, -1.6f, 2.4f);
      dg::add_lattice_noise(f, rng, std::max<std::size_t>(2, dims.x / 10),
                            0.02f);
      dg::rescale(f, -1.6f, 2.4f);
      szi::dev::launch_linear(
          f.size(),
          [&](std::size_t i) { f.data[i] = 2.0e10f * std::exp(2.2f * f.data[i]); },
          1 << 14);
      break;
    }
  }
  return f;
}

std::vector<Job> bulk_jobs(std::uint64_t seed, const std::string& cache) {
  const Dim3 d{384, 384, 256};
  const std::pair<const char*, Character> fields[] = {
      {"smooth", Character::Smooth},
      {"turbulent", Character::Turbulent},
      {"lognormal", Character::LogNormal}};
  std::vector<Job> jobs;
  for (const auto& [label, c] : fields) {
    Job j;
    j.label = label;
    j.dims = d;
    j.params = {szi::ErrorMode::Rel, 1e-3};
    jobs.push_back(std::move(j));
  }
  auto bytes = [](Job& j) {
    return std::make_pair(reinterpret_cast<char*>(j.f32.data()),
                          static_cast<std::streamsize>(j.bytes()));
  };

  if (!cache.empty()) {
    std::ifstream in(cache, std::ios::binary);
    bool ok = static_cast<bool>(in);
    for (auto& j : jobs) {
      if (!ok) break;
      j.f32.resize(d.volume());
      const auto [p, n] = bytes(j);
      ok = in.read(p, n) && in.gcount() == n;
    }
    if (ok && in.peek() == std::char_traits<char>::eof()) return jobs;
  }
  std::uint64_t salt = 1;
  for (std::size_t k = 0; k < jobs.size(); ++k)
    jobs[k].f32 = synth_field(fields[k].second, d, subseed(seed, salt++)).data;
  if (!cache.empty()) {
    std::ofstream out(cache, std::ios::binary | std::ios::trunc);
    for (auto& j : jobs) {
      const auto [p, n] = bytes(j);
      out.write(p, n);
    }
    out.close();
    if (!out) std::remove(cache.c_str());
  }
  return jobs;
}

std::vector<Job> small_jobs(std::uint64_t seed) {
  using C = Character;
  const auto rel = szi::ErrorMode::Rel;
  const auto abs = szi::ErrorMode::Abs;  // smooth spans 2, turbulent 2
  struct Spec {
    const char* label;
    C c;
    Dim3 dims;
    szi::ErrorMode mode;
    double value;
    bool f64;
  };
  const Spec specs[] = {
      {"s32-rel1e-2", C::Smooth, {32, 32, 32}, rel, 1e-2, false},
      {"t32-abs1e-3", C::Turbulent, {32, 32, 32}, abs, 1e-3, false},
      {"l48-rel1e-4", C::LogNormal, {48, 48, 48}, rel, 1e-4, false},
      {"s64-abs2e-4", C::Smooth, {64, 64, 64}, abs, 2e-4, false},
      {"t64-rel1e-3", C::Turbulent, {64, 64, 64}, rel, 1e-3, false},
      {"l64-rel1e-2", C::LogNormal, {64, 64, 64}, rel, 1e-2, false},
      {"t96-rel1e-5", C::Turbulent, {96, 96, 96}, rel, 1e-5, false},
      {"s96-rel1e-3", C::Smooth, {96, 96, 96}, rel, 1e-3, false},
      {"s128-rel1e-4", C::Smooth, {128, 128, 128}, rel, 1e-4, false},
      {"t128-abs2e-2", C::Turbulent, {128, 128, 128}, abs, 2e-2, false},
      {"l128-rel1e-3", C::LogNormal, {128, 128, 128}, rel, 1e-3, false},
      {"slab-t256x256x4-rel1e-3", C::Turbulent, {256, 256, 4}, rel, 1e-3, false},
      {"f64-s64-abs2e-5", C::Smooth, {64, 64, 64}, abs, 2e-5, true},
      {"f64-t96-rel1e-3", C::Turbulent, {96, 96, 96}, rel, 1e-3, true},
  };
  std::vector<Job> jobs;
  std::uint64_t salt = 100;
  for (const auto& s : specs) {
    const auto sub = subseed(seed, salt++);
    jobs.push_back(s.f64 ? f64_job(s.label, s.c, s.dims, sub, s.mode, s.value)
                         : f32_job(s.label, s.c, s.dims, sub, s.mode, s.value));
  }
  return jobs;
}

Job random_access_job(std::uint64_t seed) {
  return f32_job("turbulent-384x384x256", Character::Turbulent, {384, 384, 256},
                 subseed(seed, 200), szi::ErrorMode::Rel, 1e-3);
}

szi::RoiBox draw_box(dg::Rng& rng, const Dim3& dims, std::size_t min_ext,
                     std::size_t max_ext) {
  auto axis = [&](std::size_t n, std::size_t& lo, std::size_t& ext) {
    const std::size_t hi = std::min(max_ext, n);
    const std::size_t low = std::min(min_ext, hi);
    ext = low + static_cast<std::size_t>(rng.uniform() *
                                         static_cast<double>(hi - low + 1));
    ext = std::min(ext, hi);
    lo = static_cast<std::size_t>(rng.uniform() *
                                  static_cast<double>(n - ext + 1));
    lo = std::min(lo, n - ext);
  };
  szi::RoiBox b;
  axis(dims.x, b.lo.x, b.ext.x);
  axis(dims.y, b.lo.y, b.ext.y);
  axis(dims.z, b.lo.z, b.ext.z);
  return b;
}

std::vector<RaRequest> random_access_requests(std::uint64_t seed,
                                              const Dim3& dims, int max_level,
                                              std::size_t n) {
  // Fixed proportions, seeded placement: every 8th request is a preview
  // (levels cycling 2..max_level), groups of 8 alternate raw and wrapped,
  // and the ROI cubes cycle through edges 16, 32, 64 and 128 at seeded
  // positions on the predictor's 32x8x8 tile grid, so each edge always
  // covers the same number of tiles.
  constexpr std::size_t kEdges[] = {16, 32, 64, 128};
  dg::Rng rng(subseed(seed, 300));
  std::vector<RaRequest> out(n);
  std::size_t rois = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto& r = out[i];
    const std::size_t group = i / 8;
    r.roi = i % 8 != 7;
    r.wrapped = group % 2 == 1;
    if (r.roi) {
      const std::size_t edge = kEdges[rois++ % 4];
      r.box = draw_box(rng, dims, edge, edge);
      r.box.lo.x -= r.box.lo.x % 32;
      r.box.lo.y -= r.box.lo.y % 8;
      r.box.lo.z -= r.box.lo.z % 8;
    } else {
      r.level = 2 + static_cast<int>(group % static_cast<std::size_t>(max_level - 1));
    }
  }
  return out;
}

const char* serve_kind_name(ServeKind k) {
  switch (k) {
    case ServeKind::CompressS: return "compress-32";
    case ServeKind::CompressM: return "compress-64";
    case ServeKind::CompressL: return "compress-128";
    case ServeKind::CompressF64: return "compress-f64";
    case ServeKind::Decompress: return "decompress";
    case ServeKind::Roi: return "roi";
  }
  return "?";
}

ServeCorpus serve_corpus(std::uint64_t seed) {
  using C = Character;
  const auto rel = szi::ErrorMode::Rel;
  const C cycle[] = {C::Smooth, C::Turbulent, C::LogNormal, C::Smooth};
  ServeCorpus sc;
  std::uint64_t salt = 400;
  auto fill = [&](ServeKind k, Dim3 dims, std::size_t count, bool f64) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::string label =
          std::string(serve_kind_name(k)) + "-" + std::to_string(i);
      const auto sub = subseed(seed, salt++);
      sc.by_kind[static_cast<std::size_t>(k)].push_back(
          f64 ? f64_job(label, cycle[i % 4], dims, sub, rel, 1e-3)
              : f32_job(label, cycle[i % 4], dims, sub, rel, 1e-3));
    }
  };
  fill(ServeKind::CompressS, {32, 32, 32}, 4, false);
  fill(ServeKind::CompressM, {64, 64, 64}, 4, false);
  fill(ServeKind::CompressL, {128, 128, 128}, 2, false);
  fill(ServeKind::CompressF64, {64, 64, 64}, 2, true);
  fill(ServeKind::Decompress, {64, 64, 64}, 4, false);
  fill(ServeKind::Roi, {128, 128, 128}, 1, false);
  return sc;
}

std::vector<ServeRequest> serve_requests(std::uint64_t seed,
                                         std::size_t client, std::size_t n,
                                         const ServeCorpus& corpus) {
  // Cumulative percent thresholds per kind, in ServeKind order: the kind
  // weights of the repository's open-loop load generator (bench/serve_load:
  // 25/20/10 f32 compress small to large, 10 f64, 25 decompress, 10 ROI).
  constexpr double kCum[kServeKinds] = {25, 45, 55, 65, 90, 100};
  dg::Rng rng(subseed(seed, 500 + client));
  std::vector<ServeRequest> out(n);
  for (auto& r : out) {
    const double u = rng.uniform() * 100.0;
    std::size_t k = 0;
    while (k + 1 < kServeKinds && u >= kCum[k]) ++k;
    r.kind = static_cast<ServeKind>(k);
    const auto& pool = corpus.by_kind[k];
    r.index = std::min(pool.size() - 1,
                       static_cast<std::size_t>(rng.uniform() *
                                                static_cast<double>(pool.size())));
    if (r.kind == ServeKind::Roi) r.box = draw_box(rng, pool[r.index].dims, 16, 48);
  }
  return out;
}

}  // namespace perfbench
