// See reference.hh: verbatim pre-optimization kernels, kept as the ground
// truth for the interior/rim equivalence tests. Do not optimize.
#include "reference.hh"

#include <array>
#include <cmath>
#include <stdexcept>

#include "core/bytes.hh"
#include "device/launch.hh"
#include "predictor/anchor.hh"
#include "predictor/spline.hh"

namespace szi::predictor::reference {

namespace {

/// Largest closed-tile volume across the per-rank geometries (33*9*9).
constexpr std::size_t kMaxTileVolume = 33 * 9 * 9;

template <typename T>
struct TileView {
  std::array<T, kMaxTileVolume> buf;
  std::array<std::size_t, 3> origin;
  std::array<std::size_t, 3> extent;
  std::array<std::size_t, 3> lstride;
  std::array<std::size_t, 3> owned;
};

std::size_t dim_of(const dev::Dim3& d, int i) {
  return i == 0 ? d.x : (i == 1 ? d.y : d.z);
}

/// The original guarded walk: per-point availability checks, per-point
/// 3-multiply linearize, per-point owned test.
template <bool kCompress, typename T>
void tile_pass(TileView<T>& t, int d, std::size_t s,
               const std::array<bool, 3>& done, const quant::Quantizer& qz,
               CubicKind kind, const dev::Dim3& dims,
               std::span<quant::Code> codes, std::span<const quant::Code> codes_in) {
  std::array<std::size_t, 3> start{0, 0, 0}, step{1, 1, 1};
  for (int i = 0; i < 3; ++i) step[i] = done[i] ? s : 2 * s;
  start[d] = s;
  step[d] = 2 * s;

  const std::size_t ls = t.lstride[d];
  const std::size_t ext_d = t.extent[d];

  for (std::size_t z = start[2]; z < t.extent[2]; z += step[2]) {
    for (std::size_t y = start[1]; y < t.extent[1]; y += step[1]) {
      for (std::size_t x = start[0]; x < t.extent[0]; x += step[0]) {
        const std::array<std::size_t, 3> c{x, y, z};
        const std::size_t idx =
            x * t.lstride[0] + y * t.lstride[1] + z * t.lstride[2];
        const std::size_t cd = c[d];

        const bool hb = cd >= s;
        const bool hc = cd + s < ext_d;
        const bool ha = cd >= 3 * s;
        const bool hd = cd + 3 * s < ext_d;
        const T a = ha ? t.buf[idx - 3 * s * ls] : T{0};
        const T b = hb ? t.buf[idx - s * ls] : T{0};
        const T cc = hc ? t.buf[idx + s * ls] : T{0};
        const T dd = hd ? t.buf[idx + 3 * s * ls] : T{0};
        const T pred = spline_predict(ha, a, hb, b, hc, cc, hd, dd, kind);

        const bool is_owned =
            x < t.owned[0] && y < t.owned[1] && z < t.owned[2];
        const std::size_t gidx = dev::linearize(
            dims, t.origin[0] + x, t.origin[1] + y, t.origin[2] + z);

        if constexpr (kCompress) {
          const auto r = qz.quantize(t.buf[idx], pred);
          t.buf[idx] = r.recon;
          if (is_owned) codes[gidx] = r.stored;
        } else {
          t.buf[idx] = qz.dequantize(codes_in[gidx], pred, t.buf[idx]);
        }
      }
    }
  }
}

template <bool kCompress, typename T>
void run_tiles(std::span<const T> in, std::span<T> out,
               std::span<quant::Code> codes,
               std::span<const quant::Code> codes_in, const dev::Dim3& dims,
               double eb, const InterpConfig& cfg, int radius) {
  const Geometry geo = geometry_for(dims);

  std::vector<quant::Quantizer> level_qz;
  for (std::size_t s = 1; s <= geo.top_stride; s <<= 1)
    level_qz.emplace_back(level_eb(eb, cfg.alpha, level_of_stride(s)), radius);
  auto qz_for = [&](std::size_t s) -> const quant::Quantizer& {
    int l = 0;
    while ((std::size_t{1} << l) < s) ++l;
    return level_qz[static_cast<std::size_t>(l)];
  };

  const dev::Dim3 grid = dev::grid_for(dims, geo.tile);
  dev::launch_blocks(grid, [&](const dev::BlockIdx& blk) {
    TileView<T> t;
    t.origin = {blk.x * geo.tile.x, blk.y * geo.tile.y, blk.z * geo.tile.z};
    for (int i = 0; i < 3; ++i) {
      const std::size_t nd = dim_of(dims, i);
      const std::size_t td = dim_of(geo.tile, i);
      t.owned[i] = std::min(td, nd - t.origin[i]);
      t.extent[i] = std::min(td + 1, nd - t.origin[i]);
    }
    t.lstride = {1, t.extent[0], t.extent[0] * t.extent[1]};

    const std::span<const T> src = in;
    for (std::size_t z = 0; z < t.extent[2]; ++z)
      for (std::size_t y = 0; y < t.extent[1]; ++y) {
        const std::size_t lrow = y * t.lstride[1] + z * t.lstride[2];
        const std::size_t grow = dev::linearize(dims, t.origin[0],
                                                t.origin[1] + y, t.origin[2] + z);
        for (std::size_t x = 0; x < t.extent[0]; ++x)
          t.buf[lrow + x] = src[grow + x];
      }

    for (std::size_t s = geo.top_stride; s >= 1; s >>= 1) {
      std::array<bool, 3> done{false, false, false};
      const quant::Quantizer& qz = qz_for(s);
      for (int k = 0; k < 3; ++k) {
        const int d = cfg.dim_order[k];
        if (dim_of(dims, d) == 1) continue;
        tile_pass<kCompress>(t, d, s, done, qz,
                             cfg.cubic[static_cast<std::size_t>(d)], dims,
                             codes, codes_in);
        done[static_cast<std::size_t>(d)] = true;
      }
    }

    if constexpr (!kCompress) {
      for (std::size_t z = 0; z < t.owned[2]; ++z)
        for (std::size_t y = 0; y < t.owned[1]; ++y) {
          const std::size_t lrow = y * t.lstride[1] + z * t.lstride[2];
          const std::size_t grow = dev::linearize(
              dims, t.origin[0], t.origin[1] + y, t.origin[2] + z);
          for (std::size_t x = 0; x < t.owned[0]; ++x)
            out[grow + x] = t.buf[lrow + x];
        }
    }
  });
}

template <typename T>
GInterpOutputT<T> compress_impl(std::span<const T> data, const dev::Dim3& dims,
                                double eb, const InterpConfig& cfg,
                                int radius) {
  if (data.size() != dims.volume())
    throw std::invalid_argument("ginterp_compress: size/dims mismatch");
  if (eb <= 0) throw std::invalid_argument("ginterp_compress: eb must be > 0");

  const Geometry geo = geometry_for(dims);
  GInterpOutputT<T> out;
  out.anchors = gather_anchors(data, dims, geo.anchor);
  out.codes.assign(data.size(), static_cast<quant::Code>(radius));

  run_tiles<true, T>(data, {}, out.codes, {}, dims, eb, cfg, radius);
  out.outliers = quant::OutlierSetT<T>::gather(out.codes, data);
  return out;
}

template <typename T>
std::vector<T> decompress_impl(std::span<const quant::Code> codes,
                               std::span<const T> anchors,
                               const quant::OutlierSetT<T>& outliers,
                               const dev::Dim3& dims, double eb,
                               const InterpConfig& cfg, int radius) {
  if (codes.size() != dims.volume())
    throw std::invalid_argument("ginterp_decompress: size/dims mismatch");

  const Geometry geo = geometry_for(dims);
  if (anchors.size() != anchor_dims(dims, geo.anchor).volume())
    throw core::CorruptArchive("ginterp", 0, "anchor count mismatch");
  outliers.check_bounds(dims.volume(), "ginterp");
  std::vector<T> work(dims.volume(), T{0});
  scatter_anchors<T>(anchors, work, dims, geo.anchor);
  outliers.scatter(work);

  std::vector<T> out(dims.volume(), T{0});
  run_tiles<false, T>(work, out, {}, codes, dims, eb, cfg, radius);
  return out;
}

}  // namespace

GInterpOutputT<float> ginterp_compress(std::span<const float> data,
                                       const dev::Dim3& dims, double eb,
                                       const InterpConfig& cfg, int radius) {
  return compress_impl<float>(data, dims, eb, cfg, radius);
}

GInterpOutputT<double> ginterp_compress(std::span<const double> data,
                                        const dev::Dim3& dims, double eb,
                                        const InterpConfig& cfg, int radius) {
  return compress_impl<double>(data, dims, eb, cfg, radius);
}

std::vector<float> ginterp_decompress(std::span<const quant::Code> codes,
                                      std::span<const float> anchors,
                                      const quant::OutlierSetT<float>& outliers,
                                      const dev::Dim3& dims, double eb,
                                      const InterpConfig& cfg, int radius) {
  return decompress_impl<float>(codes, anchors, outliers, dims, eb, cfg,
                                radius);
}

std::vector<double> ginterp_decompress(
    std::span<const quant::Code> codes, std::span<const double> anchors,
    const quant::OutlierSetT<double>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius) {
  return decompress_impl<double>(codes, anchors, outliers, dims, eb, cfg,
                                 radius);
}

LorenzoOutput lorenzo_compress(std::span<const float> data,
                               const dev::Dim3& dims, double eb, int radius) {
  if (data.size() != dims.volume())
    throw std::invalid_argument("lorenzo_compress: size/dims mismatch");
  if (eb <= 0) throw std::invalid_argument("lorenzo_compress: eb must be > 0");

  const double inv = 1.0 / (2.0 * eb);
  std::vector<std::int64_t> d(data.size());
  dev::launch_linear(
      data.size(),
      [&](std::size_t i) {
        d[i] = static_cast<std::int64_t>(
            std::llround(static_cast<double>(data[i]) * inv));
      },
      1 << 14);

  LorenzoOutput out;
  out.codes.resize(data.size());
  std::vector<float> escaped(data.size(), 0.0f);
  const auto nx = dims.x, ny = dims.y;
  dev::launch_linear(
      dims.z,
      [&](std::size_t z) {
        for (std::size_t y = 0; y < ny; ++y) {
          const std::size_t row = dev::linearize(dims, 0, y, z);
          for (std::size_t x = 0; x < nx; ++x) {
            const std::size_t i = row + x;
            auto at = [&](std::size_t dx, std::size_t dy,
                          std::size_t dz) -> std::int64_t {
              if (x < dx || y < dy || z < dz) return 0;
              return d[i - dx - dy * nx - dz * nx * ny];
            };
            const std::int64_t pred = at(1, 0, 0) + at(0, 1, 0) + at(0, 0, 1) -
                                      at(1, 1, 0) - at(1, 0, 1) - at(0, 1, 1) +
                                      at(1, 1, 1);
            const std::int64_t q = d[i] - pred;
            if (q <= -radius || q >= radius) {
              out.codes[i] = quant::kOutlierMarker;
              escaped[i] = static_cast<float>(q);
            } else {
              out.codes[i] = static_cast<quant::Code>(q + radius);
            }
          }
        }
      },
      1);
  out.outliers = quant::OutlierSet::gather(out.codes, escaped);
  return out;
}

}  // namespace szi::predictor::reference
