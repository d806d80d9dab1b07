#include "predictor/lorenzo.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/bytes.hh"
#include "device/launch.hh"
#include "huffman/histogram.hh"

namespace szi::predictor {

namespace {

/// Pre-quantized lattice value d_i = round(v_i / 2eb) in int64 (the paper's
/// ebx2 reciprocal multiply).
void prequantize_into(std::span<const float> data, double eb,
                      std::span<std::int64_t> d) {
  const double inv = 1.0 / (2.0 * eb);
  dev::launch_linear(
      data.size(),
      [&](std::size_t i) {
        d[i] = static_cast<std::int64_t>(
            std::llround(static_cast<double>(data[i]) * inv));
      },
      1 << 14);
}

/// The parallel predict+quantize pass. Every element of `codes` and every
/// escaped slot of `escaped` is written (escaped is only read at marker
/// positions), so unzeroed workspace inputs are safe.
///
/// Interior/rim split (the same treatment as the G-Interp tile pass; the
/// naive per-point-guarded formulation is retained in tests/reference.cc
/// and tests/test_predictor_equiv.cc asserts byte-identical codes): which
/// Lorenzo stencil terms survive the low-boundary guards depends only on
/// (y > 0, z > 0) for a whole row and on x > 0 for its first element, so
/// each row runs one of four specialized bodies whose inner loop over x is
/// branch-free — full 3D stencil, the two 2D face stencils, and the 1D
/// origin row — with the x == 0 rim element peeled off in front.
/// One z-plane of the predict+quantize pass. `on_row(row, nx)` fires after
/// each completed row — a no-op in the plain kernel, the banked histogram
/// accumulation in the fused pipeline (counting while the row's codes are
/// still cache-hot).
template <typename OnRow>
void lorenzo_plane(std::span<const std::int64_t> d, const dev::Dim3& dims,
                   int radius, std::span<quant::Code> codes,
                   std::span<float> escaped, std::size_t z, OnRow&& on_row) {
  const auto nx = dims.x, ny = dims.y;
  const auto sy = static_cast<std::ptrdiff_t>(nx);
  const auto sz = static_cast<std::ptrdiff_t>(nx * ny);
  for (std::size_t y = 0; y < ny; ++y) {
    const std::size_t row = dev::linearize(dims, 0, y, z);
    const std::int64_t* dr = d.data() + row;
    const auto emit = [&](std::size_t x, std::int64_t q) {
      const std::size_t i = row + x;
      if (q <= -radius || q >= radius) {
        codes[i] = quant::kOutlierMarker;
        escaped[i] = static_cast<float>(q);
      } else {
        codes[i] = static_cast<quant::Code>(q + radius);
      }
    };
    if (y > 0 && z > 0) {  // interior rows: full 3D stencil
      emit(0, dr[0] - (dr[-sy] + dr[-sz] - dr[-sy - sz]));
      for (std::size_t x = 1; x < nx; ++x) {
        const std::int64_t* p = dr + x;
        const std::int64_t pred = p[-1] + p[-sy] + p[-sz] - p[-1 - sy] -
                                  p[-1 - sz] - p[-sy - sz] +
                                  p[-1 - sy - sz];
        emit(x, p[0] - pred);
      }
    } else if (y > 0) {  // z == 0 face (the whole field when 2D)
      emit(0, dr[0] - dr[-sy]);
      for (std::size_t x = 1; x < nx; ++x) {
        const std::int64_t* p = dr + x;
        emit(x, p[0] - (p[-1] + p[-sy] - p[-1 - sy]));
      }
    } else if (z > 0) {  // y == 0 face
      emit(0, dr[0] - dr[-sz]);
      for (std::size_t x = 1; x < nx; ++x) {
        const std::int64_t* p = dr + x;
        emit(x, p[0] - (p[-1] + p[-sz] - p[-1 - sz]));
      }
    } else {  // origin row: pure 1D
      emit(0, dr[0]);
      for (std::size_t x = 1; x < nx; ++x) emit(x, dr[x] - dr[x - 1]);
    }
    on_row(row, nx);
  }
}

void lorenzo_kernel(std::span<const std::int64_t> d, const dev::Dim3& dims,
                    int radius, std::span<quant::Code> codes,
                    std::span<float> escaped) {
  dev::launch_linear(
      dims.z,
      [&](std::size_t z) {
        lorenzo_plane(d, dims, radius, codes, escaped, z,
                      [](std::size_t, std::size_t) {});
      },
      1);
}

/// Fused predict+histogram: z-planes statically partitioned into contiguous
/// per-worker ranges (same worker sizing as the standalone histogram
/// kernel); each worker counts every row it emits into its private banked
/// histogram. Codes/escaped are identical to lorenzo_kernel and the folded
/// totals equal huffman::histogram(codes, nbins) exactly.
std::vector<std::uint32_t> lorenzo_kernel_fused(
    std::span<const std::int64_t> d, const dev::Dim3& dims, int radius,
    std::span<quant::Code> codes, std::span<float> escaped,
    dev::Workspace& ws) {
  const std::size_t nbins = 2 * static_cast<std::size_t>(radius);
  const std::size_t nworkers =
      std::min(huffman::histogram_workers(codes.size()),
               std::max<std::size_t>(dims.z, 1));
  const std::size_t per = dev::ceil_div(dims.z, nworkers);
  auto parts =
      ws.make<std::uint32_t>(nworkers * huffman::kHistogramBanks * nbins);
  dev::launch_linear(
      nworkers,
      [&](std::size_t w) {
        std::uint32_t* h =
            parts.data() + w * huffman::kHistogramBanks * nbins;
        std::fill_n(h, huffman::kHistogramBanks * nbins, 0u);
        const std::size_t zb = w * per;
        const std::size_t ze = std::min(zb + per, dims.z);
        for (std::size_t z = zb; z < ze; ++z)
          lorenzo_plane(d, dims, radius, codes, escaped, z,
                        [&](std::size_t row, std::size_t nx) {
                          huffman::accumulate_banked(codes.data() + row, nx, h,
                                                     nbins);
                        });
      },
      1);
  return huffman::merge_histograms(
      parts, nworkers * huffman::kHistogramBanks, nbins);
}

void check_compress_args(std::span<const float> data, const dev::Dim3& dims,
                         double eb) {
  if (data.size() != dims.volume())
    throw std::invalid_argument("lorenzo_compress: size/dims mismatch");
  if (eb <= 0) throw std::invalid_argument("lorenzo_compress: eb must be > 0");
}

}  // namespace

LorenzoOutput lorenzo_compress(std::span<const float> data,
                               const dev::Dim3& dims, double eb, int radius) {
  check_compress_args(data, dims, eb);

  std::vector<std::int64_t> d(data.size());
  prequantize_into(data, eb, d);
  LorenzoOutput out;
  out.codes.resize(data.size());
  // q values that escape the radius; gathered after the parallel pass.
  std::vector<float> escaped(data.size(), 0.0f);
  lorenzo_kernel(d, dims, radius, out.codes, escaped);
  out.outliers = quant::OutlierSet::gather(out.codes, escaped);
  return out;
}

LorenzoView lorenzo_compress(std::span<const float> data, const dev::Dim3& dims,
                             double eb, int radius, dev::Workspace& ws) {
  check_compress_args(data, dims, eb);

  auto d = ws.make<std::int64_t>(data.size());
  prequantize_into(data, eb, d);
  auto codes = ws.make<quant::Code>(data.size());
  auto escaped = ws.make<float>(data.size());
  lorenzo_kernel(d, dims, radius, codes, escaped);
  LorenzoView out;
  out.codes = codes;
  out.outliers = quant::gather_outliers<float>(codes, escaped, ws);
  return out;
}

LorenzoFused lorenzo_compress_fused(std::span<const float> data,
                                    const dev::Dim3& dims, double eb,
                                    int radius, dev::Workspace& ws) {
  check_compress_args(data, dims, eb);

  auto d = ws.make<std::int64_t>(data.size());
  prequantize_into(data, eb, d);
  auto codes = ws.make<quant::Code>(data.size());
  auto escaped = ws.make<float>(data.size());
  LorenzoFused out;
  out.histogram = lorenzo_kernel_fused(d, dims, radius, codes, escaped, ws);
  out.pred.codes = codes;
  out.pred.outliers = quant::gather_outliers<float>(codes, escaped, ws);
  return out;
}

std::vector<float> lorenzo_decompress(std::span<const quant::Code> codes,
                                      const quant::OutlierSet& outliers,
                                      const dev::Dim3& dims, double eb,
                                      int radius) {
  if (codes.size() != dims.volume())
    throw std::invalid_argument("lorenzo_decompress: size/dims mismatch");
  // Outlier indices come from the archive and index into q below.
  outliers.check_bounds(dims.volume(), "lorenzo");

  // Rebuild the q field (outlier q's were stored exactly as floats).
  std::vector<std::int64_t> q(codes.size());
  dev::launch_linear(
      codes.size(),
      [&](std::size_t i) {
        q[i] = codes[i] == quant::kOutlierMarker
                   ? 0
                   : static_cast<std::int64_t>(codes[i]) - radius;
      },
      1 << 14);
  dev::launch_linear(
      outliers.count(),
      [&](std::size_t k) {
        q[outliers.indices[k]] =
            static_cast<std::int64_t>(std::llround(outliers.values[k]));
      },
      1 << 12);

  // Invert the Lorenzo stencil: inclusive prefix sums along x, y, z. Each
  // pass is parallel across the other two dimensions (cuSZ's partial-sum
  // decompression kernels).
  const auto nx = dims.x, ny = dims.y, nz = dims.z;
  dev::launch_linear(
      ny * nz,
      [&](std::size_t yz) {
        std::int64_t* row = q.data() + yz * nx;
        for (std::size_t x = 1; x < nx; ++x) row[x] += row[x - 1];
      },
      4);
  if (ny > 1)
    dev::launch_linear(
        nz,
        [&](std::size_t z) {
          std::int64_t* plane = q.data() + z * nx * ny;
          for (std::size_t y = 1; y < ny; ++y)
            for (std::size_t x = 0; x < nx; ++x)
              plane[y * nx + x] += plane[(y - 1) * nx + x];
        },
        1);
  if (nz > 1)
    dev::launch_linear(
        ny,
        [&](std::size_t y) {
          for (std::size_t z = 1; z < nz; ++z) {
            std::int64_t* cur = q.data() + (z * ny + y) * nx;
            const std::int64_t* prev = q.data() + ((z - 1) * ny + y) * nx;
            for (std::size_t x = 0; x < nx; ++x) cur[x] += prev[x];
          }
        },
        1);

  std::vector<float> out(codes.size());
  const double twice_eb = 2.0 * eb;
  dev::launch_linear(
      out.size(),
      [&](std::size_t i) {
        out[i] = static_cast<float>(twice_eb * static_cast<double>(q[i]));
      },
      1 << 14);
  return out;
}

}  // namespace szi::predictor
