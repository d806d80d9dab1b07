#include "predictor/ginterp.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "core/bytes.hh"
#include "device/launch.hh"
#include "device/simd.hh"
#include "huffman/histogram.hh"
#include "predictor/anchor.hh"
#include "predictor/spline.hh"

namespace szi::predictor {

namespace {

/// Largest closed-tile volume across the per-rank geometries (33*9*9).
constexpr std::size_t kMaxTileVolume = 33 * 9 * 9;

/// Tail padding behind the used tile region. The stride-2 AVX2 interp walk
/// deinterleaves 16-element windows (values and codes alike) whose last
/// element sits one past the final stride-2 lane it actually uses; padding
/// keeps that discarded over-read inside the arrays when the used region
/// fills them exactly. Never consumed.
constexpr std::size_t kTilePad = 8;

/// One tile's closed region: values and quant-codes at the same local
/// offsets. The codes are value-initialized with the view, so the anchor
/// slots and padding that stride-2 vector loads read as discarded lanes are
/// never indeterminate.
template <typename T>
struct TileView {
  std::array<T, kMaxTileVolume + kTilePad> buf;
  std::array<quant::Code, kMaxTileVolume + kTilePad> codes{};
  std::array<std::size_t, 3> origin;  ///< lattice coords of local (0,0,0)
  std::array<std::size_t, 3> extent;  ///< closed local extent per dim
  std::array<std::size_t, 3> lstride; ///< local linear strides per dim
  std::array<std::size_t, 3> owned;   ///< owned extent (<= tile size)
};

std::size_t dim_of(const dev::Dim3& d, int i) {
  return i == 0 ? d.x : (i == 1 ? d.y : d.z);
}

/// Immutable copy of one global z-plane (dims.x*dims.y elements) substituted
/// for the source buffer when a tile's closed-region load crosses it. The
/// slab-parallel reconstructor uses this to read +z borders from a
/// post-scatter snapshot instead of a neighbor slab's in-flight output.
template <typename T>
struct PlaneOverride {
  const T* plane = nullptr;
  std::size_t z = 0;
};

/// The lattice a tile walk runs on and the buffer window it addresses. A
/// level-L reconstruction runs on the positions whose interpolated
/// coordinates are multiples of scale = 2^(L-1), in lattice coordinates:
/// extents ceil(dims / scale), tiles tile / scale (degenerate dims have
/// extent and tile 1 and stay whole). The field buffer a tile loads from
/// and writes back to spans the lattice window [lo, lo + buf): the whole
/// lattice, or the closed box of an ROI. Compression and full decode use
/// the whole field at scale 1.
struct Frame {
  dev::Dim3 grid;
  dev::Dim3 tile;
  std::size_t scale = 1;
  dev::Dim3 lo{0, 0, 0};
  dev::Dim3 buf;
};

/// What a tile walk touches in each direction: compress reads the field;
/// decode reconstructs it in place (closed-region loads and owned
/// write-backs hit one buffer). The codes stay in the TileView.
template <bool kCompress, typename T>
using TileField =
    std::conditional_t<kCompress, std::span<const T>, std::span<T>>;

Frame lattice_frame(const dev::Dim3& dims, const Geometry& geo,
                    std::size_t scale) {
  const auto sc = [scale](std::size_t n) { return dev::ceil_div(n, scale); };
  Frame f;
  f.grid = {sc(dims.x), sc(dims.y), sc(dims.z)};
  f.tile = {sc(geo.tile.x), sc(geo.tile.y), sc(geo.tile.z)};
  f.scale = scale;
  f.buf = f.grid;
  return f;
}

#if defined(__x86_64__)

// ---- AVX2 interior-cubic decompress walk (f32) -------------------------
//
// The finest interpolation level's interior-cubic planes dominate
// decompression: every pass with the fast-varying dimension already done
// (or pending) walks targets at local stride 1 or 2 while reading four
// neighbor rows at the same stride. These kernels run 8 targets per step,
// replicating the scalar arithmetic operation for operation:
//   cubic_nak      (((-a) + (9*b)) + (9*c) - d) * (1/16)       [f32 ops]
//   cubic_natural  (((-3*a) + (23*b)) + (23*c)) - (3*d), *(1/40)
//   dequantize     f32(f64(pred) + twice_eb * f64(stored - radius)),
//                  marker code 0 keeps the scattered value
// No FMA exists at baseline x86-64 and target("avx2") does not enable it,
// so neither side can contract the mul/add chains — each lane rounds where
// the scalar rounds and the reconstruction is bit-identical
// (tests/test_decode_equiv.cc + the SZI_NO_AVX2 determinism instance).

/// Even-indexed floats of the 16-float window at `p` (stride-2 gather).
/// Reads p[0..15]; the odd lanes are discarded, and the one float past the
/// last used element stays inside the tile buffer thanks to kTilePad.
[[gnu::target("avx2")]] inline __m256 deinterleave_even(const float* p) {
  const __m256 a = _mm256_loadu_ps(p);
  const __m256 b = _mm256_loadu_ps(p + 8);
  const __m256 s = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_castpd_ps(
      _mm256_permute4x64_pd(_mm256_castps_pd(s), _MM_SHUFFLE(3, 1, 2, 0)));
}

/// Scatters 8 floats to p[0], p[2], ..., p[14] without touching the odd
/// lanes (maskstore leaves unselected lanes unwritten).
[[gnu::target("avx2")]] inline void interleave_even_store(float* p, __m256 r) {
  const __m256i lo = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  const __m256i hi = _mm256_setr_epi32(4, 4, 5, 5, 6, 6, 7, 7);
  const __m256i even = _mm256_setr_epi32(-1, 0, -1, 0, -1, 0, -1, 0);
  _mm256_maskstore_ps(p, even, _mm256_permutevar8x32_ps(r, lo));
  _mm256_maskstore_ps(p + 8, even, _mm256_permutevar8x32_ps(r, hi));
}

/// quant::Quantizer::dequantize for 8 lanes: two f64x4 halves compute
/// pred + twice_eb * (stored - radius) with the scalar's rounding sequence
/// (one mul, one add, one f64->f32 round-to-nearest-even); marker lanes
/// keep the scattered value.
[[gnu::target("avx2")]] inline __m256 dequantize8(__m256 pred, __m256i stored,
                                                  __m256 scattered,
                                                  __m256d twice_eb,
                                                  __m256i radius) {
  const __m256i q = _mm256_sub_epi32(stored, radius);
  const __m256d plo = _mm256_cvtps_pd(_mm256_castps256_ps128(pred));
  const __m256d phi = _mm256_cvtps_pd(_mm256_extractf128_ps(pred, 1));
  const __m256d qlo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(q));
  const __m256d qhi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(q, 1));
  const __m128 rlo =
      _mm256_cvtpd_ps(_mm256_add_pd(plo, _mm256_mul_pd(twice_eb, qlo)));
  const __m128 rhi =
      _mm256_cvtpd_ps(_mm256_add_pd(phi, _mm256_mul_pd(twice_eb, qhi)));
  const __m256 r = _mm256_set_m128(rhi, rlo);
  const __m256 keep = _mm256_castsi256_ps(
      _mm256_cmpeq_epi32(stored, _mm256_setzero_si256()));
  return _mm256_blendv_ps(r, scattered, keep);
}

/// 8-lane spline_predict interior case, scalar op order per lane.
template <bool kNak>
[[gnu::target("avx2")]] inline __m256 cubic8(__m256 a, __m256 b, __m256 c,
                                             __m256 d) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  if constexpr (kNak) {
    const __m256 nine = _mm256_set1_ps(9.0f);
    __m256 t = _mm256_add_ps(_mm256_xor_ps(a, sign), _mm256_mul_ps(nine, b));
    t = _mm256_add_ps(t, _mm256_mul_ps(nine, c));
    t = _mm256_sub_ps(t, d);
    return _mm256_mul_ps(t, _mm256_set1_ps(1.0f / 16.0f));
  } else {
    __m256 t = _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(-3.0f), a),
                             _mm256_mul_ps(_mm256_set1_ps(23.0f), b));
    t = _mm256_add_ps(t, _mm256_mul_ps(_mm256_set1_ps(23.0f), c));
    t = _mm256_sub_ps(t, _mm256_mul_ps(_mm256_set1_ps(3.0f), d));
    return _mm256_mul_ps(t, _mm256_set1_ps(1.0f / 40.0f));
  }
}

/// Vector part of one interior-cubic decompress row: processes the longest
/// prefix of the `n` targets it can in 8-lane steps and returns how many it
/// handled (the caller finishes the tail with the scalar walk). `row` is
/// the first target in the tile's (padded) value buffer, `cp` its
/// quant-code in the tile's (padded alike) code array.
template <bool kNak, int kStride>
[[gnu::target("avx2")]] std::size_t cubic_row_avx2(
    float* row, std::ptrdiff_t o1, std::ptrdiff_t o3, const quant::Code* cp,
    std::size_t n, double twice_eb_v, int radius_v) {
  const __m256d twice_eb = _mm256_set1_pd(twice_eb_v);
  const __m256i radius = _mm256_set1_epi32(radius_v);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const std::size_t off = k * kStride;
    __m256 a, b, c, d, scattered;
    __m256i stored;
    if constexpr (kStride == 1) {
      a = _mm256_loadu_ps(row + off - o3);
      b = _mm256_loadu_ps(row + off - o1);
      c = _mm256_loadu_ps(row + off + o1);
      d = _mm256_loadu_ps(row + off + o3);
      scattered = _mm256_loadu_ps(row + off);
      stored = _mm256_cvtepu16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cp + off)));
    } else {
      a = deinterleave_even(row + off - o3);
      b = deinterleave_even(row + off - o1);
      c = deinterleave_even(row + off + o1);
      d = deinterleave_even(row + off + o3);
      scattered = deinterleave_even(row + off);
      // Little-endian: the low u16 of each u32 in the window is the code at
      // even offset 0, 2, ..., 14.
      stored = _mm256_and_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cp + off)),
          _mm256_set1_epi32(0xFFFF));
    }
    const __m256 r =
        dequantize8(cubic8<kNak>(a, b, c, d), stored, scattered, twice_eb,
                    radius);
    if constexpr (kStride == 1) {
      _mm256_storeu_ps(row + off, r);
    } else {
      interleave_even_store(row + off, r);
    }
  }
  return k;
}

#endif  // __x86_64__

/// One (stride, dimension) interpolation pass over a tile. Shared between
/// compression and decompression; `kCompress` selects which side of the
/// quantizer runs.
///
/// Interior/rim optimization. The naive walk (retained verbatim in
/// tests/reference.cc) re-derived four neighbor-availability flags, a
/// three-multiply dev::linearize, and an ownership test for *every* target
/// point. But within one pass every quantity that used to be guarded depends
/// only on the coordinate `cd` along the target dimension d:
///   - availability (ha/hb/hc/hd) is a function of cd alone, so the spline
///     dispatch hoists to one selection per cd value — the interior cd range
///     (all four neighbors present) runs the pure cubic kernel with zero
///     per-point branches, and the rim cd values (cd = s, and the trailing
///     one-sided cases) each get their own specialized branchless walk;
///   - ownership along d is `cd < owned[d]`; ownership along the plane dims
///     splits the inner loop into an emitting prefix and a (<= 1 iteration)
///     non-emitting border tail instead of a per-point test;
///   - a point's value and code share one local offset, which advances by
///     a per-iteration constant stride instead of per-point multiplies.
/// Iteration order across points of one pass is free: a pass writes only
/// odd multiples of s along d and reads only even multiples, so no written
/// value is ever an input to the same pass. Per-point arithmetic (spline
/// formula, quantizer) is untouched — codes and recon are byte-identical to
/// the reference by construction, which tests/test_predictor_equiv.cc
/// asserts over odd/even/tiny grids.
template <bool kCompress, typename T>
void tile_pass(TileView<T>& t, int d, std::size_t s,
               const std::array<bool, 3>& done, const quant::Quantizer& qz,
               CubicKind kind) {
  // Plane dims: u is the faster-varying one (x unless d == 0), v the other.
  const auto u = static_cast<std::size_t>(d == 0 ? 1 : 0);
  const auto v = static_cast<std::size_t>(d == 2 ? 1 : 2);
  const auto dd = static_cast<std::size_t>(d);

  // The target dim walks odd multiples of s; dims already interpolated at
  // this level walk multiples of s; pending dims walk multiples of 2s
  // (§V-A's pass ordering).
  const std::size_t step_u = done[u] ? s : 2 * s;
  const std::size_t step_v = done[v] ? s : 2 * s;
  const std::size_t ext_d = t.extent[dd];

  const std::size_t ls_v = t.lstride[v];
  const std::size_t ls_d = t.lstride[dd];
  const std::size_t dp = step_u * t.lstride[u];

  // Neighbor offsets along d, as signed offsets from the target pointer.
  const auto o1 = static_cast<std::ptrdiff_t>(s * ls_d);
  const std::ptrdiff_t o3 = 3 * o1;

  // Inner-loop trip counts: total, and the emitting prefix (pu < owned[u]).
  const std::size_t n_u = dev::ceil_div(t.extent[u], step_u);
  const std::size_t n_u_owned = std::min(n_u, dev::ceil_div(t.owned[u], step_u));

  for (std::size_t cd = s; cd < ext_d; cd += 2 * s) {
    // Neighbor availability for this whole plane (hb := cd >= s holds by
    // construction of the walk).
    const bool ha = cd >= 3 * s;
    const bool hc = cd + s < ext_d;
    const bool hd = cd + 3 * s < ext_d;
    const bool owned_d = cd < t.owned[dd];

    // One full plane with a fixed predictor functor; `pred(p)` reads only
    // the neighbors its availability case guarantees exist.
    auto walk = [&](auto pred) {
      for (std::size_t pv = 0; pv < t.extent[v]; pv += step_v) {
        const std::size_t off = cd * ls_d + pv * ls_v;
        T* p = t.buf.data() + off;
        quant::Code* c = t.codes.data() + off;
        if constexpr (kCompress) {
          const std::size_t n_emit =
              owned_d && pv < t.owned[v] ? n_u_owned : 0;
          std::size_t k = 0;
          for (; k < n_emit; ++k, p += dp, c += dp) {
            const auto r = qz.quantize(*p, pred(p));
            *p = r.recon;
            *c = r.stored;
          }
          // Border tail: recon feeds later passes, but no code is owned.
          for (; k < n_u; ++k, p += dp) *p = qz.quantize(*p, pred(p)).recon;
        } else {
          // buf[idx] holds the scattered original when the code is the
          // outlier marker; dequantize() returns it unchanged then.
          for (std::size_t k = 0; k < n_u; ++k, p += dp, c += dp)
            *p = qz.dequantize(*c, pred(p), *p);
        }
      }
    };

    if (hc) {
      if (ha && hd) {
#if defined(__x86_64__)
        // Interior-cubic decompression at unit or double local stride (the
        // fast-varying dimension at the finest levels) takes the 8-lane
        // AVX2 walk when the host has it; the scalar tail below the vector
        // prefix runs the exact expressions the generic walk would.
        if constexpr (!kCompress && std::is_same_v<T, float>) {
          if ((dp == 1 || dp == 2) && n_u >= 8 && dev::has_avx2()) {
            const bool nak = kind == CubicKind::NotAKnot;
            const double teb = 2.0 * qz.eb();
            const int rad = qz.radius();
            for (std::size_t pv = 0; pv < t.extent[v]; pv += step_v) {
              const std::size_t off = cd * ls_d + pv * ls_v;
              float* p = t.buf.data() + off;
              const quant::Code* c = t.codes.data() + off;
              std::size_t k;
              if (dp == 1)
                k = nak ? cubic_row_avx2<true, 1>(p, o1, o3, c, n_u, teb, rad)
                        : cubic_row_avx2<false, 1>(p, o1, o3, c, n_u, teb,
                                                   rad);
              else
                k = nak ? cubic_row_avx2<true, 2>(p, o1, o3, c, n_u, teb, rad)
                        : cubic_row_avx2<false, 2>(p, o1, o3, c, n_u, teb,
                                                   rad);
              p += k * dp;
              c += k * dp;
              for (; k < n_u; ++k, p += dp, c += dp) {
                const float pr = nak
                                     ? cubic_nak(p[-o3], p[-o1], p[o1], p[o3])
                                     : cubic_natural(p[-o3], p[-o1], p[o1],
                                                     p[o3]);
                *p = qz.dequantize(*c, pr, *p);
              }
            }
            continue;
          }
        }
#endif
        // Interior: the branchless cubic walk (the overwhelming majority of
        // points at fine strides).
        if (kind == CubicKind::NotAKnot)
          walk([=](const T* p) { return cubic_nak(p[-o3], p[-o1], p[o1], p[o3]); });
        else
          walk([=](const T* p) {
            return cubic_natural(p[-o3], p[-o1], p[o1], p[o3]);
          });
      } else if (ha) {
        walk([=](const T* p) { return quad_left(p[-o3], p[-o1], p[o1]); });
      } else if (hd) {
        walk([=](const T* p) { return quad_right(p[-o1], p[o1], p[o3]); });
      } else {
        walk([=](const T* p) { return linear(p[-o1], p[o1]); });
      }
    } else {
      walk([=](const T* p) { return p[-o1]; });  // one-sided nearest copy
    }
  }
}

/// Per-level quantizers for a field, indexed by level - 1.
std::vector<quant::Quantizer> make_level_quantizers(double eb,
                                                    const InterpConfig& cfg,
                                                    const Geometry& geo,
                                                    int radius) {
  const int nlevels = interp_levels(geo);
  std::vector<quant::Quantizer> level_qz;
  level_qz.reserve(static_cast<std::size_t>(nlevels));
  for (int l = 1; l <= nlevels; ++l)
    level_qz.emplace_back(level_eb(eb, cfg.alpha, l), radius);
  return level_qz;
}

// ---- Level classification helpers ---------------------------------------
//
// A dimension is "interpolated" when its per-dim anchor stride exceeds 1;
// for those dims the anchor stride is uniformly 2^interp_levels(geo).
// Degenerate dims (anchor stride 1 — e.g. z under the 2D geometry) hold an
// anchor plane at every coordinate, so they never constrain a position's
// level. A non-anchor position's level is the 2-adic valuation of the OR of
// its interpolated coordinates, plus one.

struct InterpDims {
  bool ix, iy, iz;
  int nlevels;
};

InterpDims interp_dims_of(const dev::Dim3& dims) {
  const Geometry geo = geometry_for(dims);
  return {geo.anchor.x > 1, geo.anchor.y > 1, geo.anchor.z > 1,
          interp_levels(geo)};
}

/// Multiples of m in [0, n); m is a power of two (every stride is), so the
/// count is a shift.
std::size_t nmul(std::size_t n, std::size_t m) {
  return (n + m - 1) >> std::countr_zero(m);
}

/// Count along one axis of the stride-m grid positions in [0, n);
/// non-interpolated axes are unconstrained.
std::size_t axis_count(std::size_t n, bool interp, std::size_t m) {
  return interp ? nmul(n, m) : n;
}

/// Number of level-v (0-based) positions inside the box [0,a)x[0,b)x[0,c):
/// the stride-s grid minus the stride-2s grid over the interpolated dims.
/// With s = top_stride the 2s grid is exactly the anchor grid, so the level
/// volumes plus the anchor count telescope to the full box volume.
std::size_t level_box(std::size_t a, std::size_t b, std::size_t c,
                      const InterpDims& id, std::size_t s) {
  return axis_count(a, id.ix, s) * axis_count(b, id.iy, s) *
             axis_count(c, id.iz, s) -
         axis_count(a, id.ix, 2 * s) * axis_count(b, id.iy, 2 * s) *
             axis_count(c, id.iz, 2 * s);
}

/// Positions of level v within one x-row: start/step of the arithmetic
/// progression, or step == 0 when the row holds none. vyz is the valuation
/// of the row's interpolated y/z coordinates: rows at exactly the level's
/// stride own every stride-s x, coarser rows only the odd multiples.
struct RowPattern {
  std::size_t start = 0, step = 0;
};

RowPattern row_pattern(std::size_t y, std::size_t z, const InterpDims& id,
                       int v, std::size_t s) {
  const std::size_t m = (id.iy ? y : 0) | (id.iz ? z : 0);
  const int vyz = m == 0 ? id.nlevels : std::countr_zero(m);
  if (vyz < v) return {0, 0};
  if (vyz == v) return {0, s};
  return {s, 2 * s};
}

/// Rank of the first level-v position of row (y, z): the closed-form count
/// of level-v positions before the row in z-major linear order. Rows and
/// planes contribute via the same grid differencing as level_box;
/// divisibility of y/z by s and 2s gates the partial-plane and partial-row
/// terms.
std::size_t level_rank(const dev::Dim3& dims, const InterpDims& id, int v,
                       std::size_t y, std::size_t z) {
  const std::size_t s = std::size_t{1} << v;
  const auto on = [](std::size_t c, bool interp, std::size_t m) {
    return !interp || (c & (m - 1)) == 0;
  };
  std::size_t r = level_box(dims.x, dims.y, z, id, s);
  if (on(z, id.iz, s))
    r += axis_count(dims.x, id.ix, s) * axis_count(y, id.iy, s);
  if (on(z, id.iz, 2 * s))
    r -= axis_count(dims.x, id.ix, 2 * s) * axis_count(y, id.iy, 2 * s);
  return r;
}

/// The rank walk both directions share: the positions of levels v >= v0
/// (all on the scale-S lattice, S <= 2^v0) inside the lattice box
/// [lo, lo + ext), as runs fn(v, rank, count, x, y, z, step) of `count`
/// level-v positions at box-local (x + i*step, y, z) holding ranks
/// [rank, rank + count). One level_rank per z-plane and level; each lattice
/// row advances it by the row's closed-form count (the rows between
/// lattice rows hold no position of these levels).
template <typename Fn>
void for_each_level_run(const dev::Dim3& dims, const InterpDims& id,
                        std::size_t v0, std::size_t S, const dev::Dim3& lo,
                        const dev::Dim3& ext, Fn&& fn) {
  const std::size_t gx0 = lo.x * S;
  const std::size_t gx1 = (lo.x + ext.x - 1) * S + 1;
  const int shs = std::countr_zero(S);
  for (std::size_t z = 0; z < ext.z; ++z) {
    const std::size_t gz = (lo.z + z) * S;
    for (std::size_t v = v0; v < static_cast<std::size_t>(id.nlevels); ++v) {
      const std::size_t s = std::size_t{1} << v;
      if (id.iz && (gz & (s - 1)) != 0) continue;  // no level-v row here
      std::size_t rank =
          level_rank(dims, id, static_cast<int>(v), lo.y * S, gz);
      for (std::size_t y = 0; y < ext.y; ++y) {
        const RowPattern p =
            row_pattern((lo.y + y) * S, gz, id, static_cast<int>(v), s);
        if (p.step == 0 || p.start >= dims.x) continue;
        const int sh = std::countr_zero(p.step);
        const std::size_t row_n = ((dims.x - 1 - p.start) >> sh) + 1;
        const std::size_t skip =
            gx0 <= p.start ? 0 : (gx0 - p.start + p.step - 1) >> sh;
        const std::size_t x = p.start + (skip << sh);
        if (x < gx1)
          fn(v, rank + skip, std::min(row_n - skip, ((gx1 - 1 - x) >> sh) + 1),
             (x >> shs) - lo.x, y, z, p.step >> shs);
        rank += row_n;
      }
    }
  }
}

/// Places `t` on tile `blk` of frame `f`'s lattice: origin, owned and
/// closed extents (clamped to the lattice) and local strides.
template <typename T>
void place_tile(TileView<T>& t, const dev::BlockIdx& blk, const Frame& f) {
  t.origin = {blk.x * f.tile.x, blk.y * f.tile.y, blk.z * f.tile.z};
  for (int i = 0; i < 3; ++i) {
    const std::size_t nd = dim_of(f.grid, i);
    const std::size_t td = dim_of(f.tile, i);
    t.owned[i] = std::min(td, nd - t.origin[i]);
    t.extent[i] = std::min(td + 1, nd - t.origin[i]);
  }
  t.lstride = {1, t.extent[0], t.extent[0] * t.extent[1]};
}

/// The complete per-tile interpolation body (load closed region, run every
/// (stride, dimension) pass, write back the owned region on decompression)
/// for the tile `t` is placed on (place_tile) in frame `f`'s lattice. Its
/// two callers are the fused compress path, which re-buckets `t.codes`
/// into the level streams while they are cache-hot, and the reconstructor,
/// which fills `t.codes` from the level windows beforehand and decodes
/// `field` in place. Loads and write-backs address the frame's buffer
/// window, which must contain the tile's closed region. A lattice of scale
/// S runs the global strides top_stride .. S as local strides s / S, each
/// with its global level's quantizer.
template <bool kCompress, typename T>
void run_one_tile(TileView<T>& t, TileField<kCompress, T> field,
                  const dev::Dim3& dims, const InterpConfig& cfg,
                  const Geometry& geo,
                  std::span<const quant::Quantizer> level_qz, const Frame& f,
                  PlaneOverride<T> po = {}) {
  const std::array<std::size_t, 3> bo = {
      t.origin[0] - f.lo.x, t.origin[1] - f.lo.y, t.origin[2] - f.lo.z};

  // Load the closed region, one contiguous x-row memcpy at a time (local
  // and buffer x strides are both 1). For the slab-parallel reconstructor a
  // z-plane crossing into the next slab loads from the immutable snapshot
  // in `po` instead of `field`, so the load never races a neighbor slab's
  // writes; compression reads `field` only.
  for (std::size_t z = 0; z < t.extent[2]; ++z) {
    const std::size_t gz = t.origin[2] + z;
    const T* splane = (po.plane != nullptr && gz == po.z) ? po.plane : nullptr;
    for (std::size_t y = 0; y < t.extent[1]; ++y) {
      const std::size_t lrow = y * t.lstride[1] + z * t.lstride[2];
      const T* grow =
          splane != nullptr
              ? splane + (bo[1] + y) * f.buf.x + bo[0]
              : field.data() +
                    dev::linearize(f.buf, bo[0], bo[1] + y, bo[2] + z);
      std::memcpy(t.buf.data() + lrow, grow, t.extent[0] * sizeof(T));
    }
  }

  // Level-by-level, dimension-by-dimension interpolation, down to the
  // lattice's own level: a pass at stride s reads and writes only stride-s
  // grid positions, so the finer levels never feed the ones that ran.
  for (std::size_t s = geo.top_stride; s >= f.scale; s >>= 1) {
    std::array<bool, 3> done{false, false, false};
    const quant::Quantizer& qz =
        level_qz[static_cast<std::size_t>(level_of_stride(s) - 1)];
    for (int k = 0; k < 3; ++k) {
      const int d = cfg.dim_order[k];
      if (dim_of(dims, d) == 1) continue;
      tile_pass<kCompress>(t, d, s / f.scale, done, qz,
                           cfg.cubic[static_cast<std::size_t>(d)]);
      done[static_cast<std::size_t>(d)] = true;
    }
  }

  if constexpr (!kCompress) {
    // Write back the owned region, again as contiguous x-row memcpys.
    for (std::size_t z = 0; z < t.owned[2]; ++z)
      for (std::size_t y = 0; y < t.owned[1]; ++y) {
        const std::size_t lrow = y * t.lstride[1] + z * t.lstride[2];
        const std::size_t grow =
            dev::linearize(f.buf, bo[0], bo[1] + y, bo[2] + z);
        std::memcpy(field.data() + grow, t.buf.data() + lrow,
                    t.owned[0] * sizeof(T));
      }
  }
}

/// The fused predict pass with per-level emission (the compress front end).
///
/// Tiles are statically partitioned into contiguous ranges over a fixed
/// worker count (sized exactly like the standalone histogram kernel, so the
/// fused pass never spawns more accumulation workers than counting the codes
/// afterwards would). Each worker keeps one TileView and, per tile:
///   1. runs the tile passes (run_one_tile), which write a code for every
///      owned non-anchor position into the view's code array. Only those
///      positions are read back, so no tile prefills the array;
///   2. re-buckets the owned region into the per-level streams while its
///      codes are still cache-hot, by the rank walk the decoder fills tiles
///      with (for_each_level_run). Every level-v position's slot is its
///      closed-form rank, so workers write disjoint stream ranges and the
///      streams come out in ascending linear order — byte-identical to a
///      serial left-to-right split no matter how tiles were partitioned.
///      The same walk counts the per-level histograms (plain per-worker
///      partials, folded in fixed order) and collects the outliers —
///      (global index, original value) pairs wherever the code is the
///      outlier marker — into a private list. Anchors never carry a code,
///      so no other position can hold the marker.
/// Codes are bit-identical to the naive whole-field tile walk that
/// tests/reference.cc keeps as the oracle (same writes, same values).
/// The merged outlier lists are sorted by global index before being exposed;
/// indices are unique (one per position), so the sorted sequence is exactly
/// the ascending-index order a single left-to-right scan produces, and the
/// serialized outlier blob is byte-identical to the gather_outliers output
/// no matter how tiles were partitioned across workers.
template <typename T>
GInterpLevelsT<T> compress_fused_levels_impl(std::span<const T> data,
                                             const dev::Dim3& dims, double eb,
                                             const InterpConfig& cfg,
                                             int radius, dev::Workspace& ws) {
  if (data.size() != dims.volume())
    throw std::invalid_argument(
        "ginterp_compress_fused_levels: size/dims mismatch");
  if (eb <= 0)
    throw std::invalid_argument(
        "ginterp_compress_fused_levels: eb must be > 0");

  const Geometry geo = geometry_for(dims);
  auto anchors = ws.make<T>(anchor_dims(dims, geo.anchor).volume());
  gather_anchors_into<T>(data, dims, geo.anchor, anchors);

  const std::size_t nbins = 2 * static_cast<std::size_t>(radius);

  const InterpDims id = interp_dims_of(dims);
  const auto nlv = static_cast<std::size_t>(id.nlevels);
  std::vector<std::span<quant::Code>> streams(nlv);
  for (std::size_t v = 0; v < nlv; ++v)
    streams[v] =
        ws.make<quant::Code>(ginterp_level_volume(dims, static_cast<int>(v) + 1));

  const auto level_qz = make_level_quantizers(eb, cfg, geo, radius);
  const Frame frame = lattice_frame(dims, geo, 1);
  const dev::Dim3 grid = dev::grid_for(dims, geo.tile);
  const std::size_t ntiles = grid.volume();
  const std::size_t nworkers =
      std::min(huffman::histogram_workers(data.size()),
               std::max<std::size_t>(ntiles, 1));
  const std::size_t tiles_per = dev::ceil_div(ntiles, nworkers);

  auto parts = ws.make<std::uint32_t>(nworkers * nlv * nbins);
  struct Outlier {
    std::uint64_t index;
    T value;
  };
  std::vector<std::vector<Outlier>> worker_outliers(nworkers);
  dev::launch_linear(
      nworkers,
      [&](std::size_t w) {
        std::uint32_t* hists = parts.data() + w * nlv * nbins;
        std::fill_n(hists, nlv * nbins, 0u);
        auto& outl = worker_outliers[w];
        TileView<T> t;
        const std::size_t tb = w * tiles_per;
        const std::size_t te = std::min(tb + tiles_per, ntiles);
        for (std::size_t ti = tb; ti < te; ++ti) {
          const dev::Coord3 c = dev::delinearize(grid, ti);
          place_tile(t, {c.x, c.y, c.z, ti}, frame);
          run_one_tile<true, T>(t, data, dims, cfg, geo, level_qz, frame);
          const dev::Dim3 o{t.origin[0], t.origin[1], t.origin[2]};
          for_each_level_run(
              dims, id, 0, 1, o, {t.owned[0], t.owned[1], t.owned[2]},
              [&](std::size_t v, std::size_t rank, std::size_t n,
                  std::size_t x, std::size_t y, std::size_t z,
                  std::size_t step) {
                const quant::Code* src =
                    t.codes.data() + x + y * t.lstride[1] + z * t.lstride[2];
                const std::size_t g =
                    dev::linearize(dims, o.x + x, o.y + y, o.z + z);
                for (std::size_t k = 0; k < n; ++k) {
                  const quant::Code code = src[k * step];
                  streams[v][rank + k] = code;
                  ++hists[v * nbins + code];
                  if (code == quant::kOutlierMarker)
                    outl.push_back({g + k * step, data[g + k * step]});
                }
              });
        }
      },
      1);

  std::size_t total = 0;
  for (const auto& v : worker_outliers) total += v.size();
  auto merged = ws.make<Outlier>(total);
  std::size_t pos = 0;
  for (const auto& v : worker_outliers) {
    std::copy(v.begin(), v.end(), merged.begin() + pos);
    pos += v.size();
  }
  std::sort(merged.begin(), merged.end(),
            [](const Outlier& a, const Outlier& b) { return a.index < b.index; });
  auto oindices = ws.make<std::uint64_t>(total);
  auto ovalues = ws.make<T>(total);
  for (std::size_t i = 0; i < total; ++i) {
    oindices[i] = merged[i].index;
    ovalues[i] = merged[i].value;
  }

  GInterpLevelsT<T> out;
  out.pred.anchors = anchors;
  out.pred.outliers = {oindices, ovalues};
  out.levels.streams.assign(streams.begin(), streams.end());
  out.levels.histograms.resize(nlv);
  for (std::size_t v = 0; v < nlv; ++v) {
    auto& h = out.levels.histograms[v];
    h.assign(nbins, 0u);
    for (std::size_t w = 0; w < nworkers; ++w) {
      const std::uint32_t* part = parts.data() + (w * nlv + v) * nbins;
      for (std::size_t b = 0; b < nbins; ++b) h[b] += part[b];
    }
  }
  return out;
}

/// Throws std::invalid_argument unless there is one window per level and
/// each level >= v0 window covers every rank that level holds in the box
/// [lo, lo + ext) of the scale-S lattice. Ranks ascend plane by plane, so a
/// level's first run in the first plane holding one and its last run in the
/// last such plane bound them; each scan stops once every level is bounded.
void check_level_windows(const dev::Dim3& dims, std::size_t v0,
                         std::size_t S, const dev::Dim3& lo,
                         const dev::Dim3& ext,
                         std::span<const std::span<const quant::Code>> windows,
                         std::span<const std::size_t> first) {
  const InterpDims id = interp_dims_of(dims);
  const auto nlv = static_cast<std::size_t>(id.nlevels);
  if (windows.size() != nlv || first.size() != nlv)
    throw std::invalid_argument(
        "GInterpReconstructorT: level window count mismatch");
  constexpr std::size_t kNone = ~std::size_t{0};
  std::vector<std::array<std::size_t, 2>> bound(nlv, {kNone, kNone});
  for (std::size_t side = 0; side < 2; ++side)
    for (std::size_t k = 0, open = nlv - std::min(v0, nlv);
         k < ext.z && open > 0; ++k) {
      std::vector<std::size_t> plane(nlv, kNone);
      for_each_level_run(
          dims, id, v0, S, {lo.x, lo.y, lo.z + (side ? ext.z - 1 - k : k)},
          {ext.x, ext.y, 1},
          [&](std::size_t v, std::size_t rank, std::size_t n, auto&&...) {
            plane[v] = side ? rank + n : std::min(plane[v], rank);
          });
      for (std::size_t v = v0; v < nlv; ++v)
        if (bound[v][side] == kNone && plane[v] != kNone) {
          bound[v][side] = plane[v];
          --open;
        }
    }
  for (std::size_t v = v0; v < nlv; ++v)
    if (bound[v][0] != kNone && (bound[v][0] < first[v] ||
                                 bound[v][1] - first[v] > windows[v].size()))
      throw std::invalid_argument(
          "GInterpReconstructorT: level window misses a rank");
}

}  // namespace

// In-place incremental reconstruction over a window of the level lattice.
// The constructors set up the lattice and window; seed() performs all
// validation and the anchor/outlier scatter; run_slab then reconstructs one
// tile-grid z-slab directly in `out` (closed-region loads and owned
// write-backs hit the same buffer), each tile first gathering its codes
// from the level windows by rank. The safety/bit-identity argument lives
// with the class declaration and in docs/PERF.md.
template <typename T>
GInterpReconstructorT<T>::GInterpReconstructorT(
    std::span<const std::span<const quant::Code>> windows,
    std::span<const std::size_t> first, std::span<const T> anchors,
    const quant::OutlierViewT<T>& outliers, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius, std::span<T> out, int level)
    : windows_(windows),
      first_(first),
      out_(out),
      dims_(dims),
      geo_(geometry_for(dims)),
      cfg_(cfg),
      level_qz_(make_level_quantizers(eb, cfg, geo_, radius)) {
  if (level < 1 || level > interp_levels(geo_) + 1)
    throw std::invalid_argument("GInterpReconstructorT: level out of range");
  scale_ = stride_of_level(level);
  const Frame f = lattice_frame(dims, geo_, scale_);
  grid_ = f.grid;
  tile_ = f.tile;
  buf_ = f.grid;
  // On the anchor grid no pass runs: the seed is the reconstruction, and
  // no tile is covered.
  tile_hi_ = scale_ > geo_.top_stride ? tile_lo_ : dev::grid_for(grid_, tile_);
  if (out.size() != grid_.volume())
    throw std::invalid_argument("GInterpReconstructorT: size/dims mismatch");
  seed(anchors, {0, 0, 0}, anchor_dims(dims, geo_.anchor), outliers);
}

template <typename T>
GInterpReconstructorT<T>::GInterpReconstructorT(
    std::span<const std::span<const quant::Code>> windows,
    std::span<const std::size_t> first, std::span<const T> anchors,
    const quant::OutlierViewT<T>& outliers, const GInterpRoiPlan& plan,
    const dev::Dim3& dims, double eb, const InterpConfig& cfg, int radius,
    std::span<T> out)
    : windows_(windows),
      first_(first),
      out_(out),
      dims_(dims),
      geo_(geometry_for(dims)),
      cfg_(cfg),
      level_qz_(make_level_quantizers(eb, cfg, geo_, radius)),
      grid_(dims),
      tile_(geo_.tile),
      lo_(plan.box_lo),
      buf_(plan.box_dims),
      tile_lo_(plan.tile_lo),
      tile_hi_(plan.tile_hi) {
  if (out.size() != buf_.volume())
    throw std::invalid_argument("ginterp_roi: size/box mismatch");
  if (tile_lo_.x >= tile_hi_.x || tile_lo_.y >= tile_hi_.y ||
      tile_lo_.z >= tile_hi_.z)
    throw std::invalid_argument("ginterp_roi: empty tile cover");
  const dev::Dim3& a0 = plan.anchor_lo;
  seed(anchors, a0,
       {plan.anchor_hi.x - a0.x, plan.anchor_hi.y - a0.y,
        plan.anchor_hi.z - a0.z},
       outliers);
}

template <typename T>
void GInterpReconstructorT<T>::seed(std::span<const T> anchors,
                                    const dev::Dim3& anchor_lo,
                                    const dev::Dim3& anchor_n,
                                    const quant::OutlierViewT<T>& outliers) {
  // The covered tiles' closed regions make up the buffer window; their
  // codes come from the level windows, checked before anything is written.
  check_level_windows(dims_, std::countr_zero(scale_), scale_, lo_, buf_,
                      windows_, first_);
  // Anchor count and outlier indices come from the archive; both index into
  // the output buffer, so they must be validated before any scatter.
  if (anchors.size() != anchor_n.volume())
    throw core::CorruptArchive("ginterp", 0, "anchor count mismatch");
  if (outliers.values.size() != outliers.indices.size())
    throw core::CorruptArchive("ginterp", 0, "outlier index/value mismatch");
  const std::size_t volume = dims_.volume();
  for (const auto idx : outliers.indices)
    if (idx >= volume)
      throw core::CorruptArchive("ginterp", 0, "outlier index out of range");

  // Anchors sit at lattice stride ceil(anchor / S).
  const dev::Dim3 as = {dev::ceil_div(geo_.anchor.x, scale_),
                        dev::ceil_div(geo_.anchor.y, scale_),
                        dev::ceil_div(geo_.anchor.z, scale_)};
  dev::launch_linear(
      anchor_n.z,
      [&](std::size_t az) {
        for (std::size_t ay = 0; ay < anchor_n.y; ++ay)
          for (std::size_t ax = 0; ax < anchor_n.x; ++ax)
            out_[dev::linearize(buf_, (anchor_lo.x + ax) * as.x - lo_.x,
                                (anchor_lo.y + ay) * as.y - lo_.y,
                                (anchor_lo.z + az) * as.z - lo_.z)] =
                anchors[dev::linearize(anchor_n, ax, ay, az)];
      },
      1);

  // Outlier originals: only those on the lattice (every coordinate a
  // multiple of S) inside the window — no pass that runs reads another.
  const bool whole = scale_ == 1 && buf_ == dims_;
  for (std::size_t k = 0; k < outliers.indices.size(); ++k) {
    const auto idx = static_cast<std::size_t>(outliers.indices[k]);
    if (whole) {
      out_[idx] = outliers.values[k];
      continue;
    }
    const dev::Coord3 c = dev::delinearize(dims_, idx);
    if (c.x % scale_ != 0 || c.y % scale_ != 0 || c.z % scale_ != 0) continue;
    const std::size_t x = c.x / scale_, y = c.y / scale_, z = c.z / scale_;
    if (x < lo_.x || x - lo_.x >= buf_.x || y < lo_.y || y - lo_.y >= buf_.y ||
        z < lo_.z || z - lo_.z >= buf_.z)
      continue;
    out_[dev::linearize(buf_, x - lo_.x, y - lo_.y, z - lo_.z)] =
        outliers.values[k];
  }

  // Snapshot every interior slab-boundary z-plane now, while the buffer
  // holds exactly the post-scatter state. A slab's +z border load consumes
  // only anchors and outlier originals — values reconstruction writes back
  // unchanged — so substituting this snapshot for the live buffer is
  // bit-transparent, and it severs the only cross-slab read: slabs become
  // schedulable in any order, including concurrently. The last covered
  // slab's +z closed plane needs no snapshot: no covered tile writes it.
  const std::size_t nslabs = slab_count();
  if (nslabs > 1) {
    const std::size_t plane = buf_.x * buf_.y;
    border_.resize((nslabs - 1) * plane);
    dev::launch_linear(
        nslabs - 1,
        [&](std::size_t k) {
          const std::size_t z = (tile_lo_.z + k + 1) * tile_.z - lo_.z;
          std::memcpy(border_.data() + k * plane, out_.data() + z * plane,
                      plane * sizeof(T));
        },
        1);
  }
}

template <typename T>
void GInterpReconstructorT<T>::run_slab(std::size_t k) {
  const std::size_t bz = tile_lo_.z + k;
  PlaneOverride<T> po;
  if (k + 1 < slab_count()) {
    po.plane = border_.data() + k * buf_.x * buf_.y;
    po.z = (bz + 1) * tile_.z;
  }
  const Frame f{grid_, tile_, scale_, lo_, buf_};
  const InterpDims id = interp_dims_of(dims_);
  const auto v0 = static_cast<std::size_t>(std::countr_zero(scale_));
  // Four (bx, by)-parity waves over the covered blocks: same-parity tiles
  // are >= 2 blocks apart in every in-slab direction (parity is on the
  // lattice block index), so their closed regions (owned + 1 border plane
  // in each positive direction) never overlap and the in-place loads and
  // write-backs of concurrently running tiles touch disjoint bytes.
  for (unsigned color = 0; color < 4; ++color) {
    const std::size_t px = color & 1u;
    const std::size_t py = color >> 1u;
    const std::size_t bx0 = tile_lo_.x + ((px ^ (tile_lo_.x & 1)) & 1);
    const std::size_t by0 = tile_lo_.y + ((py ^ (tile_lo_.y & 1)) & 1);
    if (bx0 >= tile_hi_.x || by0 >= tile_hi_.y) continue;
    const std::size_t nx = (tile_hi_.x - bx0 + 1) / 2;
    const std::size_t ny = (tile_hi_.y - by0 + 1) / 2;
    dev::launch_linear(
        nx * ny,
        [&](std::size_t i) {
          TileView<T> t;
          place_tile(t, {bx0 + 2 * (i % nx), by0 + 2 * (i / nx), bz, i}, f);
          for_each_level_run(
              dims_, id, v0, scale_, {t.origin[0], t.origin[1], t.origin[2]},
              {t.extent[0], t.extent[1], t.extent[2]},
              [&](std::size_t v, std::size_t rank, std::size_t n,
                  std::size_t x, std::size_t y, std::size_t z,
                  std::size_t step) {
                const quant::Code* src =
                    windows_[v].data() + (rank - first_[v]);
                quant::Code* dst =
                    t.codes.data() + x + y * t.lstride[1] + z * t.lstride[2];
                if (step == 1)
                  std::memcpy(dst, src, n * sizeof(quant::Code));
                else
                  for (std::size_t k = 0; k < n; ++k) dst[k * step] = src[k];
              });
          run_one_tile<false, T>(t, out_, dims_, cfg_, geo_, level_qz_, f,
                                 po);
        },
        1);
  }
}

template <typename T>
void GInterpReconstructorT<T>::run() {
  const std::size_t n = slab_count();
  if (n >= dev::ThreadPool::instance().worker_count())
    dev::launch_linear(n, [&](std::size_t k) { run_slab(k); }, 1);
  else
    for (std::size_t k = 0; k < n; ++k) run_slab(k);
}

template class GInterpReconstructorT<float>;
template class GInterpReconstructorT<double>;

// ---- Random-access (ROI) planning ----------------------------------------

GInterpRoiPlan ginterp_roi_plan(const dev::Dim3& dims, const dev::Dim3& lo,
                                const dev::Dim3& ext) {
  const auto bad = [](const char* what) {
    throw std::invalid_argument(std::string("ginterp_roi_plan: ") + what);
  };
  if (ext.x == 0 || ext.y == 0 || ext.z == 0) bad("empty ROI");
  if (lo.x > dims.x || ext.x > dims.x - lo.x || lo.y > dims.y ||
      ext.y > dims.y - lo.y || lo.z > dims.z || ext.z > dims.z - lo.z)
    bad("ROI exceeds field");

  const Geometry geo = geometry_for(dims);
  GInterpRoiPlan p;
  p.tile_lo = {lo.x / geo.tile.x, lo.y / geo.tile.y, lo.z / geo.tile.z};
  p.tile_hi = {dev::ceil_div(lo.x + ext.x, geo.tile.x),
               dev::ceil_div(lo.y + ext.y, geo.tile.y),
               dev::ceil_div(lo.z + ext.z, geo.tile.z)};
  p.box_lo = {p.tile_lo.x * geo.tile.x, p.tile_lo.y * geo.tile.y,
              p.tile_lo.z * geo.tile.z};
  // Closed box: one plane past the covered tiles' owned extent on every
  // positive side (the tiles' borrowed border), clipped to the field.
  p.box_dims = {
      std::min<std::size_t>(p.tile_hi.x * geo.tile.x + 1, dims.x) - p.box_lo.x,
      std::min<std::size_t>(p.tile_hi.y * geo.tile.y + 1, dims.y) - p.box_lo.y,
      std::min<std::size_t>(p.tile_hi.z * geo.tile.z + 1, dims.z) - p.box_lo.z};
  const dev::Dim3 ad = anchor_dims(dims, geo.anchor);
  const auto arange = [](std::size_t blo, std::size_t n, std::size_t s,
                         std::size_t an, std::size_t& a0, std::size_t& a1) {
    a0 = (blo + s - 1) / s;
    a1 = std::max(a0, std::min(an, (blo + n - 1) / s + 1));
  };
  arange(p.box_lo.x, p.box_dims.x, geo.anchor.x, ad.x, p.anchor_lo.x,
         p.anchor_hi.x);
  arange(p.box_lo.y, p.box_dims.y, geo.anchor.y, ad.y, p.anchor_lo.y,
         p.anchor_hi.y);
  arange(p.box_lo.z, p.box_dims.z, geo.anchor.z, ad.z, p.anchor_lo.z,
         p.anchor_hi.z);
  return p;
}

std::size_t ginterp_level_prefix(const dev::Dim3& dims, int level,
                                 std::size_t z) {
  const InterpDims id = interp_dims_of(dims);
  if (level < 1 || level > id.nlevels)
    throw std::invalid_argument("ginterp_level_prefix: level out of range");
  const std::size_t s = std::size_t{1} << (level - 1);
  return level_box(dims.x, dims.y, std::min<std::size_t>(z, dims.z), id, s);
}

void ginterp_level_box_runs(const dev::Dim3& dims, int level,
                            const dev::Dim3& lo, const dev::Dim3& ext,
                            const GInterpRunFn& fn) {
  const InterpDims id = interp_dims_of(dims);
  if (level < 1 || level > id.nlevels)
    throw std::invalid_argument("ginterp_level_box_runs: level out of range");
  const int v = level - 1;
  const std::size_t s = std::size_t{1} << v;
  const std::size_t xend = lo.x + ext.x;
  for (std::size_t z = lo.z; z < lo.z + ext.z; ++z)
    for (std::size_t y = lo.y; y < lo.y + ext.y; ++y) {
      const RowPattern p = row_pattern(y, z, id, v, s);
      if (p.step == 0) continue;
      const std::size_t x0 =
          lo.x <= p.start
              ? p.start
              : p.start + dev::ceil_div(lo.x - p.start, p.step) * p.step;
      if (x0 >= xend) continue;
      const std::size_t n = (xend - 1 - x0) / p.step + 1;
      fn(level_rank(dims, id, v, y, z) + (x0 - p.start) / p.step, n, x0, y, z,
         p.step);
    }
}

namespace {

template <typename T>
std::vector<T> subsample_impl(std::span<const T> full, const dev::Dim3& dims,
                              int max_level) {
  if (full.size() != dims.volume())
    throw std::invalid_argument("ginterp_subsample: size/dims mismatch");
  const InterpDims id = interp_dims_of(dims);
  const int L = std::clamp(max_level, 1, id.nlevels + 1);
  const std::size_t s = stride_of_level(L);
  const std::size_t sx = id.ix ? s : 1, sy = id.iy ? s : 1,
                    sz = id.iz ? s : 1;
  std::vector<T> out;
  out.reserve(ginterp_preview_dims(dims, L).volume());
  for (std::size_t z = 0; z < dims.z; z += sz)
    for (std::size_t y = 0; y < dims.y; y += sy)
      for (std::size_t x = 0; x < dims.x; x += sx)
        out.push_back(full[dev::linearize(dims, x, y, z)]);
  return out;
}

/// The whole level-`level` lattice into `out` from a whole-field code array
/// (size checked for `caller`): its levels >= `level` re-bucket into
/// `ws`-owned streams, one pool task per lattice z-plane, and one
/// GInterpReconstructorT runs over them.
template <typename T>
void reconstruct_from_codes(const char* caller,
                            std::span<const quant::Code> codes,
                            std::span<const T> anchors,
                            const quant::OutlierViewT<T>& outliers,
                            const dev::Dim3& dims, double eb,
                            const InterpConfig& cfg, int radius, int level,
                            std::span<T> out, dev::Workspace& ws) {
  if (codes.size() != dims.volume())
    throw std::invalid_argument(std::string(caller) + ": size/dims mismatch");
  const InterpDims id = interp_dims_of(dims);
  const auto nlv = static_cast<std::size_t>(id.nlevels);
  const auto v0 = static_cast<std::size_t>(level - 1);
  const std::size_t S = stride_of_level(level);
  std::vector<std::span<quant::Code>> streams(nlv);
  for (std::size_t v = v0; v < nlv; ++v)
    streams[v] = ws.make<quant::Code>(
        ginterp_level_volume(dims, static_cast<int>(v) + 1));
  const dev::Dim3 g = ginterp_preview_dims(dims, level);
  dev::launch_linear(
      g.z,
      [&](std::size_t z) {
        for_each_level_run(
            dims, id, v0, S, {0, 0, z}, {g.x, g.y, 1},
            [&](std::size_t v, std::size_t rank, std::size_t n, std::size_t x,
                std::size_t y, std::size_t, std::size_t step) {
              const quant::Code* src =
                  codes.data() + dev::linearize(dims, x * S, y * S, z * S);
              for (std::size_t k = 0; k < n; ++k)
                streams[v][rank + k] = src[k * step * S];
            });
      },
      1);
  const std::vector<std::span<const quant::Code>> windows(streams.begin(),
                                                          streams.end());
  const std::vector<std::size_t> first(nlv, 0);
  GInterpReconstructorT<T>(windows, first, anchors, outliers, dims, eb, cfg,
                           radius, out, level)
      .run();
}

template <typename T>
std::vector<T> decompress_to_level_impl(std::span<const quant::Code> codes,
                                        std::span<const T> anchors,
                                        const quant::OutlierViewT<T>& outliers,
                                        const dev::Dim3& dims, double eb,
                                        const InterpConfig& cfg, int radius,
                                        int max_level, dev::Workspace& ws) {
  const int L = std::clamp(max_level, 1, ginterp_level_count(dims) + 1);
  std::vector<T> out(ginterp_preview_dims(dims, L).volume());
  reconstruct_from_codes<T>("ginterp_decompress_to_level", codes, anchors,
                            outliers, dims, eb, cfg, radius, L, out, ws);
  return out;
}

}  // namespace

void ginterp_decompress_into(std::span<const quant::Code> codes,
                             std::span<const float> anchors,
                             const quant::OutlierViewT<float>& outliers,
                             const dev::Dim3& dims, double eb,
                             const InterpConfig& cfg, int radius,
                             std::span<float> out, dev::Workspace& ws) {
  reconstruct_from_codes<float>("ginterp_decompress_into", codes, anchors,
                                outliers, dims, eb, cfg, radius, 1, out, ws);
}

void ginterp_decompress_into(std::span<const quant::Code> codes,
                             std::span<const double> anchors,
                             const quant::OutlierViewT<double>& outliers,
                             const dev::Dim3& dims, double eb,
                             const InterpConfig& cfg, int radius,
                             std::span<double> out, dev::Workspace& ws) {
  reconstruct_from_codes<double>("ginterp_decompress_into", codes, anchors,
                                 outliers, dims, eb, cfg, radius, 1, out, ws);
}

int ginterp_level_count(const dev::Dim3& dims) {
  return interp_dims_of(dims).nlevels;
}

std::size_t ginterp_level_volume(const dev::Dim3& dims, int level) {
  const InterpDims id = interp_dims_of(dims);
  if (level < 1 || level > id.nlevels) return 0;
  return level_box(dims.x, dims.y, dims.z, id, stride_of_level(level));
}

dev::Dim3 ginterp_preview_dims(const dev::Dim3& dims, int max_level) {
  const InterpDims id = interp_dims_of(dims);
  const int L = std::clamp(max_level, 1, id.nlevels + 1);
  const std::size_t s = stride_of_level(L);
  return {axis_count(dims.x, id.ix, s), axis_count(dims.y, id.iy, s),
          axis_count(dims.z, id.iz, s)};
}

LevelScatterCursor::LevelScatterCursor(const dev::Dim3& dims, int level)
    : dims_(dims), s_(stride_of_level(level)), v_(level - 1) {
  const InterpDims id = interp_dims_of(dims);
  nlevels_ = id.nlevels;
  iy_ = id.iy;
  iz_ = id.iz;
  enter_row();
}

/// Positions the cursor at the first level position of the current or a
/// later row; rows the level owns no position in are skipped. Past the last
/// row the watermark saturates at the full volume.
void LevelScatterCursor::enter_row() {
  const InterpDims id{true, iy_, iz_, nlevels_};
  for (; z_ < dims_.z; ++z_, y_ = 0) {
    for (; y_ < dims_.y; ++y_) {
      const RowPattern p = row_pattern(y_, z_, id, v_, s_);
      if (p.step != 0 && p.start < dims_.x) {
        x_ = p.start;
        step_ = p.step;
        watermark_ = dev::linearize(dims_, x_, y_, z_);
        return;
      }
    }
  }
  step_ = 0;
  watermark_ = dims_.volume();
}

std::size_t LevelScatterCursor::advance(std::span<const quant::Code> stream,
                                        std::size_t upto,
                                        std::span<quant::Code> codes) {
  upto = std::min(upto, stream.size());
  while (consumed_ < upto && step_ != 0) {
    const std::size_t base = dev::linearize(dims_, 0, y_, z_);
    while (x_ < dims_.x && consumed_ < upto) {
      codes[base + x_] = stream[consumed_++];
      x_ += step_;
    }
    if (x_ < dims_.x) {
      watermark_ = base + x_;
      return watermark_;
    }
    ++y_;
    enter_row();
  }
  return watermark_;
}

GInterpLevelsT<float> ginterp_compress_fused_levels(
    std::span<const float> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius, dev::Workspace& ws) {
  return compress_fused_levels_impl<float>(data, dims, eb, cfg, radius, ws);
}

GInterpLevelsT<double> ginterp_compress_fused_levels(
    std::span<const double> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius, dev::Workspace& ws) {
  return compress_fused_levels_impl<double>(data, dims, eb, cfg, radius, ws);
}

std::vector<float> ginterp_subsample(std::span<const float> full,
                                     const dev::Dim3& dims, int max_level) {
  return subsample_impl<float>(full, dims, max_level);
}

std::vector<double> ginterp_subsample(std::span<const double> full,
                                      const dev::Dim3& dims, int max_level) {
  return subsample_impl<double>(full, dims, max_level);
}

std::vector<float> ginterp_decompress_to_level(
    std::span<const quant::Code> codes, std::span<const float> anchors,
    const quant::OutlierViewT<float>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius, int max_level,
    dev::Workspace& ws) {
  return decompress_to_level_impl<float>(codes, anchors, outliers, dims, eb,
                                         cfg, radius, max_level, ws);
}

std::vector<double> ginterp_decompress_to_level(
    std::span<const quant::Code> codes, std::span<const double> anchors,
    const quant::OutlierViewT<double>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius, int max_level,
    dev::Workspace& ws) {
  return decompress_to_level_impl<double>(codes, anchors, outliers, dims, eb,
                                          cfg, radius, max_level, ws);
}

}  // namespace szi::predictor
