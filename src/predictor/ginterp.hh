// G-Interp (§V): the GPU-optimized multi-level interpolation predictor.
//
// The field is partitioned into thread-block tiles (32x8x8 for 3D). Each tile
// copies its closed region — the owned chunk plus the +1 borrowed border
// planes, i.e. the paper's 33x9x9 shared-memory block — into a private
// buffer, then interpolates level by level (strides 4 → 2 → 1), dimension by
// dimension in the auto-tuned order, replacing each value with its
// reconstruction so decompression replays predictions bit-identically.
//
// Border planes (global coordinates that are multiples of the anchor stride)
// are recomputed redundantly by every tile that shares them: their
// predictions provably depend only on same-plane values and anchors, and the
// extent along the interpolation dimension is identical for all sharing
// tiles, so every tile derives the same values — but only the owning tile
// (half-open region) emits quant-codes / reconstructed output. This gives
// race-free tile parallelism, the CPU realization of the paper's
// shared-memory design.
//
// Both single- and double-precision fields are supported; the paper's
// datasets are f32, but SDRBench carries f64 fields (e.g. QMCPack) that a
// production deployment must handle.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "device/dims.hh"
#include "predictor/interp_config.hh"
#include "quant/outlier.hh"
#include "quant/quantizer.hh"

namespace szi::predictor {

/// What the prediction stage stores raw beside the level streams (§V-A,
/// §VI-A), in workspace memory: spans stay valid until the owning
/// Workspace resets, and every buffer is drawn from the arena pool instead
/// of freshly allocated.
template <typename T>
struct GInterpViewT {
  std::span<const T> anchors;       ///< lossless anchor grid
  quant::OutlierViewT<T> outliers;  ///< |q| >= radius escapes
};

// ---- Level classification (the SZI2 segmented archive) -------------------
//
// Every non-anchor position is targeted by exactly one (stride, dim) pass,
// so it belongs to exactly one interpolation level: with D the set of
// interpolated dimensions (those whose per-dim anchor stride exceeds 1; x
// always, y/z unless the geometry degenerates them to stride-1 anchor
// planes), a position's level is ℓ = countr_zero(OR of its D-coordinates)+1
// and it is an anchor when that valuation reaches interp_levels(geo). The
// level populations and the rank of any position within its level therefore
// have closed forms — segment sizes and scatter targets never require a
// counting pass.

/// Number of interpolation levels of the field's geometry.
[[nodiscard]] int ginterp_level_count(const dev::Dim3& dims);

/// Exact number of level-ℓ positions (1-based level; closed form).
[[nodiscard]] std::size_t ginterp_level_volume(const dev::Dim3& dims,
                                               int level);

/// Grid dimensions of the preview reconstructed from anchors + levels >=
/// max_level: interpolated dims shrink to their stride-2^(max_level-1)
/// grid, degenerate dims keep their extent. max_level = level_count + 1
/// yields the anchor grid.
[[nodiscard]] dev::Dim3 ginterp_preview_dims(const dev::Dim3& dims,
                                             int max_level);

/// A field's quant-codes, one stream per level: streams[ℓ-1] holds the
/// level-ℓ codes in ascending linear order (ws-owned), histograms[ℓ-1]
/// counts them over the quantizer's bins. Anchors carry no code.
struct GInterpLevelSplit {
  std::vector<std::span<const quant::Code>> streams;
  std::vector<std::vector<std::uint32_t>> histograms;
};

/// Resumable inverse of the split: scatters one level's stream back into a
/// full code array in ascending linear order. advance() consumes stream
/// symbols [consumed(), upto) and returns the new watermark — the linear
/// index below which every position of this level has been scattered (the
/// field volume once the stream is exhausted). No decoder uses it (they
/// scatter with ginterp_scatter_levels); the benchmark's traced replay
/// still does.
class LevelScatterCursor {
 public:
  LevelScatterCursor(const dev::Dim3& dims, int level);

  std::size_t advance(std::span<const quant::Code> stream, std::size_t upto,
                      std::span<quant::Code> codes);

  [[nodiscard]] std::size_t consumed() const { return consumed_; }
  [[nodiscard]] std::size_t watermark() const { return watermark_; }

 private:
  void enter_row();

  dev::Dim3 dims_;
  std::size_t s_;            ///< stride of the level
  int v_;                    ///< 0-based level
  int nlevels_;
  bool iy_, iz_;             ///< y/z interpolated by the geometry
  std::size_t y_ = 0, z_ = 0;
  std::size_t x_ = 0;        ///< next position in the current row
  std::size_t step_ = 0;     ///< 0 marks "current row has no positions"
  std::size_t consumed_ = 0;
  std::size_t watermark_ = 0;
};

/// Scatters every level >= `level` onto the level-`level` lattice (the
/// positions whose interpolated coordinates are multiples of
/// 2^(level-1), in lattice coordinates: extents ginterp_preview_dims) —
/// only its window [lo, lo + ext), which `codes` spans row-major. `level`
/// runs from 1 to level_count + 1, the anchor grid, onto which no level
/// lands. Levels below `level` never land on the lattice and are not
/// read. streams[ℓ-1]
/// (ℓ >= level) holds level ℓ's symbols of ranks [first[ℓ-1],
/// first[ℓ-1] + streams[ℓ-1].size()) and must cover every rank the window
/// holds (std::invalid_argument otherwise); positions no level names get
/// `fill`. Each lattice z-plane is one pool task that fills itself and
/// copies each level's rows from their closed-form ranks
/// (ginterp_level_prefix, level_rank), so tasks write disjoint planes and
/// carry no cursor state.
void ginterp_scatter_levels(
    const dev::Dim3& dims, int level, const dev::Dim3& lo, const dev::Dim3& ext,
    std::span<const std::span<const quant::Code>> streams,
    std::span<const std::size_t> first, quant::Code fill,
    std::span<quant::Code> codes);

/// Fused predict+quantize with per-level emission (the compress front end):
/// each worker walks a contiguous range of tiles, writes a tile's codes
/// into a tile-local array and re-buckets them from there into per-level
/// streams (rank-addressed, so worker partitioning is unobservable) with
/// one exact per-level histogram each. The streams are the only code
/// output, byte-identical to splitting the naive kernel's whole-field code
/// array level by level (the test oracles in tests/reference*.hh). `cfg`
/// normally comes from autotune(); it must be persisted for decompression.
template <typename T>
struct GInterpLevelsT {
  GInterpViewT<T> pred;
  GInterpLevelSplit levels;
};

[[nodiscard]] GInterpLevelsT<float> ginterp_compress_fused_levels(
    std::span<const float> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius, dev::Workspace& ws);
[[nodiscard]] GInterpLevelsT<double> ginterp_compress_fused_levels(
    std::span<const double> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius, dev::Workspace& ws);

/// Stride subsample of a full-resolution field onto the preview grid of
/// `max_level` (row-major over ginterp_preview_dims).
[[nodiscard]] std::vector<float> ginterp_subsample(std::span<const float> full,
                                                   const dev::Dim3& dims,
                                                   int max_level);
[[nodiscard]] std::vector<double> ginterp_subsample(
    std::span<const double> full, const dev::Dim3& dims, int max_level);

/// Partial reconstruction for progressive decode: replays anchors + every
/// level >= max_level and returns the stride-2^(max_level-1) preview grid.
/// Passes at stride s touch only stride-s grid positions, so the preview is
/// bit-identical to ginterp_subsample over the full reconstruction. `codes`
/// spans the full volume (only positions on the preview lattice are read);
/// they are gathered onto the lattice in `ws` memory and the
/// reconstruction runs there, in preview-sized memory. max_level is clamped
/// to [1, level_count+1]; at level_count+1 the reconstruction is the
/// lossless anchor grid.
[[nodiscard]] std::vector<float> ginterp_decompress_to_level(
    std::span<const quant::Code> codes, std::span<const float> anchors,
    const quant::OutlierViewT<float>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius, int max_level,
    dev::Workspace& ws);
[[nodiscard]] std::vector<double> ginterp_decompress_to_level(
    std::span<const quant::Code> codes, std::span<const double> anchors,
    const quant::OutlierViewT<double>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius, int max_level,
    dev::Workspace& ws);

/// In-place reconstruction, one GInterpReconstructorT run over the whole
/// field: outliers arrive as borrowed views, anchors and outlier originals
/// are scattered straight into the caller-provided `out` span (size
/// dims.volume()), and the interpolation tiles read and write that same
/// buffer — no staging copy of the field exists. See GInterpReconstructorT
/// for the in-place safety argument and the one caveat about `out`'s prior
/// contents on undetectably-corrupt archives. `ws` is unused (kept for
/// call-site stability: every decode path threads one workspace through).
void ginterp_decompress_into(std::span<const quant::Code> codes,
                             std::span<const float> anchors,
                             const quant::OutlierViewT<float>& outliers,
                             const dev::Dim3& dims, double eb,
                             const InterpConfig& cfg, int radius,
                             std::span<float> out, dev::Workspace& ws);
void ginterp_decompress_into(std::span<const quant::Code> codes,
                             std::span<const double> anchors,
                             const quant::OutlierViewT<double>& outliers,
                             const dev::Dim3& dims, double eb,
                             const InterpConfig& cfg, int radius,
                             std::span<double> out, dev::Workspace& ws);

/// In-place reconstruction, one tile-grid z-slab at a time, over the
/// level-L lattice (positions whose interpolated coordinates are multiples
/// of S = 2^(L-1), in lattice coordinates) — the whole lattice, written
/// straight into the caller's buffer, or the closed box of an ROI plan. On
/// the lattice, tile origins, owned/closed extents and pass strides are the
/// field's divided by S (tile sizes and every stride >= S are multiples of
/// S, so each neighbour test gives the same answer); the pass sequence, the
/// per-level quantizers and the per-point arithmetic are unchanged, so
/// every lattice point comes out bit-identical to the same point of a full
/// decode. At L = 1 on the whole field this is the full decode.
///
/// Why in place is safe (the full argument is in docs/PERF.md):
///   - the only *loaded* values a tile ever consumes are anchors (never a
///     pass target) and outlier originals (dequantize returns the loaded
///     value verbatim at marker codes) — and reconstruction writes exactly
///     those values back, so whether a shared border plane is read before
///     or after its owning tile ran, the bytes are the same;
///   - every other position's reconstruction depends only on codes and on
///     inputs recomputed earlier within the same tile, never on what the
///     buffer held at load time.
/// The same argument makes a box self-seeding: a buffer holding the
/// post-scatter state of the covering tiles' closed regions reconstructs
/// those tiles exactly, and no tile outside the cover has to run.
/// Scheduling keeps the formal data race out: the constructor snapshots
/// every slab-boundary z-plane right after the scatter, and a slab's tiles
/// load their +z border row-by-row from that immutable snapshot instead of
/// from `out`, so slabs are fully independent (disjoint writes, snapshot or
/// own-slab reads) and may run in ANY order, including concurrently; within
/// a slab tiles launch in four (bx, by)-parity waves, so no two concurrent
/// tiles' closed regions overlap. Output is bit-identical at any worker
/// count and any slab schedule.
///
/// Caveat: positions whose code is the outlier marker but which the archive
/// failed to list as outliers (impossible for well-formed archives; not
/// always detectable for corrupt ones) reconstruct from `out`'s prior
/// contents — silently-wrong values, never UB, which is all the corruption
/// contract promises.
struct GInterpRoiPlan;

template <typename T>
class GInterpReconstructorT {
 public:
  /// The whole level-`level` lattice: `codes` and `out` span
  /// ginterp_preview_dims(dims, level) (codes from ginterp_scatter_levels at
  /// that level). Validates archive metadata (core::CorruptArchive on a bad
  /// anchor count or outlier index) and scatters the anchors and the
  /// outlier originals that sit on the lattice into `out`. `level` must be
  /// in [1, level_count + 1]; at level_count + 1, the anchor grid, no pass
  /// runs and the seed is the reconstruction. `codes` and `out` are
  /// borrowed and must outlive the slab runs.
  GInterpReconstructorT(std::span<const quant::Code> codes,
                        std::span<const T> anchors,
                        const quant::OutlierViewT<T>& outliers,
                        const dev::Dim3& dims, double eb,
                        const InterpConfig& cfg, int radius, std::span<T> out,
                        int level = 1);

  /// The closed box of `plan` at level 1: `codes` and `out` span
  /// plan.box_dims, and `anchors` holds the plan's anchor window
  /// [anchor_lo, anchor_hi) row-major. Outliers outside the box are
  /// validated and skipped. Positions of `out` outside the covering tiles'
  /// owned regions (the halo) hold reconstruction scratch.
  GInterpReconstructorT(std::span<const quant::Code> codes,
                        std::span<const T> anchors,
                        const quant::OutlierViewT<T>& outliers,
                        const GInterpRoiPlan& plan,
                        const dev::Dim3& dims, double eb,
                        const InterpConfig& cfg, int radius, std::span<T> out);

  /// Covered tile slabs along z; slab k holds tile block z = first + k.
  [[nodiscard]] std::size_t slab_count() const {
    return tile_hi_.z - tile_lo_.z;
  }

  /// Reconstructs every covered tile of slab k. Slabs are mutually
  /// independent, so calls may come in any order and from concurrent
  /// callers — each k exactly once.
  void run_slab(std::size_t k);

  /// Every slab: one pool launch over the slabs when there is a slab per
  /// worker (each slab's parity waves then run inline on its worker),
  /// otherwise the slabs in turn, each slab's waves spread across the pool.
  void run();

 private:
  void seed(std::span<const T> anchors, const dev::Dim3& anchor_lo,
            const dev::Dim3& anchor_n, const quant::OutlierViewT<T>& outliers);

  std::span<const quant::Code> codes_;
  std::span<T> out_;
  dev::Dim3 dims_;
  Geometry geo_;
  InterpConfig cfg_;
  std::vector<quant::Quantizer> level_qz_;
  std::size_t scale_ = 1;  ///< lattice scale S = 2^(level-1)
  dev::Dim3 grid_;         ///< lattice extents
  dev::Dim3 tile_;         ///< lattice tile
  dev::Dim3 lo_{0, 0, 0};  ///< lattice origin of the buffer
  dev::Dim3 buf_;          ///< buffer extents
  dev::Dim3 tile_lo_{0, 0, 0}, tile_hi_;  ///< covered tile blocks
  /// Post-scatter snapshot of the interior slab-boundary z-planes,
  /// buf_.x * buf_.y elements each.
  std::vector<T> border_;
};

using GInterpReconstructor = GInterpReconstructorT<float>;

extern template class GInterpReconstructorT<float>;
extern template class GInterpReconstructorT<double>;

// ---- Random-access (ROI) planning ----------------------------------------
//
// Tiles are self-seeding (see GInterpReconstructorT), so a box needs only
// its covering tiles' closed regions. The closed forms above
// (ginterp_level_*) locate each level's covered symbols inside its
// per-level stream, so a random-access reader decodes only the Huffman
// chunks those rank runs touch.

/// Covering-tile plan of the ROI box [lo, lo + ext): the tile block range,
/// the tile-aligned closed box that contains every covering tile's closed
/// region, and the anchors inside that box. Throws std::invalid_argument
/// when the ROI is empty or exceeds the field.
struct GInterpRoiPlan {
  dev::Dim3 tile_lo;    ///< first covering tile block per axis
  dev::Dim3 tile_hi;    ///< one past the last covering tile block
  dev::Dim3 box_lo;     ///< closed box origin (tile_lo * tile)
  dev::Dim3 box_dims;   ///< closed box extents, clipped to the field
  dev::Dim3 anchor_lo;  ///< first anchor-grid index inside the closed box
  dev::Dim3 anchor_hi;  ///< one past the last
};

[[nodiscard]] GInterpRoiPlan ginterp_roi_plan(const dev::Dim3& dims,
                                              const dev::Dim3& lo,
                                              const dev::Dim3& ext);

/// Count of level-`level` (1-based) positions in the z-plane prefix [0, z)
/// — the rank at which a z-slab's symbols start within the level stream.
/// Closed form; z is clamped to dims.z.
[[nodiscard]] std::size_t ginterp_level_prefix(const dev::Dim3& dims,
                                               int level, std::size_t z);

/// Enumerates, in ascending rank order, the x-runs of level-`level`
/// positions inside the box [lo, lo + ext): fn(rank, count, x0, y, z, step)
/// describes `count` positions at global coordinates (x0 + i*step, y, z)
/// occupying ranks [rank, rank + count) of the level's stream.
using GInterpRunFn =
    std::function<void(std::size_t rank, std::size_t count, std::size_t x0,
                       std::size_t y, std::size_t z, std::size_t step)>;
void ginterp_level_box_runs(const dev::Dim3& dims, int level,
                            const dev::Dim3& lo, const dev::Dim3& ext,
                            const GInterpRunFn& fn);

}  // namespace szi::predictor
