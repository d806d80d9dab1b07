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

/// Everything the prediction stage produces; the pipeline encodes `codes`
/// with Huffman and stores anchors/outliers raw (§V-A, §VI-A).
template <typename T>
struct GInterpOutputT {
  std::vector<quant::Code> codes;  ///< biased quant-codes, one per element
  std::vector<T> anchors;          ///< lossless anchor grid
  quant::OutlierSetT<T> outliers;  ///< |q| >= radius escapes
};

using GInterpOutput = GInterpOutputT<float>;

/// The prediction stage's output in workspace memory: spans stay valid
/// until the owning Workspace resets, and every buffer is drawn from the
/// arena pool instead of freshly allocated.
template <typename T>
struct GInterpViewT {
  std::span<const quant::Code> codes;
  std::span<const T> anchors;
  quant::OutlierViewT<T> outliers;
};

/// Predicts+quantizes `data`. `cfg` normally comes from autotune();
/// it must be persisted for decompression.
[[nodiscard]] GInterpOutputT<float> ginterp_compress(
    std::span<const float> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius = quant::kDefaultRadius);
[[nodiscard]] GInterpOutputT<double> ginterp_compress(
    std::span<const double> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius = quant::kDefaultRadius);

/// Workspace forms: identical math and byte-for-byte identical outputs,
/// with codes/anchors/outliers pooled in `ws`.
[[nodiscard]] GInterpViewT<float> ginterp_compress(
    std::span<const float> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius, dev::Workspace& ws);
[[nodiscard]] GInterpViewT<double> ginterp_compress(
    std::span<const double> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius, dev::Workspace& ws);

/// Prediction output plus the quant-code histogram accumulated inside the
/// predict kernel itself (the fused pipeline — no separate read pass over
/// `codes`). `histogram` has 2*radius bins and is bit-identical to
/// huffman::histogram(pred.codes, 2*radius).
template <typename T>
struct GInterpFusedT {
  GInterpViewT<T> pred;
  std::vector<std::uint32_t> histogram;
};

/// Fused predict+quantize+histogram. Codes/anchors/outliers are pooled in
/// `ws` and byte-identical to ginterp_compress(); each worker counts the
/// codes of the tiles it owns into a private banked histogram while they are
/// cache-hot, and the partials fold with the deterministic serial merge.
[[nodiscard]] GInterpFusedT<float> ginterp_compress_fused(
    std::span<const float> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius, dev::Workspace& ws);
[[nodiscard]] GInterpFusedT<double> ginterp_compress_fused(
    std::span<const double> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius, dev::Workspace& ws);

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

/// Per-level re-bucketing of a full code array: streams[ℓ-1] holds the
/// level-ℓ codes in ascending linear order (ws-owned), histograms[ℓ-1]
/// counts them over `nbins` bins. Anchor positions are not emitted — their
/// codes are always the "perfectly predicted" prefill.
struct GInterpLevelSplit {
  std::vector<std::span<const quant::Code>> streams;
  std::vector<std::vector<std::uint32_t>> histograms;
};

[[nodiscard]] GInterpLevelSplit ginterp_split_levels(
    std::span<const quant::Code> codes, const dev::Dim3& dims,
    std::size_t nbins, dev::Workspace& ws);

/// Resumable inverse of the split: scatters one level's stream back into a
/// full code array in ascending linear order. advance() consumes stream
/// symbols [consumed(), upto) and returns the new watermark — the linear
/// index below which every position of this level has been scattered (the
/// field volume once the stream is exhausted). The progressive readers
/// scatter the levels a preview needs with it; full decode uses
/// ginterp_scatter_levels.
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

/// Whole-field inverse of the split in one parallel pass: `codes` comes out
/// equal to a `fill` prefill followed by a LevelScatterCursor walk over
/// every level. streams[ℓ-1] holds level ℓ and must be exactly
/// ginterp_level_volume(dims, ℓ) long. Each z-plane is one pool task: it
/// fills itself, then copies every level's symbols starting at the plane's
/// closed-form rank (ginterp_level_prefix), so tasks write disjoint planes
/// and carry no cursor state between them.
void ginterp_scatter_levels(
    const dev::Dim3& dims,
    std::span<const std::span<const quant::Code>> streams, quant::Code fill,
    std::span<quant::Code> codes);

/// Fused predict+quantize with per-level emission: the same tile walk as
/// ginterp_compress_fused, but each owned row's codes are re-bucketed into
/// per-level streams (rank-addressed, so worker partitioning is
/// unobservable) with one exact per-level histogram each. `pred.codes`
/// still holds the full prefilled code array; streams/histograms are
/// byte-identical to ginterp_split_levels over it.
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
/// bit-identical to ginterp_subsample over the full reconstruction — finer
/// levels' codes are never read and may be absent (prefilled). `codes` must
/// still span the full volume, with the levels >= max_level scattered and
/// everything else at the prefill value. max_level is clamped to
/// [1, level_count+1]; level_count+1 returns the lossless anchor grid.
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

/// Reconstructs the field from codes + anchors + outliers.
[[nodiscard]] std::vector<float> ginterp_decompress(
    std::span<const quant::Code> codes, std::span<const float> anchors,
    const quant::OutlierSetT<float>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius = quant::kDefaultRadius);
[[nodiscard]] std::vector<double> ginterp_decompress(
    std::span<const quant::Code> codes, std::span<const double> anchors,
    const quant::OutlierSetT<double>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius = quant::kDefaultRadius);

/// In-place reconstruction: outliers arrive as borrowed views, anchors and
/// outlier originals are scattered straight into the caller-provided `out`
/// span (size dims.volume()), and the interpolation tiles read and write
/// that same buffer — no staging copy of the field exists. Performs the
/// same archive validation as ginterp_decompress and produces bit-identical
/// output for every archive that validation admits; see GInterpReconstructorT
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

/// In-place reconstruction, one tile-grid z-slab at a time — the unit
/// ginterp_decompress_into and the progressive preview fan out across the
/// pool.
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
/// Scheduling keeps the formal data race out: the constructor snapshots
/// every slab-boundary z-plane right after the scatter, and a slab's tiles
/// load their +z border row-by-row from that immutable snapshot instead of
/// from `out` — the snapshot holds exactly the values the safety argument
/// says are consumed (anchors and outlier originals, which reconstruction
/// writes back unchanged), so the substitution is bit-transparent. With the
/// cross-slab read gone, slabs are fully independent (disjoint writes,
/// snapshot or own-slab reads) and may run in ANY order, including
/// concurrently on different streams; within a slab tiles launch in four
/// (bx, by)-parity waves, so no two concurrent tiles' closed regions
/// overlap. Output is bit-identical to the staged ginterp_decompress at any
/// worker count and any slab schedule.
///
/// Caveat: positions whose code is the outlier marker but which the archive
/// failed to list as outliers (impossible for well-formed archives; not
/// always detectable for corrupt ones) reconstruct from `out`'s prior
/// contents instead of the staging buffer's zeros — still silently-wrong
/// values either way, and never UB, which is all the corruption contract
/// promises.
template <typename T>
class GInterpReconstructorT {
 public:
  /// Validates archive metadata (same core::CorruptArchive throws as
  /// ginterp_decompress) and scatters anchors + outlier originals into
  /// `out`. `codes` and `out` are borrowed and must outlive the slab runs.
  /// `max_level` > 1 stops the per-tile level walk above that level's
  /// stride: only stride-2^(max_level-1) grid positions are reconstructed
  /// (the progressive preview path); everything finer keeps whatever `out`
  /// held after the scatter.
  GInterpReconstructorT(std::span<const quant::Code> codes,
                        std::span<const T> anchors,
                        const quant::OutlierViewT<T>& outliers,
                        const dev::Dim3& dims, double eb,
                        const InterpConfig& cfg, int radius, std::span<T> out,
                        int max_level = 1);

  [[nodiscard]] std::size_t slab_count() const { return grid_.z; }

  /// Reconstructs every tile with block index z == bz. Slabs are mutually
  /// independent (cross-slab borders come from the constructor's snapshot),
  /// so calls may come in any order and from concurrent streams — each bz
  /// exactly once.
  void run_slab(std::size_t bz);

 private:
  std::span<const quant::Code> codes_;
  std::span<T> out_;
  dev::Dim3 dims_;
  dev::Dim3 grid_;
  Geometry geo_;
  InterpConfig cfg_;
  std::vector<quant::Quantizer> level_qz_;
  std::size_t min_stride_ = 1;  ///< finest stride the level walk reaches
  /// Post-scatter snapshot of the slab-boundary z-planes (z = (bz+1)*tile.z
  /// for bz < grid_.z - 1), dims.x*dims.y elements each, making every slab's
  /// +z border load independent of neighbor-slab progress.
  std::vector<T> border_;
};

using GInterpReconstructor = GInterpReconstructorT<float>;

extern template class GInterpReconstructorT<float>;
extern template class GInterpReconstructorT<double>;

// ---- Random-access (ROI) reconstruction ----------------------------------
//
// Tiles are self-seeding: the first interpolation pass's inputs are all
// anchor positions, and the only *loaded* values a tile ever consumes are
// anchors and outlier originals. A box-local buffer that holds exactly the
// post-scatter state of the covering tiles' closed regions therefore
// reconstructs those tiles bit-identically to a full decompress — no tile
// outside the cover has to run. The closed forms above (ginterp_level_*)
// locate each level's covered symbols inside its per-level stream, so a
// random-access reader decodes only the Huffman chunks those rank runs
// touch.

/// Covering-tile plan of the ROI box [lo, lo + ext): the tile block range
/// and the tile-aligned closed box that contains every covering tile's
/// closed region. Throws std::invalid_argument when the ROI is empty or
/// exceeds the field.
struct GInterpRoiPlan {
  dev::Dim3 tile_lo;   ///< first covering tile block per axis
  dev::Dim3 tile_hi;   ///< one past the last covering tile block
  dev::Dim3 box_lo;    ///< closed box origin (tile_lo * tile)
  dev::Dim3 box_dims;  ///< closed box extents, clipped to the field
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

/// Box-clipped counterpart of GInterpReconstructorT: reconstructs only the
/// plan's covering tiles inside a box-local buffer. `codes` and `out` are
/// box-local arrays of plan.box_dims.volume() elements; the caller has
/// already radius-prefilled `codes`, scattered every covered level's
/// symbols into it, and scattered anchors + outlier originals into `out`
/// (all at box-local indices). Tile clamps, pass walks and per-point
/// arithmetic are shared with the full reconstructor, so the owned region
/// of every covering tile comes out bit-identical to the same tile of a
/// full decompress; positions of `out` outside those owned regions (the
/// halo) hold reconstruction scratch and must be discarded by the crop.
template <typename T>
class GInterpRoiReconstructorT {
 public:
  GInterpRoiReconstructorT(std::span<const quant::Code> codes,
                           const GInterpRoiPlan& plan, const dev::Dim3& dims,
                           double eb, const InterpConfig& cfg, int radius,
                           std::span<T> out);

  /// Covered tile slabs along z; slab k holds tile block z = tile_lo.z + k.
  [[nodiscard]] std::size_t slab_count() const {
    return plan_.tile_hi.z - plan_.tile_lo.z;
  }

  /// Reconstructs every covering tile of slab k. As with the full
  /// reconstructor, slabs are mutually independent (interior slab
  /// boundaries load from a post-scatter snapshot) and may run concurrently
  /// — each k exactly once.
  void run_slab(std::size_t k);

 private:
  std::span<const quant::Code> codes_;
  std::span<T> out_;
  dev::Dim3 dims_;
  GInterpRoiPlan plan_;
  Geometry geo_;
  InterpConfig cfg_;
  std::vector<quant::Quantizer> level_qz_;
  /// Post-scatter snapshot of the box-interior slab-boundary z-planes
  /// (box_dims.x * box_dims.y elements each), one per interior boundary.
  std::vector<T> border_;
};

extern template class GInterpRoiReconstructorT<float>;
extern template class GInterpRoiReconstructorT<double>;

}  // namespace szi::predictor
