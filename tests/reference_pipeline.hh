// Test-only reference pipelines and oracles for the compress and decode
// paths. No shipped path runs any of them:
//   - the unfused cuSZ-i compress, in the cuSZ stage structure (predict
//     with the naive kernel of reference.hh, then split the finished code
//     array into level streams, then encode),
//     and the unified-codebook ablation. Both write through the shipped
//     SZI2 writer (core/cuszi_writer.hh), so their archives decode through
//     the normal entry points;
//   - the level split and its whole-field inverse scatter, serial walks in
//     fill order that the fused predict kernel's streams are checked
//     against;
//   - the vector forms of the shipped G-Interp kernels, which take and
//     return a full code array (tests and benches drive the predictor
//     through them);
//   - the one-symbol-per-probe Huffman chunk decoder, which the pack-table
//     decoder is checked against, and cuSZ's generic histogram, which the
//     top-k histogram is checked and ablated against.
// tests/reference.hh holds the naive predictor kernels.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/compressor_iface.hh"
#include "device/arena.hh"
#include "device/dims.hh"
#include "huffman/histogram.hh"
#include "huffman/huffman.hh"
#include "predictor/ginterp.hh"
#include "reference.hh"

namespace szi {

/// Reference (unfused) pipeline: autotune, reference::ginterp_compress,
/// ginterp_split_levels (with its histograms), per-level codebooks and the
/// shipped writer. Archive bytes are identical to cuszi_compress()
/// (tests/test_fused_equiv.cc asserts this). `timings` reports predict,
/// histogram (the split), codebook and encode as separate stages.
[[nodiscard]] std::vector<std::byte> cuszi_compress_unfused(
    std::span<const float> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr);
[[nodiscard]] std::vector<std::byte> cuszi_compress_unfused(
    std::span<const double> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr);

/// SZI2 with one unified codebook shared by every level segment instead of
/// a per-level book (the per-level-vs-unified ratio ablation). The framing
/// is unchanged — each segment still carries the book it decodes with — so
/// the archive decodes through the normal entry points.
[[nodiscard]] std::vector<std::byte> cuszi_compress_unified_book(
    std::span<const float> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr);
[[nodiscard]] std::vector<std::byte> cuszi_compress_unified_book(
    std::span<const double> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings = nullptr);

}  // namespace szi

namespace szi::predictor {

/// Predicts+quantizes `data` with the shipped fused kernel
/// (ginterp_compress_fused_levels over a throwaway arena) and rebuilds the
/// full code array from its level streams (ginterp_scatter_levels below,
/// anchors filled with `radius`).
[[nodiscard]] GInterpOutputT<float> ginterp_compress(
    std::span<const float> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius = quant::kDefaultRadius);
[[nodiscard]] GInterpOutputT<double> ginterp_compress(
    std::span<const double> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius = quant::kDefaultRadius);

/// Reconstructs the field from a full code array + anchors + outliers:
/// ginterp_decompress_into over a throwaway arena, into a fresh vector
/// (same validation, same bytes).
[[nodiscard]] std::vector<float> ginterp_decompress(
    std::span<const quant::Code> codes, std::span<const float> anchors,
    const quant::OutlierSetT<float>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius = quant::kDefaultRadius);
[[nodiscard]] std::vector<double> ginterp_decompress(
    std::span<const quant::Code> codes, std::span<const double> anchors,
    const quant::OutlierSetT<double>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius = quant::kDefaultRadius);

/// Per-level re-bucketing of a full code array: streams[ℓ-1] holds the
/// level-ℓ codes in ascending linear order (ws-owned), histograms[ℓ-1]
/// counts them over `nbins` bins. A serial walk in fill order over each
/// level's runs (ginterp_level_box_runs over the whole field), so it does
/// not share the fused kernel's rank arithmetic.
[[nodiscard]] GInterpLevelSplit ginterp_split_levels(
    std::span<const quant::Code> codes, const dev::Dim3& dims,
    std::size_t nbins, dev::Workspace& ws);

/// Whole-field inverse of the split, a serial walk in fill order over each
/// level's runs (ginterp_level_box_runs over the whole field): `codes`
/// comes out equal to a `fill` prefill followed by a LevelScatterCursor
/// walk over every level. streams[ℓ-1] holds level ℓ and must be exactly
/// ginterp_level_volume(dims, ℓ) long.
void ginterp_scatter_levels(
    const dev::Dim3& dims,
    std::span<const std::span<const quant::Code>> streams, quant::Code fill,
    std::span<quant::Code> codes);

}  // namespace szi::predictor

namespace szi::huffman {

/// The single-symbol-per-probe chunk decoder: a serial loop over chunks
/// [chunk_begin, chunk_end), each symbol one FastDecodeTable::decode from a
/// BitReader over the chunk's bytes. Throws core::CorruptArchive when a
/// chunk decodes past its extent, as decode_chunks does.
void decode_chunks_reference(const DecodePlan& plan, std::size_t chunk_begin,
                             std::size_t chunk_end, std::span<quant::Code> out);

/// cuSZ's generic privatized histogram over codes < nbins: one private
/// banked histogram per worker over a contiguous element range, merged in
/// worker order — the baseline histogram_topk is checked and ablated
/// against.
[[nodiscard]] std::vector<std::uint32_t> histogram(
    std::span<const quant::Code> codes, std::size_t nbins);

/// histogram_topk with a throwaway arena.
[[nodiscard]] std::vector<std::uint32_t> histogram_topk(
    std::span<const quant::Code> codes, std::size_t nbins, std::size_t center,
    std::size_t k);

}  // namespace szi::huffman
