// The Lorenzo predictor with cuSZ's dual-quantization (§III-A and [16]):
// values are first snapped to the 2eb lattice (pre-quantization), then the
// 1/2/3-D Lorenzo stencil runs on the lattice integers, which makes the
// prediction-quantization kernel fully parallel (predictions read
// pre-quantized *originals*, not reconstructions). Decompression inverts the
// stencil with one inclusive prefix-sum per dimension.
//
// This predictor is the compression core of the cuSZ / cuSZp / FZ-GPU
// baselines and cuSZ-i's point of comparison in Figs. 5 and 6.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "device/dims.hh"
#include "quant/outlier.hh"
#include "quant/quantizer.hh"

namespace szi::predictor {

struct LorenzoOutput {
  std::vector<quant::Code> codes;  ///< biased codes, one per element
  quant::OutlierSet outliers;      ///< values hold the escaped q (exact)
};

/// Prediction output in pooled memory, valid until the Workspace resets.
struct LorenzoView {
  std::span<const quant::Code> codes;
  quant::OutlierViewT<float> outliers;
};

/// Pre-quantize + Lorenzo-predict + quantize. Throws if eb <= 0.
[[nodiscard]] LorenzoOutput lorenzo_compress(std::span<const float> data,
                                             const dev::Dim3& dims, double eb,
                                             int radius = quant::kDefaultRadius);

/// Prediction output plus the quant-code histogram (2*radius bins) counted
/// inside the predict kernel itself — no separate read pass over `codes`.
/// Codes/outliers are bit-identical to lorenzo_compress's, and the
/// histogram counts those codes exactly.
struct LorenzoFused {
  LorenzoView pred;
  std::vector<std::uint32_t> histogram;
};

[[nodiscard]] LorenzoFused lorenzo_compress_fused(std::span<const float> data,
                                                  const dev::Dim3& dims,
                                                  double eb, int radius,
                                                  dev::Workspace& ws);

/// Inverse: scatter outlier q's, prefix-sum per dimension, scale by 2eb.
[[nodiscard]] std::vector<float> lorenzo_decompress(
    std::span<const quant::Code> codes, const quant::OutlierSet& outliers,
    const dev::Dim3& dims, double eb, int radius = quant::kDefaultRadius);

}  // namespace szi::predictor
