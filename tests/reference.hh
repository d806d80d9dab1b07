// Retained *reference* implementations of the G-Interp tile kernel and the
// Lorenzo predictor — verbatim copies of the pre-optimization inner loops
// (per-point neighbor availability checks, per-point dev::linearize, no
// interior/rim split). They exist solely so tests/test_predictor_equiv.cc
// can assert that the optimized kernels in ginterp.cc / lorenzo.cc produce
// byte-identical quant codes, anchors, outliers, and reconstructions: the
// optimization contract is "same arithmetic per point, different control
// flow", and these keep that contract executable.
//
// Do not optimize this file. It is deliberately the slow, obviously-correct
// formulation.
#pragma once

#include <span>
#include <vector>

#include "predictor/ginterp.hh"
#include "predictor/lorenzo.hh"

namespace szi::predictor {

/// Everything the prediction stage produces, in owned vectors and with the
/// codes as one full array (anchor positions hold the perfectly predicted
/// code, `radius`): what the naive kernel below and the vector
/// ginterp_compress of reference_pipeline.hh return.
template <typename T>
struct GInterpOutputT {
  std::vector<quant::Code> codes;  ///< biased quant-codes, one per element
  std::vector<T> anchors;          ///< lossless anchor grid
  quant::OutlierSetT<T> outliers;  ///< |q| >= radius escapes
};

}  // namespace szi::predictor

namespace szi::predictor::reference {

[[nodiscard]] GInterpOutputT<float> ginterp_compress(
    std::span<const float> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius = quant::kDefaultRadius);
[[nodiscard]] GInterpOutputT<double> ginterp_compress(
    std::span<const double> data, const dev::Dim3& dims, double eb,
    const InterpConfig& cfg, int radius = quant::kDefaultRadius);

[[nodiscard]] std::vector<float> ginterp_decompress(
    std::span<const quant::Code> codes, std::span<const float> anchors,
    const quant::OutlierSetT<float>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius = quant::kDefaultRadius);
[[nodiscard]] std::vector<double> ginterp_decompress(
    std::span<const quant::Code> codes, std::span<const double> anchors,
    const quant::OutlierSetT<double>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius = quant::kDefaultRadius);

[[nodiscard]] LorenzoOutput lorenzo_compress(std::span<const float> data,
                                             const dev::Dim3& dims, double eb,
                                             int radius = quant::kDefaultRadius);

}  // namespace szi::predictor::reference
