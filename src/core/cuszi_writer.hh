// The two halves of the cuSZ-i compress path around prediction: parameter
// validation with the auto-tune, and the SZI2 writer. Internal: declared
// here only so a test target can assemble archives from its own prediction
// and level split through the shipped writer. Both are explicitly
// instantiated for float and double in cuszi.cc.
#pragma once

#include <cstddef>
#include <span>

#include "core/compressor_iface.hh"
#include "device/arena.hh"
#include "device/dims.hh"
#include "huffman/codebook.hh"
#include "predictor/ginterp.hh"
#include "predictor/interp_config.hh"

namespace szi::detail {

/// The absolute error bound a compress call resolved, and the tuned config.
struct Tuned {
  double eb;
  predictor::InterpConfig cfg;
};

/// Validates the parameters and runs the profiling auto-tune kernel (which
/// also resolves Rel -> Abs). Throws std::invalid_argument on unsupported
/// modes, a size/dims mismatch or a non-positive resolved bound.
template <typename T>
Tuned autotune_checked(std::span<const T> data, const dev::Dim3& dims,
                       const CompressParams& p, dev::Workspace& ws);

/// Writes the SZI2 archive of `pred` into `ws` memory (valid until the
/// caller resets `ws`). Level l's codes and codebook are
/// `levels.streams[l - 1]` and `books[l - 1]`.
template <typename T>
std::span<const std::byte> write_v2(const predictor::GInterpViewT<T>& pred,
                                    const predictor::GInterpLevelSplit& levels,
                                    std::span<const huffman::Codebook> books,
                                    const dev::Dim3& dims, const Tuned& tuned,
                                    int radius, dev::Workspace& ws);

}  // namespace szi::detail
