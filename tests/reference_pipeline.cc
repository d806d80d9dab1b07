// See reference_pipeline.hh: test-only pipelines and serial oracles.
#include "reference_pipeline.hh"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/bytes.hh"
#include "core/cuszi_writer.hh"
#include "core/timer.hh"
#include "device/launch.hh"
#include "huffman/codebook.hh"
#include "lossless/bitio.hh"
#include "reference.hh"

namespace szi {

namespace {

/// The unfused compress: every stage a separate pass, codebooks per level
/// or, when `unified`, one book over the summed level histograms.
template <typename T>
std::vector<std::byte> compress_reference(std::span<const T> data,
                                          const dev::Dim3& dims,
                                          const CompressParams& p,
                                          StageTimings* timings,
                                          bool unified) {
  core::Timer total;
  core::Timer stage;
  StageTimings t;
  dev::Arena local;
  dev::Workspace ws(local);
  const detail::Tuned tuned = detail::autotune_checked(data, dims, p, ws);
  constexpr int kRadius = quant::kDefaultRadius;
  const std::size_t nbins = 2 * static_cast<std::size_t>(kRadius);
  const auto enc = predictor::reference::ginterp_compress(data, dims, tuned.eb,
                                                         tuned.cfg, kRadius);
  t.predict = stage.lap();

  const auto levels =
      predictor::ginterp_split_levels(enc.codes, dims, nbins, ws);
  t.histogram = stage.lap();

  std::vector<huffman::Codebook> books;
  if (unified) {
    std::vector<std::uint32_t> sum(nbins, 0);
    for (const auto& h : levels.histograms)
      for (std::size_t b = 0; b < nbins; ++b) sum[b] += h[b];
    books.assign(levels.streams.size(), huffman::Codebook::build(sum));
  } else {
    books = huffman::build_level_books(levels.histograms);
  }
  t.codebook = stage.lap();

  predictor::GInterpViewT<T> pred;
  pred.anchors = enc.anchors;
  pred.outliers.indices = enc.outliers.indices;
  pred.outliers.values = enc.outliers.values;
  const auto raw =
      detail::write_v2<T>(pred, levels, books, dims, tuned, kRadius, ws);
  std::vector<std::byte> out(raw.begin(), raw.end());
  t.encode = stage.lap();
  t.total = total.lap();
  if (timings) *timings = t;
  return out;
}

}  // namespace

std::vector<std::byte> cuszi_compress_unfused(std::span<const float> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& params,
                                              StageTimings* timings) {
  return compress_reference<float>(data, dims, params, timings, false);
}

std::vector<std::byte> cuszi_compress_unfused(std::span<const double> data,
                                              const dev::Dim3& dims,
                                              const CompressParams& params,
                                              StageTimings* timings) {
  return compress_reference<double>(data, dims, params, timings, false);
}

std::vector<std::byte> cuszi_compress_unified_book(
    std::span<const float> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings) {
  return compress_reference<float>(data, dims, params, timings, true);
}

std::vector<std::byte> cuszi_compress_unified_book(
    std::span<const double> data, const dev::Dim3& dims,
    const CompressParams& params, StageTimings* timings) {
  return compress_reference<double>(data, dims, params, timings, true);
}

}  // namespace szi

namespace szi::predictor {

namespace {

template <typename T>
GInterpOutputT<T> compress_full(std::span<const T> data,
                                const dev::Dim3& dims, double eb,
                                const InterpConfig& cfg, int radius) {
  dev::Arena local;
  dev::Workspace ws(local);
  const auto fl =
      ginterp_compress_fused_levels(data, dims, eb, cfg, radius, ws);
  GInterpOutputT<T> out;
  out.codes.resize(dims.volume());
  ginterp_scatter_levels(dims, fl.levels.streams,
                         static_cast<quant::Code>(radius), out.codes);
  const auto& p = fl.pred;
  out.anchors.assign(p.anchors.begin(), p.anchors.end());
  out.outliers = {{p.outliers.indices.begin(), p.outliers.indices.end()},
                  {p.outliers.values.begin(), p.outliers.values.end()}};
  return out;
}

// The output is sized by `codes`, which ginterp_decompress_into checks
// against `dims` before it writes.
template <typename T>
std::vector<T> decompress_full(std::span<const quant::Code> codes,
                               std::span<const T> anchors,
                               const quant::OutlierSetT<T>& outliers,
                               const dev::Dim3& dims, double eb,
                               const InterpConfig& cfg, int radius) {
  std::vector<T> out(codes.size());
  dev::Arena local;
  dev::Workspace ws(local);
  ginterp_decompress_into(codes, anchors, {outliers.indices, outliers.values},
                          dims, eb, cfg, radius, std::span<T>(out), ws);
  return out;
}

}  // namespace

GInterpOutputT<float> ginterp_compress(std::span<const float> data,
                                       const dev::Dim3& dims, double eb,
                                       const InterpConfig& cfg, int radius) {
  return compress_full<float>(data, dims, eb, cfg, radius);
}

GInterpOutputT<double> ginterp_compress(std::span<const double> data,
                                        const dev::Dim3& dims, double eb,
                                        const InterpConfig& cfg, int radius) {
  return compress_full<double>(data, dims, eb, cfg, radius);
}

std::vector<float> ginterp_decompress(std::span<const quant::Code> codes,
                                      std::span<const float> anchors,
                                      const quant::OutlierSetT<float>& outliers,
                                      const dev::Dim3& dims, double eb,
                                      const InterpConfig& cfg, int radius) {
  return decompress_full<float>(codes, anchors, outliers, dims, eb, cfg,
                                radius);
}

std::vector<double> ginterp_decompress(
    std::span<const quant::Code> codes, std::span<const double> anchors,
    const quant::OutlierSetT<double>& outliers, const dev::Dim3& dims,
    double eb, const InterpConfig& cfg, int radius) {
  return decompress_full<double>(codes, anchors, outliers, dims, eb, cfg,
                                 radius);
}

GInterpLevelSplit ginterp_split_levels(std::span<const quant::Code> codes,
                                       const dev::Dim3& dims,
                                       std::size_t nbins, dev::Workspace& ws) {
  if (codes.size() != dims.volume())
    throw std::invalid_argument("ginterp_split_levels: size/dims mismatch");
  const auto nlv = static_cast<std::size_t>(ginterp_level_count(dims));
  GInterpLevelSplit out;
  out.streams.resize(nlv);
  out.histograms.assign(nlv, std::vector<std::uint32_t>(nbins, 0u));
  for (std::size_t v = 0; v < nlv; ++v) {
    const int level = static_cast<int>(v) + 1;
    auto stream = ws.make<quant::Code>(ginterp_level_volume(dims, level));
    auto& hist = out.histograms[v];
    std::size_t fill = 0;
    ginterp_level_box_runs(
        dims, level, {0, 0, 0}, dims,
        [&](std::size_t, std::size_t count, std::size_t x0, std::size_t y,
            std::size_t z, std::size_t step) {
          if (count > stream.size() - fill)
            throw std::logic_error("ginterp_split_levels: level overflows");
          for (std::size_t i = 0; i < count; ++i) {
            const quant::Code code =
                codes[dev::linearize(dims, x0 + i * step, y, z)];
            stream[fill++] = code;
            ++hist[code];
          }
        });
    if (fill != stream.size())
      throw std::logic_error("ginterp_split_levels: level underfilled");
    out.streams[v] = stream;
  }
  return out;
}

void ginterp_scatter_levels(
    const dev::Dim3& dims,
    std::span<const std::span<const quant::Code>> streams, quant::Code fill,
    std::span<quant::Code> codes) {
  const auto nlv = static_cast<std::size_t>(ginterp_level_count(dims));
  if (codes.size() != dims.volume() || streams.size() != nlv)
    throw std::invalid_argument("ginterp_scatter_levels: size/dims mismatch");
  for (std::size_t v = 0; v < nlv; ++v)
    if (streams[v].size() !=
        ginterp_level_volume(dims, static_cast<int>(v) + 1))
      throw std::invalid_argument(
          "ginterp_scatter_levels: level stream size mismatch");
  std::fill(codes.begin(), codes.end(), fill);
  for (std::size_t v = 0; v < nlv; ++v) {
    const auto stream = streams[v];
    std::size_t next = 0;
    ginterp_level_box_runs(
        dims, static_cast<int>(v) + 1, {0, 0, 0}, dims,
        [&](std::size_t, std::size_t count, std::size_t x0, std::size_t y,
            std::size_t z, std::size_t step) {
          if (count > stream.size() - next)
            throw std::logic_error("ginterp_scatter_levels: level overruns");
          for (std::size_t i = 0; i < count; ++i)
            codes[dev::linearize(dims, x0 + i * step, y, z)] = stream[next++];
        });
    if (next != stream.size())
      throw std::logic_error("ginterp_scatter_levels: level left unread");
  }
}

}  // namespace szi::predictor

namespace szi::huffman {

void decode_chunks_reference(const DecodePlan& plan, std::size_t chunk_begin,
                             std::size_t chunk_end,
                             std::span<quant::Code> out) {
  const auto* payload =
      reinterpret_cast<const std::uint8_t*>(plan.payload.data());
  for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
    const std::size_t begin = c * plan.chunk_size;
    const std::size_t end = std::min(begin + plan.chunk_size, plan.n);
    const std::uint64_t hi =
        c + 1 < plan.nchunks ? plan.offsets[c + 1] : plan.payload_bytes;
    const auto bytes = static_cast<std::size_t>(hi - plan.offsets[c]);
    lossless::BitReader br({payload + plan.offsets[c], bytes});
    for (std::size_t i = begin; i < end; ++i) out[i] = plan.table.decode(br);
    if (br.position() > bytes * 8)
      throw core::CorruptArchive(
          "huffman", plan.offsets[c],
          "chunk decoded past its extent (chunk " + std::to_string(c) + ")");
  }
}

std::vector<std::uint32_t> histogram(std::span<const quant::Code> codes,
                                     std::size_t nbins) {
  const std::size_t nworkers = histogram_workers(codes.size());
  const std::size_t per = dev::ceil_div(codes.size(), nworkers);
  std::vector<std::uint32_t> parts(nworkers * kHistogramBanks * nbins, 0u);
  // Private-slot audit: `w` is the launch's loop index, NOT a thread id.
  // parts holds exactly `nworkers` slots and every w in [0, nworkers) runs
  // exactly once, so the indexing stays valid even when the launch degrades
  // to inline execution on a nested parallel_for — the caller then walks
  // all w values sequentially, each with its own slot, and the serial
  // worker-order merge gives the same totals.
  dev::launch_linear(
      nworkers,
      [&](std::size_t w) {
        const std::size_t begin = w * per;
        const std::size_t end = std::min(begin + per, codes.size());
        accumulate_banked(codes.data() + begin, end - begin,
                          parts.data() + w * kHistogramBanks * nbins, nbins);
      },
      1);
  return merge_histograms(parts, nworkers * kHistogramBanks, nbins);
}

std::vector<std::uint32_t> histogram_topk(std::span<const quant::Code> codes,
                                          std::size_t nbins, std::size_t center,
                                          std::size_t k) {
  dev::Arena local;
  dev::Workspace ws(local);
  return histogram_topk(codes, nbins, center, k, ws);
}

}  // namespace szi::huffman
