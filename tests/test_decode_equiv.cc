// Decode-path equivalence: the overhauled decompression hot paths — the
// buffered BitReader + multi-symbol Huffman pack LUT (huffman::decode_chunks)
// and the in-place slab reconstruction (ginterp_decompress_into /
// GInterpReconstructorT) — must be bit-identical to the retained references:
// the single-symbol-per-probe chunk decoder (decode_chunks_reference) and
// reference::ginterp_decompress (tests/reference.hh), the naive staged tile
// walk that reconstructs through a separate scatter buffer. Mirrors
// tests/test_fused_equiv.cc for the compress side.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "core/bytes.hh"
#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/arena.hh"
#include "huffman/huffman.hh"
#include "lossless/lzss.hh"
#include "predictor/ginterp.hh"
#include "reference.hh"
#include "reference_pipeline.hh"

namespace {

using szi::CompressParams;
using szi::ErrorMode;
using szi::dev::Dim3;
using szi::predictor::InterpConfig;
using szi::quant::Code;

constexpr CompressParams kRel{ErrorMode::Rel, 1e-3};

/// Both chunk decoders over one encoded stream; returns the packed result
/// after asserting it equals the reference symbol-for-symbol.
std::vector<Code> decode_both_ways(std::span<const Code> codes,
                                   std::size_t nbins, std::size_t chunk_size) {
  const auto stream = szi::huffman::encode(codes, nbins, chunk_size);
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto plan = szi::huffman::decode_plan(stream, ws);
  std::vector<Code> fast(plan.n), ref(plan.n);
  szi::huffman::decode_chunks(plan, 0, plan.nchunks, fast);
  szi::huffman::decode_chunks_reference(plan, 0, plan.nchunks, ref);
  EXPECT_EQ(fast, ref);
  return fast;
}

/// Staged reference reconstruction vs the in-place path, with the in-place
/// destination prefilled with garbage to prove prior contents are invisible.
template <typename T>
void expect_inplace_matches_staged(std::span<const T> data, const Dim3& dims,
                                   double eb) {
  const InterpConfig cfg;
  const auto enc = szi::predictor::ginterp_compress(data, dims, eb, cfg);
  const auto staged = szi::predictor::reference::ginterp_decompress(
      enc.codes, std::span<const T>(enc.anchors), enc.outliers, dims, eb, cfg);

  std::vector<T> inplace(dims.volume(), static_cast<T>(-7.25e11));
  szi::quant::OutlierViewT<T> ov;
  ov.indices = enc.outliers.indices;
  ov.values = enc.outliers.values;
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  szi::predictor::ginterp_decompress_into(
      enc.codes, std::span<const T>(enc.anchors), ov, dims, eb, cfg,
      szi::quant::kDefaultRadius, std::span<T>(inplace), ws);
  ASSERT_EQ(staged.size(), inplace.size());
  // Bit-level comparison: NaNs or signed zeros must match exactly too.
  ASSERT_EQ(0, std::memcmp(staged.data(), inplace.data(),
                           staged.size() * sizeof(T)))
      << dims.x << "x" << dims.y << "x" << dims.z;
}

// Every field of every generated dataset, decoded through both Huffman chunk
// decoders and both reconstruction paths.
TEST(DecodeEquiv, AllDatasetsByteIdentical) {
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (const auto& name : szi::datagen::dataset_names()) {
    const auto fields =
        szi::datagen::make_dataset(name, szi::datagen::Size::Small);
    for (const auto& f : fields) {
      const std::span<const float> d(f.data);
      const double eb = szi::resolve_abs_eb(kRel, d, "test_decode_equiv");
      expect_inplace_matches_staged<float>(d, f.dims, eb);

      const InterpConfig cfg;
      const auto enc = szi::predictor::ginterp_compress(d, f.dims, eb, cfg);
      const auto decoded = decode_both_ways(
          enc.codes, 2 * szi::quant::kDefaultRadius, szi::huffman::kDefaultChunk);
      EXPECT_EQ(decoded, enc.codes) << name << "/" << f.name;

      // End to end: the overhauled wrapped decode must reproduce the plain
      // (reference-pipeline) decode bit for bit.
      const auto inner = szi::cuszi_compress(d, f.dims, kRel);
      const auto wrapped = szi::bitcomp_wrap_archive(inner);
      ASSERT_EQ(szi::cuszi_decompress_bitcomp_f32(wrapped, ws),
                szi::cuszi_decompress_f32(inner))
          << name << "/" << f.name;
    }
  }
}

// Odd, even, and degenerate extents in both precisions: slab scheduling and
// the in-place border reads are where a tile-order dependence would first
// show (partial tiles, single-slab grids, scalar fields).
TEST(DecodeEquiv, ShapesAndPrecisions) {
  const Dim3 shapes[] = {{33, 17, 9}, {32, 16, 8}, {64, 64, 1}, {129, 1, 1},
                         {5, 3, 2},   {2, 2, 2},   {1, 1, 1},   {7, 1, 1}};
  for (const auto& dims : shapes) {
    std::vector<float> v32(dims.volume());
    std::vector<double> v64(dims.volume());
    for (std::size_t i = 0; i < v32.size(); ++i) {
      v64[i] = std::sin(0.05 * static_cast<double>(i)) +
               0.3 * std::cos(0.011 * static_cast<double>(i * i % 1009));
      v32[i] = static_cast<float>(v64[i]);
    }
    expect_inplace_matches_staged<float>(v32, dims, 1e-4);
    expect_inplace_matches_staged<double>(v64, dims, 1e-4);
  }
}

// Huffman pack-LUT edge shapes: tiny streams (shorter than one pack), chunk
// sizes that leave sub-pack tails, streams that end mid-window, and a
// codebook deep enough that the slow-path escape actually runs.
TEST(DecodeEquiv, HuffmanPackEdgeCases) {
  // Concentrated two-hot stream: windows pack the maximum symbol count.
  std::vector<Code> concentrated(100000);
  for (std::size_t i = 0; i < concentrated.size(); ++i)
    concentrated[i] = static_cast<Code>(512 + (i % 2));
  (void)decode_both_ways(concentrated, 1024, szi::huffman::kDefaultChunk);

  // Geometric spread over many symbols: code lengths past kLutBits force
  // the escape path inside packed windows.
  std::vector<Code> spread(200000);
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  for (auto& c : spread) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    // Favor symbol 0 heavily so rare symbols get long codes.
    const unsigned r = static_cast<unsigned>(s >> 59);
    c = static_cast<Code>(r < 24 ? 0 : (s >> 32) % 4096);
  }
  (void)decode_both_ways(spread, 4096, szi::huffman::kDefaultChunk);

  // Tails and tiny streams around the pack width.
  for (const std::size_t n : {1ul, 5ul, 6ul, 7ul, 13ul, 100ul})
    (void)decode_both_ways(std::span<const Code>(spread).first(n), 4096, 64);
}

// Both LZSS parameterizations through the phased wrapped full decode
// (widened match copies + literal batching are exercised by both token
// mixes).
TEST(DecodeEquiv, BothLzssModes) {
  const auto f =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small).front();
  const std::span<const float> d(f.data);
  const auto inner = szi::cuszi_compress(d, f.dims, kRel);
  const auto ref = szi::cuszi_decompress_f32(inner);
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (const auto mode :
       {szi::lossless::LzssMode::Greedy, szi::lossless::LzssMode::Lazy})
    ASSERT_EQ(szi::cuszi_decompress_bitcomp_f32(
                  szi::bitcomp_wrap_archive(inner, mode), ws),
              ref);
}

// A chunk table that lies about its extent must surface CorruptArchive from
// the pool workers of both chunk decoders (the launch-exception satellite:
// dev::launch_linear rethrows the first worker exception on the caller).
TEST(DecodeEquiv, CorruptChunkExtentThrowsThroughParallelLaunch) {
  // Hand-built stream: 4 symbols with Kraft-complete lengths {1,2,3,3},
  // claiming 100 symbols in one chunk whose payload is a single byte.
  // Decoding consumes >= 1 bit per symbol (past-end bits read as zero), so
  // position() overruns the 8-bit span and the extent check must throw.
  szi::core::ByteWriter w;
  w.put(std::uint32_t{4});
  for (const std::uint8_t len : {1, 2, 3, 3}) w.put(len);
  w.put(std::uint64_t{100});        // n_symbols
  w.put(std::uint32_t{100});        // chunk_size -> one chunk
  w.put(std::uint64_t{1});          // payload_bytes
  w.put(std::uint64_t{0});          // chunk 0 offset
  w.put(std::uint8_t{0xFF});        // payload
  const auto bytes = w.take();

  EXPECT_THROW((void)szi::huffman::decode(bytes), szi::core::CorruptArchive);

  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  const auto plan = szi::huffman::decode_plan(bytes, ws);
  std::vector<Code> out(plan.n);
  EXPECT_THROW(
      szi::huffman::decode_chunks_reference(plan, 0, plan.nchunks, out),
      szi::core::CorruptArchive);
}

}  // namespace
