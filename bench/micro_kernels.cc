// google-benchmark microbenchmarks for the individual kernels: the §VI-A
// histogram ablation (baseline vs top-k hot-band caching), Huffman
// encode/decode, the de-redundancy codec on Huffman-like streams, bitshuffle,
// and the two predictors.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "datagen/rng.hh"
#include "device/arena.hh"
#include "huffman/codebook.hh"
#include "huffman/histogram.hh"
#include "huffman/huffman.hh"
#include "lossless/bitio.hh"
#include "lossless/bitshuffle.hh"
#include "lossless/lzss.hh"
#include "lossless/rle.hh"
#include "predictor/autotune.hh"
#include "predictor/ginterp.hh"
#include "predictor/lorenzo.hh"
#include "reference_pipeline.hh"

namespace {

using szi::quant::Code;

/// Quant-code stream with a controllable concentration (p close to 1 =>
/// nearly all zero codes, the G-Interp regime).
std::vector<Code> codes_with_concentration(std::size_t n, double p) {
  szi::datagen::Rng rng(42);
  std::vector<Code> codes(n);
  for (auto& c : codes) {
    if (rng.uniform() < p) {
      c = 512;
    } else {
      c = static_cast<Code>(512 + static_cast<int>(rng.gaussian() * 40));
    }
  }
  return codes;
}

const szi::Field& miranda_field() {
  static const auto fields = szi::datagen::miranda(szi::datagen::Size::Small);
  return fields.front();
}

void BM_HistogramBaseline(benchmark::State& state) {
  const auto codes = codes_with_concentration(1 << 22, 0.95);
  for (auto _ : state)
    benchmark::DoNotOptimize(szi::huffman::histogram(codes, 1024));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size() * 2));
}
BENCHMARK(BM_HistogramBaseline);

void BM_HistogramTopK(benchmark::State& state) {
  const auto codes = codes_with_concentration(1 << 22, 0.95);
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(szi::huffman::histogram_topk(codes, 1024, 512, k));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size() * 2));
}
BENCHMARK(BM_HistogramTopK)->Arg(1)->Arg(8)->Arg(16);

void BM_HuffmanEncode(benchmark::State& state) {
  const auto codes = codes_with_concentration(1 << 21, 0.9);
  for (auto _ : state)
    benchmark::DoNotOptimize(szi::huffman::encode(codes, 1024));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size() * 2));
}
BENCHMARK(BM_HuffmanEncode);

void BM_HuffmanDecode(benchmark::State& state) {
  const auto codes = codes_with_concentration(1 << 21, 0.9);
  const auto enc = szi::huffman::encode(codes, 1024);
  for (auto _ : state) benchmark::DoNotOptimize(szi::huffman::decode(enc));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size() * 2));
}
BENCHMARK(BM_HuffmanDecode);

void BM_HuffmanDecodeBitSerial(benchmark::State& state) {
  // Ablation partner of BM_HuffmanDecode: the canonical bit-serial decoder
  // vs the LUT-accelerated default.
  const auto codes = codes_with_concentration(1 << 21, 0.9);
  const auto hist = szi::huffman::histogram(codes, 1024);
  const auto book = szi::huffman::Codebook::build(hist);
  const auto enc = szi::huffman::encode_with_book(codes, book);
  // Re-decode through the slow table directly on the raw payload is not
  // exposed; emulate by timing table.decode over a rebuilt bitstream.
  std::vector<std::uint8_t> bits;
  {
    szi::lossless::BitWriter bw(bits);
    for (const auto c : codes) bw.put(book.codes[c], book.lengths[c]);
    bw.align();
  }
  const auto table = szi::huffman::DecodeTable::from(book);
  for (auto _ : state) {
    szi::lossless::BitReader br(bits);
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < codes.size(); ++i) sink += table.decode(br);
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size() * 2));
}
BENCHMARK(BM_HuffmanDecodeBitSerial);

void BM_LzssOnHuffmanStream(benchmark::State& state) {
  // The §VI-B input: a Huffman stream dominated by zero-runs.
  const auto codes = codes_with_concentration(1 << 21, 0.97);
  const auto huff = szi::huffman::encode(codes, 1024);
  for (auto _ : state)
    benchmark::DoNotOptimize(szi::lossless::lzss_compress(huff));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(huff.size()));
}
BENCHMARK(BM_LzssOnHuffmanStream);

void BM_LzssOnHuffmanStreamGreedy(benchmark::State& state) {
  // Ablation partner of BM_LzssOnHuffmanStream: the pre-lazy greedy matcher.
  const auto codes = codes_with_concentration(1 << 21, 0.97);
  const auto huff = szi::huffman::encode(codes, 1024);
  for (auto _ : state)
    benchmark::DoNotOptimize(szi::lossless::lzss_compress(
        huff, szi::lossless::kLzssBlock, szi::lossless::LzssMode::Greedy));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(huff.size()));
}
BENCHMARK(BM_LzssOnHuffmanStreamGreedy);

void BM_LzssDecode(benchmark::State& state) {
  // Decode side of BM_LzssOnHuffmanStream: parallel block decode with the
  // widened match copies (8-byte chunks for dist >= 8, memset for dist == 1,
  // batched literal runs).
  const auto codes = codes_with_concentration(1 << 21, 0.97);
  const auto huff = szi::huffman::encode(codes, 1024);
  const auto enc = szi::lossless::lzss_compress(huff);
  for (auto _ : state)
    benchmark::DoNotOptimize(szi::lossless::lzss_decompress(enc));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(huff.size()));
}
BENCHMARK(BM_LzssDecode);

void BM_ZeroRleOnShuffledCodes(benchmark::State& state) {
  const auto codes = codes_with_concentration(1 << 21, 0.97);
  std::vector<std::uint8_t> shuffled(
      szi::lossless::bitshuffle16_size(codes.size()));
  szi::lossless::bitshuffle16(codes, shuffled);
  const std::span<const std::byte> view{
      reinterpret_cast<const std::byte*>(shuffled.data()), shuffled.size()};
  for (auto _ : state)
    benchmark::DoNotOptimize(szi::lossless::zero_rle_compress(view));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shuffled.size()));
}
BENCHMARK(BM_ZeroRleOnShuffledCodes);

void BM_Bitshuffle(benchmark::State& state) {
  const auto codes = codes_with_concentration(1 << 21, 0.9);
  std::vector<std::uint8_t> out(szi::lossless::bitshuffle16_size(codes.size()));
  for (auto _ : state) {
    szi::lossless::bitshuffle16(codes, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(codes.size() * 2));
}
BENCHMARK(BM_Bitshuffle);

void BM_GInterpPredict(benchmark::State& state) {
  // The fused predict kernel as the compressor runs it (codes, level
  // streams, histograms and outliers in one pass), drawing its buffers
  // from one workspace reused across iterations.
  const auto& f = miranda_field();
  const double eb = 1e-3 * 2.0;  // ~rel 1e-3 on the [1,3] density field
  const auto prof = szi::predictor::autotune(f.data, f.dims, eb);
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (auto _ : state) {
    ws.reset();
    benchmark::DoNotOptimize(szi::predictor::ginterp_compress_fused_levels(
        f.view(), f.dims, eb, prof.config, szi::quant::kDefaultRadius, ws));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_GInterpPredict);

void BM_LorenzoPredict(benchmark::State& state) {
  const auto& f = miranda_field();
  const double eb = 1e-3 * 2.0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        szi::predictor::lorenzo_compress(f.data, f.dims, eb));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_LorenzoPredict);

void BM_GInterpReconstruct(benchmark::State& state) {
  // Anchors/outliers scatter into the caller's buffer and the tile passes
  // reconstruct in place (GInterpReconstructorT), into one output buffer
  // reused across iterations.
  const auto& f = miranda_field();
  const double eb = 1e-3 * 2.0;
  const auto prof = szi::predictor::autotune(f.data, f.dims, eb);
  const auto enc =
      szi::predictor::ginterp_compress(f.data, f.dims, eb, prof.config);
  szi::quant::OutlierViewT<float> ov;
  ov.indices = enc.outliers.indices;
  ov.values = enc.outliers.values;
  std::vector<float> out(f.dims.volume());
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (auto _ : state) {
    szi::predictor::ginterp_decompress_into(
        enc.codes, std::span<const float>(enc.anchors), ov, f.dims, eb,
        prof.config, szi::quant::kDefaultRadius, std::span<float>(out), ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_GInterpReconstruct);

void BM_AutotuneKernel(benchmark::State& state) {
  const auto& f = miranda_field();
  for (auto _ : state)
    benchmark::DoNotOptimize(szi::predictor::autotune(f.data, f.dims, 1e-3));
}
BENCHMARK(BM_AutotuneKernel);

// ---- End-to-end macro benchmarks (the fused-pipeline headline numbers).
// Fused and unfused pairs produce byte-identical archives (asserted by
// tests/test_fused_equiv.cc), so any delta here is pure memory traffic and
// stage overlap, not a different encoding.

constexpr szi::CompressParams kE2eParams{szi::ErrorMode::Rel, 1e-3};

/// The e2e pair honors SZI_LARGE=1 (datagen::size_from_env): the headline
/// fused-vs-unfused numbers are recorded at the paper-size field, whose
/// working set exceeds the last-level cache — that is where eliminating
/// full-array passes shows up as wall time instead of cache hits. CI's
/// smoke run keeps the default small field.
const szi::Field& e2e_field() {
  static const auto fields =
      szi::datagen::miranda(szi::datagen::size_from_env());
  return fields.front();
}

void BM_CompressEndToEnd(benchmark::State& state) {
  // The fused pipeline to the bitcomp-wrapped archive: histogram inside the
  // predict kernel, Huffman payload emitted into its final slot, every LZSS
  // block in one pool-wide launch, all scratch from one persistent workspace.
  const auto& f = e2e_field();
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (auto _ : state)
    benchmark::DoNotOptimize(szi::cuszi_compress_bitcomp(
        f.view(), f.dims, kE2eParams, nullptr, ws));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_CompressEndToEnd);

void BM_CompressEndToEndUnfused(benchmark::State& state) {
  // Reference stage structure (szi_reference): predict pass, level-split
  // pass with its histograms, the shipped writer, then LZSS re-reads the
  // finished archive.
  const auto& f = e2e_field();
  for (auto _ : state)
    benchmark::DoNotOptimize(szi::bitcomp_wrap_archive(
        szi::cuszi_compress_unfused(f.view(), f.dims, kE2eParams)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.bytes()));
}
BENCHMARK(BM_CompressEndToEndUnfused);

const std::vector<std::byte>& e2e_wrapped_archive() {
  static const auto bytes = szi::bitcomp_wrap_archive(szi::cuszi_compress(
      e2e_field().view(), e2e_field().dims, kE2eParams));
  return bytes;
}

void BM_DecompressEndToEnd(benchmark::State& state) {
  // Phased decode: every LZSS block decodes in one pool-wide launch, then
  // the raw decoder runs over the inner archive with workspace scratch.
  const auto& bytes = e2e_wrapped_archive();
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (auto _ : state)
    benchmark::DoNotOptimize(szi::cuszi_decompress_bitcomp_f32(bytes, ws));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(e2e_field().bytes()));
}
BENCHMARK(BM_DecompressEndToEnd);

void BM_DecompressEndToEndUnfused(benchmark::State& state) {
  // Reference decode: full LZSS pass to a fresh buffer, then the inner
  // decode over it with throwaway-arena scratch.
  const auto& bytes = e2e_wrapped_archive();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        szi::cuszi_decompress_f32(szi::bitcomp_unwrap_archive(bytes)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(e2e_field().bytes()));
}
BENCHMARK(BM_DecompressEndToEndUnfused);

}  // namespace

// Front-end flags (translated to google-benchmark flags so the rest of the
// CLI keeps working; see docs/PERF.md):
//   --json FILE   write the machine-readable run to FILE
//                 (--benchmark_out=FILE --benchmark_out_format=json)
//   --smoke       one quick pass per kernel: every benchmark still runs, so
//                 a crash or assertion fails the process, but nothing is
//                 timed long enough to be load-sensitive (CI's bench-smoke
//                 job gates on the exit code, never on timings)
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      args.emplace_back(std::string("--benchmark_out=") + argv[++i]);
      args.emplace_back("--benchmark_out_format=json");
    } else if (a == "--smoke") {
      args.emplace_back("--benchmark_min_time=0.01");
    } else {
      args.emplace_back(a);
    }
  }
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (auto& s : args) cargs.push_back(s.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
