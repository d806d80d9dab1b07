// Ablation of the §V-C auto-tuning decisions, measured as full-pipeline
// compression ratio (cuSZ-i + de-redundancy pass) on two contrasting
// datasets. Rows:
//   full autotune        — α(ε) from Eq. (1), per-dim cubic, tuned dim order
//   α = 1                — no level-wise error-bound reduction (§V-B.2 off)
//   fixed not-a-knot     — no per-dim spline selection
//   fixed natural        — ditto, other cubic
//   reversed dim order   — smoothest dimension first (anti-tuned)
#include <cstdio>

#include "bench_common.hh"
#include "huffman/huffman.hh"
#include "lossless/lzss.hh"
#include "metrics/stats.hh"
#include "predictor/autotune.hh"
#include "predictor/ginterp.hh"
#include "reference_pipeline.hh"

namespace {

using namespace szi;

struct Variant {
  const char* label;
  predictor::InterpConfig (*mutate)(predictor::InterpConfig tuned);
};

/// Ratio and PSNR of the predictor+Huffman+pass pipeline under `cfg`.
void run_variant(const Field& f, double eb, const predictor::InterpConfig& cfg,
                 double* ratio, double* psnr) {
  const auto enc = predictor::ginterp_compress(f.data, f.dims, eb, cfg);
  const auto huff = huffman::encode(enc.codes, 2 * quant::kDefaultRadius);
  std::vector<std::byte> archive = huff;
  const auto anchors_bytes = enc.anchors.size() * sizeof(float);
  const auto outl = enc.outliers.serialize();
  archive.insert(archive.end(), outl.begin(), outl.end());
  archive.insert(archive.end(),
                 reinterpret_cast<const std::byte*>(enc.anchors.data()),
                 reinterpret_cast<const std::byte*>(enc.anchors.data()) +
                     anchors_bytes);
  const auto packed = lossless::lzss_compress(archive);
  *ratio = metrics::compression_ratio(f.bytes(), packed.size());
  const auto dec = predictor::ginterp_decompress(enc.codes, enc.anchors,
                                                 enc.outliers, f.dims, eb, cfg);
  *psnr = metrics::distortion(f.data, dec).psnr;
}

}  // namespace

int main() {
  const Variant variants[] = {
      {"full autotune", [](predictor::InterpConfig t) { return t; }},
      {"alpha = 1",
       [](predictor::InterpConfig t) {
         t.alpha = 1.0;
         return t;
       }},
      {"fixed not-a-knot",
       [](predictor::InterpConfig t) {
         t.cubic = {predictor::CubicKind::NotAKnot,
                    predictor::CubicKind::NotAKnot,
                    predictor::CubicKind::NotAKnot};
         return t;
       }},
      {"fixed natural",
       [](predictor::InterpConfig t) {
         t.cubic = {predictor::CubicKind::Natural,
                    predictor::CubicKind::Natural,
                    predictor::CubicKind::Natural};
         return t;
       }},
      {"reversed dim order",
       [](predictor::InterpConfig t) {
         std::swap(t.dim_order[0], t.dim_order[2]);
         return t;
       }},
  };

  std::printf("Auto-tuning ablation (cuSZ-i full pipeline)\n\n");
  for (const char* ds : {"miranda", "jhtdb"}) {
    const auto& f = bench::dataset(ds).front();
    const double range = metrics::value_range(f.data);
    for (const double rel : {1e-2, 1e-4}) {
      const double eb = rel * range;
      const auto prof = predictor::autotune(f.data, f.dims, eb);
      std::printf("%s @ rel eb %.0e  (alpha(eps) = %.3f)\n", f.label().c_str(),
                  rel, prof.config.alpha);
      std::printf("  %-20s %9s %9s\n", "variant", "ratio", "PSNR dB");
      for (const auto& v : variants) {
        double ratio = 0, psnr = 0;
        run_variant(f, eb, v.mutate(prof.config), &ratio, &psnr);
        std::printf("  %-20s %8.1fx %9.2f\n", v.label, ratio, psnr);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "Expectations: alpha=1 costs several dB of PSNR for (at most) a small\n"
      "ratio gain (§V-B.2: lower high-level eb cuts distortion at little\n"
      "ratio cost); the wrong cubic spline loses ratio (e.g. natural on\n"
      "JHTDB at 1e-4); dimension order shifts ratio by ~10%% either way —\n"
      "the least-smooth-first heuristic wins on spectral data (JHTDB) and\n"
      "is data-dependent on interface data (Miranda), which is why §V-C\n"
      "profiles instead of hard-coding.\n");
  return 0;
}
