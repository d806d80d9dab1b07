// Quickstart: compress one scientific field with cuSZ-i, decompress it, and
// verify the error bound — the minimal end-to-end use of the public API.
//
//   ./examples/quickstart [dataset] [rel_eb]
//
// dataset: jhtdb | miranda | nyx | qmcpack | rtm | s3d  (default: miranda)
// rel_eb:  value-range-relative error bound             (default: 1e-3)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/registry.hh"
#include "core/timer.hh"
#include "datagen/datasets.hh"
#include "metrics/stats.hh"

int main(int argc, char** argv) {
  const std::string dataset = argc > 1 ? argv[1] : "miranda";
  const double rel_eb = argc > 2 ? std::atof(argv[2]) : 1e-3;

  // 1. Get a field. Real applications would load an .f32 file via
  //    szi::io::read_f32; here we synthesize the dataset family.
  auto fields = szi::datagen::make_dataset(dataset, szi::datagen::size_from_env());
  const szi::Field& field = fields.front();
  std::printf("field    : %s  (%s, %.1f MB)\n", field.label().c_str(),
              szi::dev::to_string(field.dims).c_str(),
              static_cast<double>(field.bytes()) / 1e6);

  // 2. Compress with cuSZ-i + the de-redundancy pass (the paper's full
  //    pipeline), under a value-range-relative error bound.
  auto compressor = szi::with_bitcomp(szi::baselines::make_compressor("cusz-i"));
  const auto enc =
      compressor->compress(field, {szi::ErrorMode::Rel, rel_eb});
  std::printf("eb (rel) : %.1e\n", rel_eb);
  std::printf("ratio    : %.1fx  (%zu -> %zu bytes)\n",
              szi::metrics::compression_ratio(field.bytes(), enc.bytes.size()),
              field.bytes(), enc.bytes.size());
  std::printf("comp time: %.3f s (%.2f MB/s)\n", enc.timings.total,
              static_cast<double>(field.bytes()) / 1e6 / enc.timings.total);

  // 3. Decompress and verify.
  szi::core::Timer t;
  const auto recon = compressor->decompress(enc.bytes);
  const double dec_s = t.lap();
  const auto d = szi::metrics::distortion(field.data, recon);
  const double abs_eb = rel_eb * d.range;
  std::printf("dec time : %.3f s\n", dec_s);
  std::printf("PSNR     : %.2f dB   max err: %.3e (bound %.3e)\n", d.psnr,
              d.max_err, abs_eb);
  const bool ok = szi::metrics::error_bounded(field.data, recon, abs_eb);
  std::printf("bounded  : %s\n", ok ? "yes" : "NO — BUG");
  return ok ? 0 : 1;
}
