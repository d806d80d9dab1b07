// Distributed lossy data transmission — the paper's §VII-C.5 case study:
// move a dataset between two supercomputers over a ~1 GB/s Globus link by
// compressing at the source and decompressing at the destination.
//
// For each compressor the example reports compress time, wire time,
// decompress time, total, and the decompressed PSNR, showing where cuSZ-i's
// ratio advantage beats the faster-but-weaker codecs end to end.
//
//   ./examples/transfer_pipeline [dataset] [rel_eb] [bandwidth_GBps]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/registry.hh"
#include "core/timer.hh"
#include "datagen/datasets.hh"
#include "metrics/stats.hh"
#include "transfer/globus_model.hh"

int main(int argc, char** argv) {
  const std::string dataset = argc > 1 ? argv[1] : "qmcpack";
  const double rel_eb = argc > 2 ? std::atof(argv[2]) : 1e-3;
  const double bw = (argc > 3 ? std::atof(argv[3]) : 1.0) * 1e9;

  auto fields = szi::datagen::make_dataset(dataset, szi::datagen::size_from_env());
  const szi::Field& f = fields.front();
  std::printf("transferring %s (%.1f MB) at %.1f GB/s, rel eb %.0e\n\n",
              f.label().c_str(), static_cast<double>(f.bytes()) / 1e6, bw / 1e9,
              rel_eb);

  std::printf("%-22s %9s %9s %9s %9s %9s %8s\n", "pipeline", "comp s",
              "wire s", "dec s", "total s", "ratio", "PSNR");

  // Uncompressed reference.
  const auto raw = szi::transfer::raw_transfer_cost(f.bytes(), bw);
  std::printf("%-22s %9.3f %9.3f %9.3f %9.3f %9s %8s\n", "(no compression)",
              raw.compress_seconds, raw.wire_seconds, raw.decompress_seconds,
              raw.total(), "1.0x", "inf");

  // Every compressor, with the de-redundancy pass applied fairly to all.
  for (const auto& name : {"cusz", "cuszp", "cuszx", "fz-gpu", "cusz-i"}) {
    auto c = szi::with_bitcomp(szi::baselines::make_compressor(name));
    const auto enc = c->compress(f, {szi::ErrorMode::Rel, rel_eb});
    szi::core::Timer t;
    const auto recon = c->decompress(enc.bytes);
    const double dec_s = t.lap();
    const auto d = szi::metrics::distortion(f.data, recon);
    const auto cost = szi::transfer::transfer_cost(enc.timings.total,
                                                   enc.bytes.size(), dec_s, bw);
    std::printf("%-22s %9.3f %9.3f %9.3f %9.3f %8.1fx %7.1f\n",
                c->name().c_str(), cost.compress_seconds, cost.wire_seconds,
                cost.decompress_seconds, cost.total(),
                szi::metrics::compression_ratio(f.bytes(), enc.bytes.size()),
                d.psnr);
  }
  return 0;
}
