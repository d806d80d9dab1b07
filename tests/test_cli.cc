// CLI tests: argument parsing and end-to-end compress/decompress through
// run() with real files in a temp directory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "cli/cli.hh"
#include "core/bytes.hh"
#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "io/bin_io.hh"
#include "lossless/lzss.hh"
#include "metrics/stats.hh"

namespace {

using szi::cli::Command;
using szi::cli::Options;
using szi::cli::parse;

TEST(CliParse, CompressDefaults) {
  const Options o =
      parse({"-z", "-i", "in.f32", "-d", "64", "32", "16"});
  EXPECT_EQ(o.command, Command::Compress);
  EXPECT_EQ(o.input, "in.f32");
  EXPECT_EQ(o.dims, (szi::dev::Dim3{64, 32, 16}));
  EXPECT_EQ(o.compressor, "cusz-i");
  EXPECT_EQ(o.mode, szi::ErrorMode::Rel);
  EXPECT_DOUBLE_EQ(o.value, 1e-3);
  EXPECT_FALSE(o.bitcomp);
}

TEST(CliParse, PartialDims) {
  EXPECT_EQ(parse({"-z", "-i", "a", "-d", "100"}).dims,
            (szi::dev::Dim3{100, 1, 1}));
  EXPECT_EQ(parse({"-z", "-i", "a", "-d", "100", "50"}).dims,
            (szi::dev::Dim3{100, 50, 1}));
}

TEST(CliParse, ModesAndFlags) {
  const Options o = parse({"-z", "-i", "a", "-d", "8", "-m", "abs", "-e",
                           "0.5", "-c", "cusz", "--bitcomp", "--verify",
                           "--stages"});
  EXPECT_EQ(o.mode, szi::ErrorMode::Abs);
  EXPECT_DOUBLE_EQ(o.value, 0.5);
  EXPECT_EQ(o.compressor, "cusz");
  EXPECT_TRUE(o.bitcomp);
  EXPECT_TRUE(o.verify);
  EXPECT_TRUE(o.stages);
  EXPECT_EQ(parse({"-z", "-i", "a", "-d", "8", "-m", "rate"}).mode,
            szi::ErrorMode::FixedRate);
}

TEST(CliParse, Rejections) {
  EXPECT_THROW((void)parse({}), std::invalid_argument);
  EXPECT_THROW((void)parse({"-z"}), std::invalid_argument);                // no -i
  EXPECT_THROW((void)parse({"-z", "-i", "a"}), std::invalid_argument);    // no -d
  EXPECT_THROW((void)parse({"-x", "-i", "a"}), std::invalid_argument);    // no -o
  EXPECT_THROW((void)parse({"-z", "-i", "a", "-d", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"-z", "-i", "a", "-d", "8", "-e", "nan?"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"-z", "-i", "a", "-d", "8", "-m", "pwrel"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--bogus"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"-z", "-i", "a", "-d", "8", "-e", "-1"}),
               std::invalid_argument);
}

TEST(CliParse, HelpAndList) {
  EXPECT_EQ(parse({"--help"}).command, Command::Help);
  EXPECT_EQ(parse({"--list"}).command, Command::List);
  EXPECT_FALSE(szi::cli::usage().empty());
}

TEST(CliParse, ServeBench) {
  const Options def = parse({"--serve-bench"});
  EXPECT_EQ(def.command, Command::ServeBench);
  EXPECT_EQ(def.serve_requests, 64u);
  EXPECT_EQ(parse({"--serve-bench", "200"}).serve_requests, 200u);
  EXPECT_THROW((void)parse({"--serve-bench", "0"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"--serve-bench", "abc"}), std::invalid_argument);
}

TEST(CliRun, ServeBenchCompletesByteIdentical) {
  Options o;
  o.command = Command::ServeBench;
  o.serve_requests = 16;
  EXPECT_EQ(szi::cli::run(o), 0);  // nonzero on any mismatch or failure
}

TEST(CliRun, CompressDecompressRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szi_cli_test";
  fs::create_directories(dir);
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const fs::path raw = dir / "field.f32";
  szi::io::write_f32(raw.string(), f.data);

  Options z;
  z.command = Command::Compress;
  z.input = raw.string();
  z.output = (dir / "field.szi").string();
  z.dims = f.dims;
  z.mode = szi::ErrorMode::Rel;
  z.value = 1e-3;
  z.bitcomp = true;
  z.verify = true;
  z.stages = true;  // exercises the fused predict+histogram reporting
  EXPECT_EQ(szi::cli::run(z), 0);
  EXPECT_TRUE(fs::exists(dir / "field.szi"));
  EXPECT_LT(fs::file_size(dir / "field.szi"), fs::file_size(raw) / 10);

  Options x;
  x.command = Command::Decompress;
  x.input = z.output;
  x.output = (dir / "field.out.f32").string();
  x.bitcomp = true;
  EXPECT_EQ(szi::cli::run(x), 0);

  const auto recon = szi::io::read_f32(x.output, f.size());
  const double eb = 1e-3 * szi::metrics::value_range(f.data);
  EXPECT_TRUE(szi::metrics::error_bounded(f.data, recon, eb));
  fs::remove_all(dir);
}

TEST(CliParse, TypeFlagAndInfo) {
  EXPECT_TRUE(parse({"-z", "-i", "a", "-d", "8", "-t", "f64"}).f64);
  EXPECT_FALSE(parse({"-z", "-i", "a", "-d", "8", "-t", "f32"}).f64);
  EXPECT_THROW((void)parse({"-z", "-i", "a", "-d", "8", "-t", "f16"}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse({"-z", "-i", "a", "-d", "8", "-t", "f64", "-c", "cusz"}),
      std::invalid_argument);
  EXPECT_THROW((void)parse({"-z", "-i", "a", "-d", "8", "-t", "f64",
                            "--bitcomp"}),
               std::invalid_argument);
  EXPECT_EQ(parse({"--info", "-i", "a.szi"}).command, Command::Info);
  EXPECT_THROW((void)parse({"--info"}), std::invalid_argument);
}

TEST(CliRun, F64CompressDecompressAndInfo) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szi_cli_f64";
  fs::create_directories(dir);
  const szi::dev::Dim3 dims{40, 24, 16};
  std::vector<double> data(dims.volume());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = std::sin(0.01 * static_cast<double>(i));
  const fs::path raw = dir / "f.f64";
  szi::io::write_f64(raw.string(), data);

  Options z;
  z.command = Command::Compress;
  z.input = raw.string();
  z.output = (dir / "f.szi").string();
  z.dims = dims;
  z.f64 = true;
  z.mode = szi::ErrorMode::Abs;
  z.value = 1e-8;
  z.verify = true;
  EXPECT_EQ(szi::cli::run(z), 0);

  Options info;
  info.command = Command::Info;
  info.input = z.output;
  EXPECT_EQ(szi::cli::run(info), 0);

  Options x;
  x.command = Command::Decompress;
  x.input = z.output;
  x.output = (dir / "f.out.f64").string();
  x.f64 = true;
  EXPECT_EQ(szi::cli::run(x), 0);
  const auto recon = szi::io::read_f64(x.output, data.size());
  EXPECT_TRUE(szi::metrics::error_bounded(data, recon, 1e-8));
  fs::remove_all(dir);
}

// --verify checks the bound it reports on. A Rel field holding one NaN and
// one Inf decodes with NaNs where finite values were, so -z --verify must
// exit nonzero in both precisions; the same field without them passes.
TEST(CliRun, VerifyFailsWhenBoundIsBroken) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szi_cli_verify";
  fs::create_directories(dir);
  const szi::dev::Dim3 dims{16, 16, 16};
  std::vector<double> clean(dims.volume());
  for (std::size_t i = 0; i < clean.size(); ++i)
    clean[i] = std::sin(0.05 * static_cast<double>(i)) +
               0.5 * std::cos(0.013 * static_cast<double>(i));
  auto broken = clean;
  broken[100] = std::numeric_limits<double>::quiet_NaN();
  broken[2000] = std::numeric_limits<double>::infinity();

  const auto compress_verify = [&](const std::vector<double>& v, bool f64) {
    Options z;
    z.command = Command::Compress;
    z.input = (dir / (f64 ? "f.f64" : "f.f32")).string();
    z.output = (dir / "f.szi").string();
    z.dims = dims;
    z.f64 = f64;
    z.mode = szi::ErrorMode::Rel;
    z.value = 1e-3;
    z.verify = true;
    if (f64)
      szi::io::write_f64(z.input, v);
    else
      szi::io::write_f32(z.input, std::vector<float>(v.begin(), v.end()));
    return szi::cli::run(z);
  };
  for (const bool f64 : {false, true}) {
    EXPECT_EQ(compress_verify(clean, f64), 0) << (f64 ? "f64" : "f32");
    EXPECT_NE(compress_verify(broken, f64), 0) << (f64 ? "f64" : "f32");
  }
  fs::remove_all(dir);
}

// --verify resolves the bound as the compressor does, on every compress
// path it takes: the f64 pipeline, the Compressor path, and the Compressor
// path through the bitcomp adapter. Under Abs, cuSZ-i carries NaN/Inf
// exactly, so a field holding them verifies; under Rel the same field's
// value range is non-finite, the bound is broken and verify exits 1.
TEST(CliRun, VerifyResolvesAbsAndRelBoundsOnEveryPath) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szi_cli_verify_paths";
  fs::create_directories(dir);
  const szi::dev::Dim3 dims{16, 16, 16};
  std::vector<double> field(dims.volume());
  for (std::size_t i = 0; i < field.size(); ++i)
    field[i] = 40.0 * std::sin(0.03 * static_cast<double>(i));
  field[7] = std::numeric_limits<double>::quiet_NaN();
  field[3001] = -std::numeric_limits<double>::infinity();

  const auto compress_verify = [&](szi::ErrorMode mode, double value,
                                   bool f64, bool bitcomp) {
    Options z;
    z.command = Command::Compress;
    z.input = (dir / (f64 ? "f.f64" : "f.f32")).string();
    z.output = (dir / "f.szi").string();
    z.dims = dims;
    z.f64 = f64;
    z.bitcomp = bitcomp;
    z.mode = mode;
    z.value = value;
    z.verify = true;
    if (f64)
      szi::io::write_f64(z.input, field);
    else
      szi::io::write_f32(z.input,
                         std::vector<float>(field.begin(), field.end()));
    return szi::cli::run(z);
  };
  for (const auto& [f64, bitcomp] :
       {std::pair{true, false}, std::pair{false, false},
        std::pair{false, true}}) {
    SCOPED_TRACE(std::string(f64 ? "f64" : "f32") +
                 (bitcomp ? " bitcomp" : ""));
    EXPECT_EQ(compress_verify(szi::ErrorMode::Abs, 1e-2, f64, bitcomp), 0);
    EXPECT_EQ(compress_verify(szi::ErrorMode::Rel, 1e-3, f64, bitcomp), 1);
  }
  fs::remove_all(dir);
}

// Modes --verify cannot check report the measured error, say the bound
// was not checked, and exit 0; checked modes carry no such note.
TEST(CliRun, VerifyReportsUncheckedModes) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szi_cli_verify_rate";
  fs::create_directories(dir);
  const auto fields =
      szi::datagen::make_dataset("miranda", szi::datagen::Size::Small);
  const auto& f = fields.front();
  Options z;
  z.command = Command::Compress;
  z.input = (dir / "f.f32").string();
  z.output = (dir / "f.zfp").string();
  z.dims = f.dims;
  z.compressor = "cuzfp";
  z.mode = szi::ErrorMode::FixedRate;
  z.value = 8;
  z.verify = true;
  szi::io::write_f32(z.input, f.data);

  testing::internal::CaptureStdout();
  const int rc = szi::cli::run(z);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("verify: PSNR"), std::string::npos) << out;
  EXPECT_NE(out.find("(bound not checked)"), std::string::npos) << out;

  z.compressor = "cusz-i";
  z.mode = szi::ErrorMode::Rel;
  z.value = 1e-3;
  z.output = (dir / "f.szi").string();
  testing::internal::CaptureStdout();
  const int rc2 = szi::cli::run(z);
  const std::string out2 = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc2, 0);
  EXPECT_NE(out2.find("verify: PSNR"), std::string::npos) << out2;
  EXPECT_EQ(out2.find("not checked"), std::string::npos) << out2;
  fs::remove_all(dir);
}

// -x --roi writes exactly the box of the full -x output, for raw and
// bitcomp-wrapped f32 archives and for f64, and --stages reports the
// fraction of the archive the box touched.
TEST(CliRun, RoiDecodeWritesTheCroppedBox) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szi_cli_roi";
  fs::create_directories(dir);
  const auto fields =
      szi::datagen::make_dataset("nyx", szi::datagen::Size::Small);
  const auto& f = fields.front();  // 96 x 96 x 96
  const szi::RoiBox box{{10, 20, 30}, {33, 17, 9}};
  szi::io::write_f32((dir / "f.f32").string(), f.data);
  szi::io::write_f64((dir / "f.f64").string(),
                     std::vector<double>(f.data.begin(), f.data.end()));

  for (const auto& [f64, bitcomp] :
       {std::pair{false, false}, std::pair{false, true},
        std::pair{true, false}}) {
    SCOPED_TRACE(std::string(f64 ? "f64" : "f32") +
                 (bitcomp ? " bitcomp" : ""));
    Options z;
    z.command = Command::Compress;
    z.input = (dir / (f64 ? "f.f64" : "f.f32")).string();
    z.output = (dir / "f.szi").string();
    z.dims = f.dims;
    z.f64 = f64;
    z.bitcomp = bitcomp;
    ASSERT_EQ(szi::cli::run(z), 0);

    Options x;
    x.command = Command::Decompress;
    x.input = z.output;
    x.output = (dir / "full.out").string();
    x.f64 = f64;
    x.bitcomp = bitcomp;
    ASSERT_EQ(szi::cli::run(x), 0);
    x.output = (dir / "roi.out").string();
    x.roi = box;
    x.stages = true;
    testing::internal::CaptureStdout();
    const int rc = szi::cli::run(x);
    const std::string out = testing::internal::GetCapturedStdout();
    ASSERT_EQ(rc, 0);
    EXPECT_NE(out.find("roi: touched"), std::string::npos) << out;

    const std::size_t elem = f64 ? sizeof(double) : sizeof(float);
    const auto full = szi::io::read_bytes((dir / "full.out").string());
    const auto roi = szi::io::read_bytes((dir / "roi.out").string());
    ASSERT_EQ(full.size(), f.dims.volume() * elem);
    ASSERT_EQ(roi.size(), box.ext.volume() * elem);
    std::size_t mismatched_rows = 0;
    for (std::size_t z0 = 0; z0 < box.ext.z; ++z0)
      for (std::size_t y0 = 0; y0 < box.ext.y; ++y0) {
        const std::size_t src = szi::dev::linearize(
            f.dims, box.lo.x, box.lo.y + y0, box.lo.z + z0);
        const std::size_t dst = szi::dev::linearize(box.ext, 0, y0, z0);
        mismatched_rows += std::memcmp(roi.data() + dst * elem,
                                       full.data() + src * elem,
                                       box.ext.x * elem) != 0;
      }
    EXPECT_EQ(mismatched_rows, 0u);
  }
  fs::remove_all(dir);
}

// The retired layouts ('SZI1' and the single-stream 'BBCP' wrapper) are
// named by --info as not decodable, and every -x form rejects them as
// corrupt archives (the szi binary maps that to exit 1).
TEST(CliRun, RetiredLayoutsAreRejected) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szi_cli_retired";
  fs::create_directories(dir);
  const auto fields =
      szi::datagen::make_dataset("rtm", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const auto v2 = szi::cuszi_compress(std::span<const float>(f.data), f.dims,
                                      {szi::ErrorMode::Rel, 1e-3});
  auto v1 = v2;
  const std::uint32_t szi1 = 0x31495A53;  // 'SZI1'
  std::memcpy(v1.data(), &szi1, sizeof(szi1));
  szi::core::ByteWriter w;
  w.put(std::uint32_t{0x50434242});  // 'BBCP'
  w.put_blob(szi::lossless::lzss_compress(v2, szi::lossless::kLzssBlock,
                                          szi::lossless::LzssMode::Lazy));
  const auto bbcp = w.take();

  for (const auto& [name, bytes] :
       {std::pair{"szi1", v1}, std::pair{"bbcp", bbcp}}) {
    SCOPED_TRACE(name);
    const auto path = (dir / (std::string(name) + ".szi")).string();
    szi::io::write_bytes(path, bytes);

    Options info;
    info.command = Command::Info;
    info.input = path;
    testing::internal::CaptureStdout();
    const int rc = szi::cli::run(info);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("retired"), std::string::npos) << out;
    EXPECT_NE(out.find("not decodable"), std::string::npos) << out;

    Options x;
    x.command = Command::Decompress;
    x.input = path;
    x.output = (dir / "out.f32").string();
    EXPECT_THROW((void)szi::cli::run(x), szi::core::CorruptArchive);
    x.stages = true;
    EXPECT_THROW((void)szi::cli::run(x), szi::core::CorruptArchive);
    x.stages = false;
    x.bitcomp = true;
    EXPECT_THROW((void)szi::cli::run(x), szi::core::CorruptArchive);
    x.bitcomp = false;
    x.f64 = true;
    EXPECT_THROW((void)szi::cli::run(x), szi::core::CorruptArchive);
    x.f64 = false;
    x.level = 2;
    EXPECT_THROW((void)szi::cli::run(x), szi::core::CorruptArchive);
    x.level = 0;
    x.roi = szi::RoiBox{{0, 0, 0}, {8, 8, 8}};
    EXPECT_THROW((void)szi::cli::run(x), szi::core::CorruptArchive);
  }
  fs::remove_all(dir);
}

TEST(CliRun, InfoIdentifiesPipelines) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szi_cli_info";
  fs::create_directories(dir);
  std::vector<std::byte> junk(16, std::byte{0x11});
  szi::io::write_bytes((dir / "junk.bin").string(), junk);
  Options info;
  info.command = Command::Info;
  info.input = (dir / "junk.bin").string();
  EXPECT_EQ(szi::cli::run(info), 0);  // prints "unknown", still succeeds
  fs::remove_all(dir);
}

TEST(CliRun, DecompressWrongPipelineFails) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "szi_cli_test2";
  fs::create_directories(dir);
  const auto fields =
      szi::datagen::make_dataset("rtm", szi::datagen::Size::Small);
  const auto& f = fields.front();
  const fs::path raw = dir / "f.f32";
  szi::io::write_f32(raw.string(), f.data);

  Options z;
  z.command = Command::Compress;
  z.input = raw.string();
  z.output = (dir / "f.szi").string();
  z.dims = f.dims;
  EXPECT_EQ(szi::cli::run(z), 0);

  Options x;
  x.command = Command::Decompress;
  x.input = z.output;
  x.output = (dir / "f.out.f32").string();
  x.compressor = "cusz";  // wrong pipeline for a cusz-i archive
  EXPECT_THROW((void)szi::cli::run(x), std::runtime_error);
  fs::remove_all(dir);
}

}  // namespace
