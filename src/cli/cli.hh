// Command-line front end (the `szi` binary), modeled on the cusz CLI:
//
//   szi -z -i data.f32 -d NX NY NZ -m rel -e 1e-3 [-c cusz-i] [-t f32|f64]
//       [--bitcomp] [-o data.szi] [--verify]
//   szi -x -i data.szi -o data.out.f32 [-c cusz-i] [-t f32|f64] [--bitcomp]
//       [--level N] [--roi x0:x1,y0:y1,z0:z1]
//   szi --info -i data.szi
//   szi --list
//
// Parsing is separated from execution so it can be unit-tested.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/compressor_iface.hh"
#include "device/dims.hh"

namespace szi::cli {

enum class Command { Compress, Decompress, Info, List, Help };

struct Options {
  Command command = Command::Help;
  std::string input;
  std::string output;            ///< derived from input when empty
  dev::Dim3 dims{0, 0, 0};
  std::string compressor = "cusz-i";
  ErrorMode mode = ErrorMode::Rel;
  double value = 1e-3;
  bool f64 = false;  ///< double-precision pipeline (cuSZ-i only)
  bool bitcomp = false;
  bool verify = false;
  bool stages = false;  ///< print the per-stage timing breakdown (-z and -x)
  int level = 0;  ///< -x --level N: progressive preview decode (0 = full)
  std::optional<RoiBox> roi;  ///< -x --roi: random-access sub-volume decode
};

/// Parses argv (argv[0] ignored). Throws std::invalid_argument with a
/// user-facing message on malformed input.
[[nodiscard]] Options parse(const std::vector<std::string>& args);

/// Executes a parsed command; returns the process exit code. Output goes to
/// stdout/stderr.
int run(const Options& opt);

/// The usage text printed by Command::Help.
[[nodiscard]] std::string usage();

/// The `szi` binary: parse(args), then run(). A parse error prints
/// "szi: <message>" and the usage text to stderr and returns 2; an error
/// while running prints the one line "szi: <message>" and returns 1.
int main(const std::vector<std::string>& args);

}  // namespace szi::cli
