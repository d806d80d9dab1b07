// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a report line ({"report": ...}) and, as the last line of standard
// output, the result object {"correct", "attempted", "failed", "metrics"}.
// perfbench/README.md lists the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hh"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload bulk-wrapped|small-raw|"
               "random-access|serve-closed --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--input-cache FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--child-w1") {
      args.child_w1 = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") args.workload = v;
      else if (a == "--seed") args.seed = std::stoull(v);
      else if (a == "--seconds") args.seconds = std::stod(v);
      else if (a == "--trace") args.trace = std::stoi(v) != 0;
      else if (a == "--out-dir") args.out_dir = v;
      else if (a == "--input-cache") args.input_cache = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!perfbench::known_workload(args.workload) || args.seconds <= 0)
    return usage();

  try {
    if (args.child_w1) return perfbench::run_layers_child(args);
    const auto result = args.trace ? perfbench::run_layers(args)
                                   : perfbench::run_end_to_end(args);
    std::printf("%s\n%s\n", result.report_json().c_str(),
                result.result_json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
