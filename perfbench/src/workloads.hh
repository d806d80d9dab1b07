// The four workloads (end-to-end, tracing off) and the traced per-layer run.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Re-exec of a traced run under SZI_THREADS=1: replays the layers only
  /// and prints "metric"/"digest" lines for the parent.
  bool child_w1 = false;
  std::string out_dir = ".bench_out";  ///< trace files and archive files
  /// bulk-wrapped: file the generated fields are shared through (inputs.hh).
  std::string input_cache;
};

[[nodiscard]] bool known_workload(const std::string& name);

/// What one run prints: the result line's fields plus a report of the
/// facts behind the numbers (host, sample counts, digests, failures).
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);

  /// Counts one attempted operation.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation; the first few reasons are reported.
  void fail(const std::string& why);
  /// A whole-run check (digest agreement, replay consistency) that is not an
  /// operation of its own: a false `ok` makes the run incorrect.
  void require(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// The report line (a JSON object under "report").
  [[nodiscard]] std::string report_json() const;
  /// The result line: correct, attempted, failed, metrics.
  [[nodiscard]] std::string result_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  ///< key, JSON
  std::vector<std::string> notes_;
};

/// End-to-end run of `args.workload` with tracing off.
[[nodiscard]] Result run_end_to_end(const Args& args);

/// Traced run: replays the workload's inputs layer by layer, at the pool's
/// workers and (through a re-exec) at one worker.
[[nodiscard]] Result run_layers(const Args& args);

/// The SZI_THREADS=1 half of run_layers (prints its own lines).
int run_layers_child(const Args& args);

}  // namespace perfbench
