// Span recorder for the traced run. Spans are opened by the benchmark's own
// code around each call into a layer's public functions; the library itself
// is not instrumented. Each thread appends to its own buffer, spans nest
// through a per-thread stack (parent id), and every span of one operation
// shares the id of that operation's root span. With tracing off a Span is a
// single branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct SpanRecord {
  const char* name = "";   ///< static string: "<layer>.<stage>"
  std::uint32_t tid = 0;   ///< benchmark-assigned thread number
  std::int64_t t0_ns = 0;  ///< steady-clock start
  std::int64_t t1_ns = 0;  ///< steady-clock end
  std::uint64_t bytes = 0; ///< bytes the span's work moved (0 if none)
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t op = 0;      ///< id of the root span of this operation
};

void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Steady-clock nanoseconds.
[[nodiscard]] std::int64_t now_ns();

class Span {
 public:
  explicit Span(const char* name, std::uint64_t bytes = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_bytes(std::uint64_t bytes) { bytes_ = bytes; }

 private:
  const char* name_;
  std::uint64_t bytes_;
  std::int64_t t0_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t op_ = 0;
  bool on_;
};

/// Every span recorded so far, all threads. Call only while no other
/// thread is recording (after client threads have joined).
[[nodiscard]] std::vector<SpanRecord> collect();

/// Drops every recorded span.
void clear();

/// Per-name totals: summed duration, summed bytes, span count.
struct Total {
  double seconds = 0;
  double bytes = 0;
  std::size_t count = 0;

  [[nodiscard]] double gbps() const {
    return seconds > 0 ? bytes / seconds / 1e9 : 0.0;
  }
};
[[nodiscard]] std::map<std::string, Total> totals(
    const std::vector<SpanRecord>& spans);

/// Writes `spans` as Chrome trace-event JSON (chrome://tracing, Perfetto):
/// one complete ("X") event per span with bytes, id, parent and op in args.
/// Returns false when the file cannot be written.
bool write_chrome_json(const std::string& path,
                       const std::vector<SpanRecord>& spans);

}  // namespace perfbench::trace
