// szi::serve — a multi-tenant compression service over the ThreadPool/Arena
// substrate.
//
// Every request runs inline on the thread that submits it: submit_*() runs
// the same cuszi_* entry point a direct library call would, over a
// dev::Workspace on the shared Arena, and returns a Ticket that is already
// complete. Concurrency comes from the calling threads — N clients give N
// concurrent requests, and each of them already fans out across the shared
// dev::ThreadPool, as cuSZ-i runs each field as device-wide kernels. Batching
// requests into waves (cuSZ+, where it amortizes GPU kernel launches) would
// amortize nothing here and only add queueing: requests waiting for a wave
// leave pool workers idle that their own kernels could use.
//
//   submit_*()  --> admission (workspace budget: reject, or wait for bytes)
//               --> the cuszi_* call on the caller's thread
//               --> accounting, completed Ticket
//
// Outputs are byte-identical to the direct Compressor/library calls (the
// worker-count determinism suite and bench/serve_load's golden pinning
// enforce this).
//
// Failure isolation: a bad field fails only its own request (Status::Failed
// with the exception text); requests on other threads are unaffected.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/compressor_iface.hh"
#include "device/dims.hh"

namespace szi::serve {

struct ServeConfig {
  /// Workspace budget for admission control, in bytes; 0 = unlimited.
  /// Budgeted against the pooled arenas' held bytes (Arena::aggregate_stats
  /// held_bytes) plus the estimated footprint of in-flight requests.
  std::size_t workspace_budget_bytes = 0;

  /// Over-budget behavior. Queue: the caller waits until its estimate fits
  /// (pooled pages are trimmed first; a request with nothing else in flight
  /// always runs — holding it would starve). Reject: submit() fails the
  /// request immediately with Status::Rejected, never blocking on budget.
  enum class OverBudget { Queue, Reject };
  OverBudget over_budget = OverBudget::Queue;
};

enum class Status : std::uint8_t { Ok, Rejected, Failed };

/// Completed request. Exactly one of archive/data is populated on Ok,
/// matching the request kind; `error` carries the exception text on Failed
/// and the rejection reason on Rejected.
struct Response {
  Status status = Status::Ok;
  std::string error;
  std::vector<std::byte> archive;  ///< compress output
  std::vector<float> data;         ///< f32 decompress/ROI output
  std::vector<double> data_f64;    ///< f64 decompress output
  std::size_t bytes_in = 0;
  std::size_t bytes_out = 0;
  double queue_seconds = 0;    ///< submit -> start (admission wait)
  double service_seconds = 0;  ///< start -> completion
  double total_seconds = 0;    ///< submit -> completion
};

namespace detail {
struct Request;
}  // namespace detail

/// Handle for a submitted request. Copyable; copies share the response.
/// Default-constructed tickets are empty (valid() false).
class Ticket {
 public:
  Ticket() = default;

  [[nodiscard]] bool valid() const { return resp_ != nullptr; }

  /// Returns the response (stable reference, alive as long as any ticket
  /// copy). Never blocks: submit_*() returns a completed ticket.
  const Response& wait() const { return *resp_; }

  /// Completion check; true for every ticket submit_*() returned.
  [[nodiscard]] bool ready() const { return valid(); }

 private:
  friend class Service;
  explicit Ticket(std::shared_ptr<const Response> resp)
      : resp_(std::move(resp)) {}
  std::shared_ptr<const Response> resp_;
};

/// Per-tenant accounting, returned by Service::tenant_stats().
struct TenantStats {
  std::uint64_t requests = 0;   ///< accepted (Ok + Failed)
  std::uint64_t rejected = 0;   ///< admission-rejected
  std::uint64_t failed = 0;     ///< completed with Status::Failed
  std::uint64_t bytes_in = 0;   ///< request payload bytes
  std::uint64_t bytes_out = 0;  ///< response payload bytes
  double busy_seconds = 0;      ///< summed service time
  double queue_seconds = 0;     ///< summed admission wait
};

/// Whole-service counters, returned by Service::stats().
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t waves = 0;      ///< requests executed (Ok + Failed)
  std::uint64_t coalesced = 0;  ///< always 0: requests never share a call
  std::uint64_t admission_deferrals = 0;  ///< requests that waited on budget
  std::uint64_t admission_rejects = 0;    ///< requests rejected for budget
  std::size_t peak_inflight_estimate = 0;  ///< estimator bytes, peak
  /// Arena::aggregate_stats().high_water_bytes at the time of the call —
  /// the real peak workspace footprint behind the estimates.
  std::size_t arena_high_water_bytes = 0;
};

/// The service. Owns no thread; serves any number of concurrently
/// submitting tenants, each request on its submitter's thread.
///
/// Lifetime: request payloads (`data`, `archive` spans) are borrowed for the
/// duration of the submit_*() call. Destruction drains: every in-flight call
/// completes before the destructor returns.
class Service {
 public:
  explicit Service(ServeConfig cfg = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Compress an f32 field to a cuSZ-i archive (byte-identical to
  /// cuszi_compress / Compressor::compress with the same params).
  [[nodiscard]] Ticket submit_compress(std::string tenant,
                                       std::span<const float> data,
                                       const dev::Dim3& dims,
                                       const CompressParams& params);

  /// Compress an f64 field.
  [[nodiscard]] Ticket submit_compress_f64(std::string tenant,
                                           std::span<const double> data,
                                           const dev::Dim3& dims,
                                           const CompressParams& params);

  /// Decompress a cuSZ-i archive (raw or 'BBC2'-wrapped — dispatched on the
  /// magic, like the CLI).
  [[nodiscard]] Ticket submit_decompress(std::string tenant,
                                         std::span<const std::byte> archive);
  [[nodiscard]] Ticket submit_decompress_f64(
      std::string tenant, std::span<const std::byte> archive);

  /// Random-access ROI decode of the box from a cuSZ-i archive.
  [[nodiscard]] Ticket submit_roi(std::string tenant,
                                  std::span<const std::byte> archive,
                                  const RoiBox& box);

  /// Blocks until every in-flight call (on any thread) has completed.
  void drain();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] TenantStats tenant_stats(const std::string& tenant) const;
  [[nodiscard]] std::vector<std::pair<std::string, TenantStats>>
  all_tenant_stats() const;

  /// Estimated transient workspace bytes a request pins while in service —
  /// what admission control budgets with. Deliberately conservative (the
  /// arenas round up to power-of-two buckets and pipelines hold several
  /// intermediates at once).
  [[nodiscard]] static std::size_t estimate_workspace_bytes(
      std::size_t payload_bytes);

 private:
  /// Admission, execution and accounting of one request on this thread.
  Ticket run(const detail::Request& req);
  /// Admission control under mu_: false when the request is rejected;
  /// otherwise waits (Queue flavor) until it may run, then counts it in
  /// flight.
  bool admit(const std::string& tenant, std::size_t estimate);
  /// Takes a finished request out of flight and books it.
  void retire(const std::string& tenant, const Response& resp,
              std::size_t estimate);

  ServeConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable cv_retired_;  ///< a request left flight
  std::size_t inflight_ = 0;            ///< requests admitted, not retired
  std::size_t inflight_estimate_ = 0;   ///< estimator bytes in flight
  ServiceStats stats_;
  std::map<std::string, TenantStats> tenants_;
};

}  // namespace szi::serve
