#include "serve/serve.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "core/cuszi.hh"
#include "device/arena.hh"

namespace szi::serve {

namespace detail {

/// One submitted request: what run() needs to execute and book it.
struct Request {
  enum class Kind : std::uint8_t {
    CompressF32,
    CompressF64,
    DecompressF32,
    DecompressF64,
    Roi,
  };

  Kind kind = Kind::CompressF32;
  std::string tenant;

  // Borrowed payloads — alive for the duration of the submit_*() call.
  std::span<const float> f32;
  std::span<const double> f64;
  std::span<const std::byte> archive;
  dev::Dim3 dims;
  CompressParams params{};
  RoiBox box{};

  std::size_t payload_bytes = 0;
};

}  // namespace detail

namespace {

using detail::Request;
using Kind = Request::Kind;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Executes one request body through the direct library call. Fills
/// resp.{archive,data,...}; exceptions propagate to the caller, which parks
/// them in the response.
void run_request_body(const Request& req, Response& resp,
                      dev::Workspace& ws) {
  switch (req.kind) {
    case Kind::CompressF32:
      resp.archive = cuszi_compress(req.f32, req.dims, req.params,
                                    /*timings=*/nullptr, ws);
      resp.bytes_out = resp.archive.size();
      break;
    case Kind::CompressF64:
      resp.archive = cuszi_compress(req.f64, req.dims, req.params,
                                    /*timings=*/nullptr, ws);
      resp.bytes_out = resp.archive.size();
      break;
    case Kind::DecompressF32:
      resp.data = cuszi_decompress_f32(req.archive, ws);
      resp.bytes_out = resp.data.size() * sizeof(float);
      break;
    case Kind::DecompressF64:
      resp.data_f64 = cuszi_decompress_f64(req.archive, ws);
      resp.bytes_out = resp.data_f64.size() * sizeof(double);
      break;
    case Kind::Roi: {
      auto r = cuszi_decompress_roi_f32(req.archive, req.box);
      resp.data = std::move(r.data);
      resp.bytes_out = resp.data.size() * sizeof(float);
      break;
    }
  }
}

std::string describe(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

std::size_t Service::estimate_workspace_bytes(std::size_t payload_bytes) {
  // The compress pipeline holds quant codes, per-level code buckets, the
  // Huffman streams, and the assembled archive at once; decompress holds
  // codes plus the reconstruction. ~6x the payload, plus a fixed floor for
  // histograms/codebooks/chunk tables, bounds both (the arenas round up to
  // power-of-two buckets, which the factor absorbs).
  return 6 * payload_bytes + (std::size_t{1} << 20);
}

Service::Service(ServeConfig cfg) : cfg_(cfg) {}

Service::~Service() { drain(); }

Ticket Service::submit_compress(std::string tenant, std::span<const float> data,
                                const dev::Dim3& dims,
                                const CompressParams& params) {
  Request req;
  req.kind = Kind::CompressF32;
  req.tenant = std::move(tenant);
  req.f32 = data;
  req.dims = dims;
  req.params = params;
  req.payload_bytes = data.size_bytes();
  return run(req);
}

Ticket Service::submit_compress_f64(std::string tenant,
                                    std::span<const double> data,
                                    const dev::Dim3& dims,
                                    const CompressParams& params) {
  Request req;
  req.kind = Kind::CompressF64;
  req.tenant = std::move(tenant);
  req.f64 = data;
  req.dims = dims;
  req.params = params;
  req.payload_bytes = data.size_bytes();
  return run(req);
}

Ticket Service::submit_decompress(std::string tenant,
                                  std::span<const std::byte> archive) {
  Request req;
  req.kind = Kind::DecompressF32;
  req.tenant = std::move(tenant);
  req.archive = archive;
  req.payload_bytes = archive.size();
  return run(req);
}

Ticket Service::submit_decompress_f64(std::string tenant,
                                      std::span<const std::byte> archive) {
  Request req;
  req.kind = Kind::DecompressF64;
  req.tenant = std::move(tenant);
  req.archive = archive;
  req.payload_bytes = archive.size();
  return run(req);
}

Ticket Service::submit_roi(std::string tenant,
                           std::span<const std::byte> archive,
                           const RoiBox& box) {
  Request req;
  req.kind = Kind::Roi;
  req.tenant = std::move(tenant);
  req.archive = archive;
  req.box = box;
  // The indexed ROI path's working set is bounded by the halo'd box, not
  // the archive — budget the box.
  req.payload_bytes = box.ext.volume() * sizeof(float);
  return run(req);
}

Ticket Service::run(const Request& req) {
  const auto submitted = Clock::now();
  auto resp = std::make_shared<Response>();
  resp->bytes_in = req.payload_bytes;
  const std::size_t estimate = estimate_workspace_bytes(req.payload_bytes);
  if (!admit(req.tenant, estimate)) {
    resp->status = Status::Rejected;
    resp->error = "admission: workspace budget exceeded";
    return Ticket(std::move(resp));
  }

  const auto started = Clock::now();
  {
    // The workspace's pages go back to the pool before retire() wakes the
    // admission waiters, so their trim can release them.
    dev::Workspace ws(dev::Arena::instance());
    try {
      run_request_body(req, *resp, ws);
    } catch (...) {
      resp->status = Status::Failed;
      resp->error = describe(std::current_exception());
    }
  }
  const auto done = Clock::now();
  resp->queue_seconds = seconds_between(submitted, started);
  resp->service_seconds = seconds_between(started, done);
  resp->total_seconds = seconds_between(submitted, done);
  retire(req.tenant, *resp, estimate);
  return Ticket(std::move(resp));
}

bool Service::admit(const std::string& tenant, std::size_t estimate) {
  std::unique_lock lk(mu_);
  ++stats_.submitted;
  const std::size_t budget = cfg_.workspace_budget_bytes;
  const auto fits = [&] {
    if (budget == 0) return true;
    const std::size_t held = dev::Arena::aggregate_stats().held_bytes;
    return held + inflight_estimate_ + estimate <= budget;
  };
  if (cfg_.over_budget == ServeConfig::OverBudget::Reject) {
    // Fail fast: the pooled arenas plus the estimated in-flight work would
    // breach the budget.
    if (!fits()) {
      ++stats_.rejected;
      ++stats_.admission_rejects;
      ++tenants_[tenant].rejected;
      return false;
    }
  } else {
    // A byte gate: release idle pooled pages before deciding, and wait for
    // in-flight requests to retire while the estimate does not fit. A
    // request with nothing else in flight always runs.
    const auto fits_after_trim = [&] {
      if (fits()) return true;
      dev::Arena::trim_all();
      return fits();
    };
    if (!fits_after_trim() && inflight_ > 0) {
      ++stats_.admission_deferrals;
      cv_retired_.wait(lk, [&] { return inflight_ == 0 || fits_after_trim(); });
    }
  }
  ++inflight_;
  inflight_estimate_ += estimate;
  stats_.peak_inflight_estimate =
      std::max(stats_.peak_inflight_estimate, inflight_estimate_);
  return true;
}

void Service::retire(const std::string& tenant, const Response& resp,
                     std::size_t estimate) {
  {
    // Counters land with the in-flight decrement: a caller reading stats()
    // after drain() sees every retired request.
    std::lock_guard lk(mu_);
    --inflight_;
    inflight_estimate_ -= estimate;
    const bool failed = resp.status == Status::Failed;
    ++stats_.completed;
    ++stats_.waves;
    if (failed) ++stats_.failed;
    auto& t = tenants_[tenant];
    ++t.requests;
    if (failed) ++t.failed;
    t.bytes_in += resp.bytes_in;
    t.bytes_out += resp.bytes_out;
    t.busy_seconds += resp.service_seconds;
    t.queue_seconds += resp.queue_seconds;
  }
  cv_retired_.notify_all();
}

void Service::drain() {
  std::unique_lock lk(mu_);
  cv_retired_.wait(lk, [&] { return inflight_ == 0; });
}

ServiceStats Service::stats() const {
  ServiceStats s;
  {
    std::lock_guard lk(mu_);
    s = stats_;
  }
  s.arena_high_water_bytes = dev::Arena::aggregate_stats().high_water_bytes;
  return s;
}

TenantStats Service::tenant_stats(const std::string& tenant) const {
  std::lock_guard lk(mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second;
}

std::vector<std::pair<std::string, TenantStats>> Service::all_tenant_stats()
    const {
  std::lock_guard lk(mu_);
  return {tenants_.begin(), tenants_.end()};
}

}  // namespace szi::serve
