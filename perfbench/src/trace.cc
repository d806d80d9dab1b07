#include "trace.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::trace {

namespace {

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  /// Open spans of this thread: {id, op}.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stack;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

std::mutex g_mu;  // guards g_buffers
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& local() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lk(g_mu);
    b->tid = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(const char* name, std::uint64_t bytes)
    : name_(name), bytes_(bytes), on_(enabled()) {
  if (!on_) return;
  auto& buf = local();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (buf.stack.empty()) {
    op_ = id_;
  } else {
    parent_ = buf.stack.back().first;
    op_ = buf.stack.back().second;
  }
  buf.stack.emplace_back(id_, op_);
  t0_ = now_ns();
}

Span::~Span() {
  if (!on_) return;
  const std::int64_t t1 = now_ns();
  auto& buf = local();
  buf.stack.pop_back();
  buf.spans.push_back({name_, buf.tid, t0_, t1, bytes_, id_, parent_, op_});
}

std::vector<SpanRecord> collect() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<SpanRecord> all;
  for (const auto& b : g_buffers)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

void clear() {
  std::lock_guard<std::mutex> lk(g_mu);
  for (const auto& b : g_buffers) b->spans.clear();
}

std::map<std::string, Total> totals(const std::vector<SpanRecord>& spans) {
  std::map<std::string, Total> out;
  for (const auto& s : spans) {
    auto& t = out[s.name];
    t.seconds += static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
    t.bytes += static_cast<double>(s.bytes);
    ++t.count;
  }
  return out;
}

bool write_chrome_json(const std::string& path,
                       const std::vector<SpanRecord>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::int64_t base = 0;
  for (const auto& s : spans)
    if (base == 0 || s.t0_ns < base) base = s.t0_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"bytes\":%llu,\"id\":%llu,\"parent\":%llu,"
                 "\"op\":%llu}}",
                 i ? "," : "", s.name, s.tid,
                 static_cast<double>(s.t0_ns - base) * 1e-3,
                 static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3,
                 static_cast<unsigned long long>(s.bytes),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
