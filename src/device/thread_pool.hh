// A small persistent worker pool used as the "device" behind kernel launches.
//
// Workers are created once (lazily, on first use) and parked on a condition
// variable between launches, mirroring how a GPU's SMs persist across kernel
// invocations. Work is handed out as a half-open index range consumed through
// an atomic counter (dynamic scheduling), which maps naturally onto the
// block-index iteration the kernels in this codebase use.
//
// The pool accepts launches from any number of threads concurrently — the
// hardware analogue of multiple CUDA streams feeding one device. Each
// parallel_for enqueues a launch descriptor; idle workers drain whichever
// launches are active (FIFO between launches, dynamic chunking within one),
// so one caller's kernel can execute while another caller's kernel is still
// in flight, and tail blocks of one launch backfill with blocks of the next.
// Concurrency across requests therefore comes from callers sharing the pool
// (szi::serve runs each request on its caller's thread), not from queues.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "device/function_ref.hh"

namespace szi::dev {

class ThreadPool {
 public:
  /// Global pool shared by all kernel launches. Sized to the hardware, or
  /// to SZI_THREADS if set (read once, at first use).
  static ThreadPool& instance();

  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Invokes `body(i)` for every i in [0, count), distributing chunks of
  /// `grain` indices across workers. The calling thread participates, so the
  /// call is synchronous — on return every index has been processed. If any
  /// body throws, one of the exceptions is rethrown on the caller after the
  /// launch drains. Safe to call from multiple threads concurrently; each
  /// call is an independent launch.
  void parallel_for(std::size_t count, FunctionRef<void(std::size_t)> body,
                    std::size_t grain = 1);

  [[nodiscard]] unsigned worker_count() const { return workers_; }

 private:
  /// One in-flight launch. Lives on the submitting thread's shared_ptr plus
  /// transient copies held by draining workers; `done` is the completion
  /// signal the submitter waits on.
  struct Launch {
    Launch(FunctionRef<void(std::size_t)> b, std::size_t c, std::size_t g)
        : body(b), count(c), grain(g) {}
    FunctionRef<void(std::size_t)> body;
    std::size_t count;
    std::size_t grain;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> in_flight{0};
    std::exception_ptr error;  // guarded by the pool mutex
    bool done = false;         // guarded by the pool mutex
  };

  /// Claims and runs chunks of `ln` until its index space is exhausted.
  /// Returns once no further chunk can be claimed (other workers may still
  /// be running theirs).
  void drain(Launch& ln);
  void finish_if_complete(Launch& ln);
  void worker_loop();

  unsigned workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;  // workers: queue non-empty or stop
  std::condition_variable cv_done_;   // submitters: their launch completed
  std::deque<std::shared_ptr<Launch>> queue_;  // launches with unclaimed work
  bool stop_ = false;
};

}  // namespace szi::dev
