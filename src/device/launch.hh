// CUDA-like kernel launch on top of the thread pool.
//
// Kernels in this codebase follow the "block function" portability pattern:
// the unit of scheduling is a *block* (identified by a Dim3 block index), and
// the kernel body iterates the block's threads itself. This keeps the exact
// decomposition the paper describes (one thread block per 32x8x8 tile, one
// chunk per Huffman encoder thread, ...) while remaining portable C++.
#pragma once

#include <cstddef>

#include "device/dims.hh"
#include "device/thread_pool.hh"

namespace szi::dev {

/// Identifier of one scheduled block within a launch.
struct BlockIdx {
  std::size_t x = 0, y = 0, z = 0;
  std::size_t linear = 0;
};

/// Launches `grid.volume()` blocks; `body(BlockIdx)` runs once per block,
/// distributed over the pool. Synchronous, like a CUDA launch followed by
/// cudaDeviceSynchronize(). The body is borrowed for the duration of the
/// call (FunctionRef), so no per-launch heap allocation happens here.
template <typename Body>
void launch_blocks(const Dim3& grid, Body&& body) {
  auto& pool = ThreadPool::instance();
  const std::size_t n = grid.volume();
  pool.parallel_for(n, [&](std::size_t i) {
    const Coord3 c = delinearize(grid, i);
    body(BlockIdx{c.x, c.y, c.z, i});
  });
}

/// 1D convenience: `body(i)` for i in [0, count), chunked by `grain`.
template <typename Body>
void launch_linear(std::size_t count, Body&& body, std::size_t grain = 1024) {
  ThreadPool::instance().parallel_for(count, [&](std::size_t i) { body(i); },
                                      grain);
}

}  // namespace szi::dev
