// Pooled "device memory" for pipeline workspaces.
//
// Every compression stage used to allocate its intermediates (quant codes,
// histograms, Huffman bitstreams, LZSS match tables) as fresh std::vectors —
// for multi-megabyte buffers glibc routes these through mmap, so every call
// paid page faults plus kernel zeroing, the per-invocation overhead that
// dominates GPU compressors at scale (cuSZ+, Tian et al. 2021). The Arena is
// the CPU analogue of a CUDA stream-ordered memory pool (cudaMemPool): a
// size-bucketed, thread-safe free list of raw blocks that keeps pages warm
// across invocations.
//
// Layering:
//   Arena      — global, thread-safe, power-of-two buckets, explicit trim().
//   Workspace  — per-caller scratch handle; hands out typed spans and
//                returns every block to its arena on reset()/destruction.
//                NOT thread-safe: one Workspace per calling thread, by
//                design; concurrent callers share the Arena underneath.
//   PooledBuffer — RAII block for transient per-worker scratch inside a
//                kernel body (goes straight to the thread-safe Arena).
//
// Lifetime rules (see docs/ARCHITECTURE.md): spans from Workspace::make()
// are valid until the next reset(); nothing in an arena block is zeroed —
// consumers must fully overwrite what they read, which the determinism tests
// enforce by comparing pooled and non-pooled archives byte for byte.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

namespace szi::dev {

class Arena {
 public:
  /// Global pool shared by all callers and pipelines.
  static Arena& instance();

  Arena() = default;
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  struct Stats {
    std::size_t hits = 0;        ///< acquisitions served from the pool
    std::size_t misses = 0;      ///< acquisitions that hit the OS allocator
    std::size_t pooled_blocks = 0;
    std::size_t pooled_bytes = 0;
    std::size_t outstanding = 0; ///< blocks currently acquired
    std::size_t outstanding_bytes = 0;  ///< bytes currently acquired
    /// Bytes currently held from the OS: outstanding + pooled. This is the
    /// arena's real footprint — release() moves bytes from outstanding to
    /// pooled without returning them, only trim() shrinks it.
    std::size_t held_bytes = 0;
    /// Peak of held_bytes since construction (or the last
    /// reset_high_water()). The admission controller in szi::serve budgets
    /// against this — it is the honest "how much workspace did the fleet
    /// ever pin" number the bench ledgers report.
    std::size_t high_water_bytes = 0;
  };

  /// Returns a block of at least `bytes` (rounded up to the bucket size,
  /// reported through `capacity`). Contents are unspecified.
  [[nodiscard]] std::byte* acquire(std::size_t bytes, std::size_t& capacity);

  /// Returns a block obtained from acquire(); `capacity` must be the value
  /// acquire() reported.
  void release(std::byte* p, std::size_t capacity) noexcept;

  /// Frees every idle block back to the OS (outstanding blocks unaffected).
  void trim() noexcept;

  /// Restarts high-water tracking from the current held_bytes; phase-scoped
  /// peak measurements (the serve bench's per-config ledger rows) bracket a
  /// phase with reset + read.
  void reset_high_water() noexcept;

  [[nodiscard]] Stats stats() const;

  /// stats() of instance(), the pool every shipped pipeline draws from —
  /// what benches and the serve layer report.
  [[nodiscard]] static Stats aggregate_stats();

  /// trim() on instance(); returns the number of bytes released back to the
  /// OS. The serve layer calls this when an idle service's pooled pages
  /// should be given back.
  static std::size_t trim_all() noexcept;

  /// reset_high_water() on instance().
  static void reset_high_water_all() noexcept;

 private:
  static constexpr std::size_t kMinBlock = 256;
  [[nodiscard]] static std::size_t bucket_of(std::size_t bytes);

  mutable std::mutex mu_;
  std::array<std::vector<std::byte*>, 64> free_;  ///< per-log2 free lists
  Stats stats_;
};

/// RAII arena block for per-worker scratch inside kernel bodies; safe to
/// construct/destroy concurrently from pool workers.
class PooledBuffer {
 public:
  PooledBuffer(Arena& arena, std::size_t bytes)
      : arena_(&arena), data_(arena.acquire(bytes, capacity_)) {}
  ~PooledBuffer() { arena_->release(data_, capacity_); }

  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  [[nodiscard]] std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Views the block as `n` elements of T (unspecified contents).
  template <typename T>
  [[nodiscard]] std::span<T> as(std::size_t n) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return {reinterpret_cast<T*>(data_), n};
  }

 private:
  Arena* arena_;
  std::size_t capacity_ = 0;
  std::byte* data_;
};

/// Epoch-stamped scratch table: a fixed-size slot array whose entries can be
/// invalidated in O(1) by bumping an epoch instead of refilling the storage.
/// This is the CPU analogue of the GPU trick of tagging shared-memory hash
/// slots with a batch id so a persistent block can start a new tile without
/// a synchronized clear. The LZSS match finder keeps one of these per worker
/// (thread_local) so the per-block `fill_n(head, -1)` reinitialization —
/// previously O(table) per block — disappears from the hot path.
///
/// A slot's payload is observable only when its stamp equals the current
/// epoch; new_epoch() therefore "clears" the table without touching it.
/// Stamps are 32-bit: on the ~4-billionth epoch the counter would alias, so
/// new_epoch() detects the wrap and performs one real clear.
template <typename T>
class StampedScratch {
 public:
  explicit StampedScratch(std::size_t n) : slots_(n), stamp_(n, 0) {}

  /// Invalidates every slot. O(1) except on 32-bit epoch wrap.
  void new_epoch() {
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  [[nodiscard]] bool has(std::size_t i) const { return stamp_[i] == epoch_; }

  /// Current-epoch payload of slot `i`, or `fallback` if the slot is stale.
  [[nodiscard]] T get_or(std::size_t i, T fallback) const {
    return has(i) ? slots_[i] : fallback;
  }

  void put(std::size_t i, T v) {
    slots_[i] = v;
    stamp_[i] = epoch_;
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// Per-caller scratch context threaded through the kernel entry points.
/// Spans returned by make() stay valid until reset()/destruction, which
/// hands every block back to the arena for the next invocation to reuse.
class Workspace {
 public:
  explicit Workspace(Arena& arena = Arena::instance()) : arena_(&arena) {}
  ~Workspace() { reset(); }

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// A span of `n` T's with unspecified contents; the caller must fully
  /// overwrite every element it later reads.
  template <typename T>
  [[nodiscard]] std::span<T> make(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::size_t cap = 0;
    std::byte* p = arena_->acquire(n * sizeof(T), cap);
    blocks_.push_back({p, cap});
    return {reinterpret_cast<T*>(p), n};
  }

  /// Returns every block to the arena; previously returned spans die.
  void reset() noexcept {
    for (const auto& b : blocks_) arena_->release(b.ptr, b.capacity);
    blocks_.clear();
  }

  [[nodiscard]] Arena& arena() const { return *arena_; }

 private:
  struct Block {
    std::byte* ptr;
    std::size_t capacity;
  };
  Arena* arena_;
  std::vector<Block> blocks_;
};

}  // namespace szi::dev
