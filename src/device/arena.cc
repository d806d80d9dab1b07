#include "device/arena.hh"

#include <bit>
#include <new>

namespace szi::dev {

Arena& Arena::instance() {
  static Arena arena;
  return arena;
}

Arena::~Arena() { trim(); }

std::size_t Arena::bucket_of(std::size_t bytes) {
  return std::bit_width(std::max(bytes, kMinBlock) - 1);
}

std::byte* Arena::acquire(std::size_t bytes, std::size_t& capacity) {
  const std::size_t b = bucket_of(bytes);
  capacity = std::size_t{1} << b;
  {
    std::lock_guard lk(mu_);
    auto& list = free_[b];
    if (!list.empty()) {
      std::byte* p = list.back();
      list.pop_back();
      ++stats_.hits;
      ++stats_.outstanding;
      stats_.outstanding_bytes += capacity;
      --stats_.pooled_blocks;
      stats_.pooled_bytes -= capacity;
      return p;
    }
    ++stats_.misses;
    ++stats_.outstanding;
    stats_.outstanding_bytes += capacity;
    // A miss grows the OS footprint; hits recycle held bytes, so held_bytes
    // and the high-water move only here and in trim().
    stats_.held_bytes += capacity;
    stats_.high_water_bytes =
        std::max(stats_.high_water_bytes, stats_.held_bytes);
  }
  // Allocate outside the lock; 64-byte alignment keeps any element type and
  // cache-line-sensitive kernels happy.
  return static_cast<std::byte*>(
      ::operator new(capacity, std::align_val_t{64}));
}

void Arena::release(std::byte* p, std::size_t capacity) noexcept {
  if (p == nullptr) return;
  const std::size_t b = bucket_of(capacity);
  std::lock_guard lk(mu_);
  free_[b].push_back(p);
  --stats_.outstanding;
  stats_.outstanding_bytes -= capacity;
  ++stats_.pooled_blocks;
  stats_.pooled_bytes += capacity;
}

void Arena::trim() noexcept {
  std::lock_guard lk(mu_);
  for (std::size_t b = 0; b < free_.size(); ++b) {
    for (std::byte* p : free_[b])
      ::operator delete(p, std::size_t{1} << b, std::align_val_t{64});
    free_[b].clear();
  }
  stats_.held_bytes -= stats_.pooled_bytes;
  stats_.pooled_blocks = 0;
  stats_.pooled_bytes = 0;
}

void Arena::reset_high_water() noexcept {
  std::lock_guard lk(mu_);
  stats_.high_water_bytes = stats_.held_bytes;
}

Arena::Stats Arena::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

Arena::Stats Arena::aggregate_stats() { return instance().stats(); }

std::size_t Arena::trim_all() noexcept {
  const std::size_t before = instance().stats().held_bytes;
  instance().trim();
  return before - instance().stats().held_bytes;
}

void Arena::reset_high_water_all() noexcept { instance().reset_high_water(); }

}  // namespace szi::dev
