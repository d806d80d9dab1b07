// Random-access archive byte sources. Decode paths that used to require the
// whole archive in RAM (read_bytes + decompress) instead pull ranges through
// an ArchiveSource: a borrowed memory span, an mmap'd file (the kernel pages
// in only what decode touches), or a pread-backed stream for filesystems
// where mapping is unavailable. The ROI decoder reads exactly the directory,
// index, and covering blocks — `bytes_read()` reports the honest total, the
// number the bench ledger and the CLI's --stages bytes-touched line print.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace szi::io {

/// Process-wide count of archive bytes served through ArchiveSource views
/// — the per-run "archive bytes read" column of bench::write_ledger. Ranges
/// fetched twice count twice (that is the I/O that actually happened).
[[nodiscard]] std::uint64_t archive_bytes_read() noexcept;

/// Abstract random-access view of an archive's bytes.
///
/// Thread safety: concurrent view() calls on one source are safe as long as
/// every caller passes its own `scratch` buffer — the multi-tenant ROI
/// pattern of many readers sharing one mmap'd archive. Memory/mmap views
/// are immutable storage, pread carries no shared file offset, and the
/// byte accounting is atomic.
class ArchiveSource {
 public:
  virtual ~ArchiveSource() = default;
  ArchiveSource(const ArchiveSource&) = delete;
  ArchiveSource& operator=(const ArchiveSource&) = delete;

  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Bytes [off, off + len) of the archive. The returned span points either
  /// into the source's own storage (memory span, mmap) or into `scratch`,
  /// which the implementation resizes as needed — callers that need two
  /// ranges alive at once pass two scratch buffers. Throws std::out_of_range
  /// when the range exceeds the archive.
  [[nodiscard]] virtual std::span<const std::byte> view(
      std::size_t off, std::size_t len, std::vector<std::byte>& scratch) = 0;

  /// Total bytes this source has served.
  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_.load(std::memory_order_relaxed);
  }

 protected:
  ArchiveSource() = default;
  void check_range(std::size_t off, std::size_t len) const;
  /// Adds `len` to this source's counter and the process-wide one.
  void account(std::size_t len) noexcept;

 private:
  std::atomic<std::uint64_t> bytes_read_{0};
};

/// Borrowed in-memory bytes (the compress-then-decompress round trips of
/// tests and benches). Zero-copy views.
class MemorySource final : public ArchiveSource {
 public:
  explicit MemorySource(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t size() const noexcept override {
    return bytes_.size();
  }
  [[nodiscard]] std::span<const std::byte> view(
      std::size_t off, std::size_t len,
      std::vector<std::byte>& scratch) override;

 private:
  std::span<const std::byte> bytes_;
};

/// mmap'd file with MADV_RANDOM — decode touches fault in exactly the pages
/// the access pattern needs, so a larger-than-RAM archive never has to be
/// resident. Zero-copy views. Throws std::runtime_error when the file
/// cannot be opened or mapped.
class MmapSource final : public ArchiveSource {
 public:
  explicit MmapSource(const std::string& path);
  ~MmapSource() override;

  [[nodiscard]] std::size_t size() const noexcept override { return size_; }
  [[nodiscard]] std::span<const std::byte> view(
      std::size_t off, std::size_t len,
      std::vector<std::byte>& scratch) override;

 private:
  void* base_ = nullptr;
  std::size_t size_ = 0;
};

/// pread-backed streaming reads: every view copies the range into `scratch`.
/// The fallback for files that cannot be mapped, and the honest model of a
/// remote/byte-range source.
class StreamSource final : public ArchiveSource {
 public:
  explicit StreamSource(const std::string& path);
  ~StreamSource() override;

  [[nodiscard]] std::size_t size() const noexcept override { return size_; }
  [[nodiscard]] std::span<const std::byte> view(
      std::size_t off, std::size_t len,
      std::vector<std::byte>& scratch) override;

 private:
  int fd_ = -1;
  std::size_t size_ = 0;
};

/// Opens `path` as an MmapSource, falling back to StreamSource when the
/// mapping fails (empty files, filesystems without mmap).
[[nodiscard]] std::unique_ptr<ArchiveSource> open_archive(
    const std::string& path);

namespace detail {

/// Test seam for StreamSource's read loop: when a hook is installed, it is
/// called in place of ::pread, letting tests exercise the EINTR-retry and
/// short-read reassembly paths that a healthy local filesystem never takes
/// (pread on a regular file is atomic in practice, but NFS, FUSE, and
/// signal-heavy processes do produce partial reads and EINTR). Returns the
/// previously installed hook; nullptr restores ::pread. Not thread-safe
/// against concurrent StreamSource reads — install before spawning readers.
using PreadFn = ssize_t (*)(int fd, void* buf, std::size_t count, off_t off);
PreadFn set_pread_hook(PreadFn fn) noexcept;

}  // namespace detail

}  // namespace szi::io
