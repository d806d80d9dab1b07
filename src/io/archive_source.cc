#include "io/archive_source.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace szi::io {

namespace {

std::atomic<std::uint64_t> g_bytes_read{0};

detail::PreadFn g_pread_hook = nullptr;

ssize_t do_pread(int fd, void* buf, std::size_t count, off_t off) {
  return g_pread_hook ? g_pread_hook(fd, buf, count, off)
                      : ::pread(fd, buf, count, off);
}

[[noreturn]] void fail_sys(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path + ": " + std::strerror(errno));
}

}  // namespace

namespace detail {

PreadFn set_pread_hook(PreadFn fn) noexcept {
  PreadFn prev = g_pread_hook;
  g_pread_hook = fn;
  return prev;
}

}  // namespace detail

std::uint64_t archive_bytes_read() noexcept {
  return g_bytes_read.load(std::memory_order_relaxed);
}

void ArchiveSource::check_range(std::size_t off, std::size_t len) const {
  if (off > size() || len > size() - off)
    throw std::out_of_range("ArchiveSource: range past end of archive");
}

void ArchiveSource::account(std::size_t len) noexcept {
  bytes_read_.fetch_add(len, std::memory_order_relaxed);
  g_bytes_read.fetch_add(len, std::memory_order_relaxed);
}

std::span<const std::byte> MemorySource::view(std::size_t off, std::size_t len,
                                              std::vector<std::byte>&) {
  check_range(off, len);
  account(len);
  return bytes_.subspan(off, len);
}

MmapSource::MmapSource(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail_sys("cannot open for read", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail_sys("cannot stat", path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      fail_sys("cannot mmap", path);
    }
    base_ = p;
    // ROI decode jumps between directory, index, and covering blocks;
    // readahead would fault in exactly the bytes we are trying not to read.
    (void)::madvise(base_, size_, MADV_RANDOM);
  }
  ::close(fd);  // the mapping keeps the file alive
}

MmapSource::~MmapSource() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

std::span<const std::byte> MmapSource::view(std::size_t off, std::size_t len,
                                            std::vector<std::byte>&) {
  check_range(off, len);
  account(len);
  return {static_cast<const std::byte*>(base_) + off, len};
}

StreamSource::StreamSource(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) fail_sys("cannot open for read", path);
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    fail_sys("cannot stat", path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
}

StreamSource::~StreamSource() {
  if (fd_ >= 0) ::close(fd_);
}

std::span<const std::byte> StreamSource::view(std::size_t off, std::size_t len,
                                              std::vector<std::byte>& scratch) {
  check_range(off, len);
  scratch.resize(len);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t r = do_pread(fd_, scratch.data() + got, len - got,
                               static_cast<off_t>(off + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("ArchiveSource: pread failed: ") +
                               std::strerror(errno));
    }
    if (r == 0)
      throw std::runtime_error("ArchiveSource: unexpected EOF in pread");
    got += static_cast<std::size_t>(r);
  }
  account(len);
  return {scratch.data(), len};
}

std::unique_ptr<ArchiveSource> open_archive(const std::string& path) {
  try {
    return std::make_unique<MmapSource>(path);
  } catch (const std::runtime_error&) {
    return std::make_unique<StreamSource>(path);
  }
}

}  // namespace szi::io
