#include "host.hh"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <climits>
#include <fstream>
#include <string>

#include "device/thread_pool.hh"

namespace perfbench {

unsigned cpu_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::size_t llc_bytes() {
  int best_level = 0;
  std::size_t best = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_in(dir + "level"), type_in(dir + "type"),
        size_in(dir + "size");
    if (!level_in || !type_in || !size_in) continue;
    int level = 0;
    std::string type, size;
    level_in >> level;
    type_in >> type;
    size_in >> size;
    if (type == "Instruction" || size.empty() || level < best_level) continue;
    std::size_t mult = 1;
    if (size.back() == 'K') mult = 1024;
    if (size.back() == 'M') mult = 1024 * 1024;
    best = std::stoull(size) * mult;
    best_level = level;
  }
  return best;
}

unsigned pool_workers() {
  return szi::dev::ThreadPool::instance().worker_count();
}

double peak_rss_mb() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);  // ru_maxrss is KiB on Linux
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

void retain_freed_memory() {
  // Blocks a thread's own arena cannot hold are still mapped on demand.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
}

}  // namespace perfbench
