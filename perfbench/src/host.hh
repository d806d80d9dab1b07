// Host facts every result is stamped with, so a number can be read against
// the machine that produced it.
#pragma once

#include <cstddef>

namespace perfbench {

/// CPUs this process may run on (sched_getaffinity), at least 1.
[[nodiscard]] unsigned cpu_cores();

/// Size of the last-level cache from sysfs (the highest-level unified or
/// data cache of cpu0); 0 when sysfs does not say.
[[nodiscard]] std::size_t llc_bytes();

/// Workers of the library's thread pool (SZI_THREADS or the hardware).
[[nodiscard]] unsigned pool_workers();

/// Peak resident set of this process, in 1e6 bytes.
[[nodiscard]] double peak_rss_mb();

/// Makes the allocator serve large blocks from the heap and keep what is
/// freed, so a buffer freed and allocated again reuses pages that are
/// already faulted in. Without it every field-size allocation is a fresh
/// mapping, and the cost of faulting it in (which varies from process to
/// process in a VM) swamps the decode time.
void retain_freed_memory();

}  // namespace perfbench
