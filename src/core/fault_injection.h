#ifndef EVIDENT_CORE_FAULT_INJECTION_H_
#define EVIDENT_CORE_FAULT_INJECTION_H_

#include <cstdint>

namespace evident {
namespace fault {

/// \brief Deterministic fault-injection points, consulted by the storage
/// layer's syscall wrappers, (in the test binary's global operator new
/// override) by the allocator, and by the join executor's row-id guard.
///
/// Zero-cost when disarmed: each hook is one thread_local flag check.
/// State is thread_local on purpose — an armed test thread never makes
/// the morsel pool's worker threads fail (a std::bad_alloc escaping a
/// worker would terminate the process), so allocation faults stay on the
/// serial storage paths where they are catchable.
enum class Site {
  kAllocation,  // operator new (test-binary override) -> std::bad_alloc
  kWrite,       // write() fails with EIO
  kShortWrite,  // write() writes only half the requested bytes
  kFlush,       // fsync() fails with EIO
  kRename,      // rename() fails with EIO
  kRead,        // read() fails with EIO
  kShortRead,   // read() reports EOF early (simulated truncation)
  kEintr,       // read()/write() fails once with EINTR
  kOpen,        // open() fails with EIO
  kMmap,        // mmap() fails with ENOMEM
  kClose,       // close() fails with EIO
  kRowIdRange,  // a join operand counts as past the 2^32-1 row-id limit
};

/// \brief Arms the calling thread's injector: the `nth` (1-based) hit of
/// `site` fails, after which the injector disarms itself — one-shot, so
/// the error path that fires *after* the fault (message construction,
/// cleanup) runs fault-free. `nth == 0` arms in count-only mode: hits
/// are counted (see Hits) but never fail — the way a test discovers how
/// many injection points an operation crosses before sweeping them.
void Arm(Site site, uint64_t nth);

/// \brief Disarms the calling thread's injector. Hit counts survive
/// until the next Arm.
void Disarm();

/// \brief Hits of the armed site since the last Arm on this thread.
uint64_t Hits();

/// \brief True when this hit of `site` must fail. Counts the hit when
/// the calling thread is armed for `site`; disarms on failure.
bool ShouldFail(Site site);

}  // namespace fault
}  // namespace evident

#endif  // EVIDENT_CORE_FAULT_INJECTION_H_
