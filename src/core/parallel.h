#ifndef EVIDENT_CORE_PARALLEL_H_
#define EVIDENT_CORE_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace evident {

/// \brief The morsel executor for the relational operators.
///
/// The per-tuple work of the extended algebra (Dempster combinations in
/// Union/MergeTuples, predicate evaluation in the join probe loop) is
/// embarrassingly parallel: tuples are independent and the combination
/// kernels keep their scratch buffers thread-local. ParallelForMorsels
/// carves an index range [0, n) into fixed-size morsels that a
/// persistent worker pool and the calling thread claim from a shared
/// cursor.
///
/// Determinism contract: morsel boundaries depend only on (n, grain),
/// and callers assemble results indexed by morsel or by input position,
/// so the output is bit-identical to serial execution for any thread
/// count.

/// \brief Caps the number of worker threads the executor may use.
/// 0 restores the hardware default (std::thread::hardware_concurrency).
/// Primarily for the threaded-vs-serial determinism tests and for
/// embedders that co-schedule the engine with other work.
void SetParallelMaxThreads(size_t n);

/// \brief The currently configured thread cap (>= 1).
size_t ParallelMaxThreads();

/// \brief Number of fixed-boundary morsels ParallelForMorsels carves
/// [0, n) into: ceil(n / grain), 0 when n == 0. It is pure in (n, grain)
/// alone — morsel boundaries never depend on the thread cap, which is
/// what makes morsel-indexed output assembly bit-identical for any
/// thread count. Callers pre-size per-morsel
/// buffers with this.
size_t ParallelMorselCount(size_t n, size_t grain);

/// \brief Runs `fn(morsel, begin, end)` over the fixed-boundary morsels
/// [m*grain, min(n, (m+1)*grain)) of [0, n). Morsels are claimed from a
/// shared atomic cursor by a persistent worker pool plus the calling
/// thread, so a fast worker simply takes more morsels and a skewed
/// morsel straggles the operator by at most one grain — unlike static
/// contiguous sharding, where the unlucky shard's owner finishes last
/// while its siblings idle. Every morsel index is claimed exactly once;
/// the claim *order* is nondeterministic, so `fn` must only write state
/// indexed by morsel or by row (which is how callers keep results
/// bit-identical to serial execution).
///
/// Tiny inputs (a single morsel) and nested calls from inside a pool
/// worker run inline on the calling thread — no queue, no wakeup.
/// Blocks until every morsel has finished. `fn` must not throw.
void ParallelForMorsels(size_t n, size_t grain,
                        const std::function<void(size_t morsel, size_t begin,
                                                 size_t end)>& fn);

}  // namespace evident

#endif  // EVIDENT_CORE_PARALLEL_H_
