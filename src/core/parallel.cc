#include "core/parallel.h"

#include "core/query_context.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace evident {

namespace {

/// 0 means "use the hardware default"; any positive value is an explicit
/// cap set through SetParallelMaxThreads.
std::atomic<size_t> g_max_threads{0};

size_t HardwareThreads() {
  // hardware_concurrency() may take a lock / read sysfs on some
  // platforms; the topology never changes mid-process, so query once.
  static const size_t cached = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? size_t{1} : static_cast<size_t>(hw);
  }();
  return cached;
}

/// True while the current thread is draining a morsel job (pool worker
/// or participating caller). Nested ParallelForMorsels calls run inline:
/// the pool's run mutex is held by the outer job, so queueing from a
/// worker would deadlock — and the outer job already owns the cores.
thread_local bool t_in_morsel_job = false;

/// \brief The persistent worker pool behind ParallelForMorsels.
///
/// One job at a time (run_mu_); the job is a shared atomic cursor over
/// [0, morsel_count) that helpers and the calling thread fetch_add from
/// until exhausted. Helpers are woken by a generation counter so a
/// stale wakeup can never re-enter a finished job, and the caller closes
/// the job under the state mutex before waiting out in-flight helpers —
/// a helper either observes the closed job and stays parked or was
/// already counted in helpers_running_ and is drained by done_cv_.
/// Helper writes to caller-owned output buffers are published by the
/// release/acquire pair on mu_ around that final handshake.
///
/// The singleton is leaked on purpose: worker threads park on job_cv_
/// forever, and tearing the pool down during static destruction would
/// race them.
class MorselPool {
 public:
  static MorselPool& Instance() {
    static MorselPool* pool = new MorselPool();
    return *pool;
  }

  void Run(size_t n, size_t grain, size_t morsel_count, size_t helper_cap,
           const std::function<void(size_t, size_t, size_t)>& fn) {
    std::lock_guard<std::mutex> run_lock(run_mu_);
    std::atomic<size_t> cursor{0};
    {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureWorkersLocked(helper_cap);
      job_.fn = &fn;
      job_.n = n;
      job_.grain = grain;
      job_.morsel_count = morsel_count;
      job_.cursor = &cursor;
      // The submitting thread's governor rides with the job: workers are
      // different threads, so the context must be carried explicitly —
      // CurrentQueryContext() is thread-local and a worker's own slot
      // belongs to whatever (if anything) that thread is running.
      job_.ctx = CurrentQueryContext();
      job_.helper_cap = std::min(helper_cap, workers_.size());
      job_.open = true;
      helpers_admitted_ = 0;
      ++generation_;
    }
    job_cv_.notify_all();
    Drain(job_);  // the caller participates; job_ fields are stable here
    std::unique_lock<std::mutex> lock(mu_);
    job_.open = false;
    done_cv_.wait(lock, [&] { return helpers_running_ == 0; });
  }

 private:
  struct Job {
    const std::function<void(size_t, size_t, size_t)>* fn = nullptr;
    size_t n = 0;
    size_t grain = 0;
    size_t morsel_count = 0;
    std::atomic<size_t>* cursor = nullptr;
    QueryContext* ctx = nullptr;  // the submitting thread's governor
    size_t helper_cap = 0;
    bool open = false;
  };

  /// Claims morsels from the shared cursor until none remain. Fixed
  /// boundaries: morsel m is [m*grain, min(n, (m+1)*grain)).
  ///
  /// Governed jobs (job.ctx != null) are polled once per claimed morsel:
  /// a tripped deadline/cancel makes every drainer stop claiming, the
  /// unexecuted morsels keep their callers' benign pre-initialized
  /// slots, and the operator reads the sticky first error off the
  /// context after the pass. Ungoverned execution pays one thread-local
  /// store/load pair per drain.
  ///
  /// The job's context is installed in this thread's ambient slot for
  /// the drain so the morsel fn's own CurrentQueryContext() calls (the
  /// operator layer charges rows from inside morsels) resolve to the
  /// *submitting* thread's governor, not to whatever this worker thread
  /// ran last.
  static void Drain(const Job& job) {
    const bool was_in_job = t_in_morsel_job;
    t_in_morsel_job = true;
    ScopedQueryContext ambient(job.ctx);
    for (;;) {
      const size_t m = job.cursor->fetch_add(1, std::memory_order_relaxed);
      if (m >= job.morsel_count) break;
      if (job.ctx != nullptr && !job.ctx->PollMorsel().ok()) break;
      const size_t begin = m * job.grain;
      (*job.fn)(m, begin, std::min(job.n, begin + job.grain));
    }
    t_in_morsel_job = was_in_job;
  }

  /// Grows the pool to `count` parked workers. Spawn failure (process
  /// thread limit) degrades gracefully: the job runs on whatever helpers
  /// exist plus the caller. Requires mu_ held.
  void EnsureWorkersLocked(size_t count) {
    while (workers_.size() < count) {
      try {
        workers_.emplace_back([this] { WorkerLoop(); });
        workers_.back().detach();  // joined never: the pool is immortal
      } catch (const std::system_error&) {
        break;
      }
    }
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      job_cv_.wait(lock, [&] { return job_.open && generation_ != seen; });
      seen = generation_;
      if (helpers_admitted_ >= job_.helper_cap) continue;
      ++helpers_admitted_;
      ++helpers_running_;
      const Job job = job_;
      lock.unlock();
      Drain(job);
      lock.lock();
      if (--helpers_running_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex run_mu_;  // serializes concurrent top-level Run callers
  std::mutex mu_;      // guards job_, counters; publishes helper writes
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  Job job_;
  uint64_t generation_ = 0;
  size_t helpers_admitted_ = 0;  // helpers that joined the current job
  size_t helpers_running_ = 0;   // helpers still draining it
  std::vector<std::thread> workers_;
};

}  // namespace

void SetParallelMaxThreads(size_t n) {
  g_max_threads.store(n, std::memory_order_relaxed);
}

size_t ParallelMaxThreads() {
  const size_t configured = g_max_threads.load(std::memory_order_relaxed);
  return configured == 0 ? HardwareThreads() : configured;
}

size_t ParallelMorselCount(size_t n, size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

void ParallelForMorsels(size_t n, size_t grain,
                        const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const size_t morsels = (n + grain - 1) / grain;
  const size_t workers = std::min(ParallelMaxThreads(), morsels);
  if (morsels == 1 || workers <= 1 || t_in_morsel_job) {
    // Tiny input or nested call: skip the queue entirely — same morsel
    // boundaries, same results, no scheduler overhead. Same per-morsel
    // governor poll as the pool's Drain.
    QueryContext* const ctx = CurrentQueryContext();
    for (size_t m = 0; m < morsels; ++m) {
      if (ctx != nullptr && !ctx->PollMorsel().ok()) break;
      const size_t begin = m * grain;
      fn(m, begin, std::min(n, begin + grain));
    }
    return;
  }
  MorselPool::Instance().Run(n, grain, morsels, workers - 1, fn);
}

}  // namespace evident
