#ifndef EVIDENT_CORE_QUERY_CONTEXT_H_
#define EVIDENT_CORE_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "common/status.h"
#include "core/schema.h"

namespace evident {

/// \brief Per-query resource governor: a deadline, a cooperative cancel
/// flag, a memory budget and a row cap, shared by every executor stage
/// of one query.
///
/// The context is installed around execution with ScopedQueryContext and
/// discovered by the operator layer and the morsel scheduler through
/// CurrentQueryContext() — plan execution needs no per-call plumbing.
/// Workers poll at morsel boundaries (PollMorsel), serial enumeration
/// loops poll every ~1024 iterations (PollTick), and every operator
/// charges its *logical* output (rows × FootprintPerRow(schema)) against
/// the shared accountant.
///
/// **Determinism.** Charges are logical, not physical, and follow one
/// rule: every executed plan node charges its own output once, children
/// left before right (plan execution is serial across nodes; only
/// intra-operator passes are parallel, and those accumulate monotone
/// counts whose trip condition depends only on the totals). A
/// memory-budget or row-cap error therefore carries the identical
/// message across SIMD/scalar kernels and thread counts. Deadline and
/// cancellation errors are inherently timing-dependent; their messages
/// are stable in form but not in *when* they fire.
///
/// **First-error stickiness.** The first failure recorded (from any
/// thread) wins; every later poll observes the same Status, so all
/// executor stages of a tripped query unwind with one consistent error
/// and the engine, worker pool and shared catalog images stay intact for
/// the next query.
///
/// Configuration (set_deadline / set_memory_budget / set_row_cap) must
/// happen before BeginQuery; RequestCancel is safe from any thread at
/// any time.
class QueryContext {
 public:
  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// \name Limits. Zero/unset means unlimited.
  /// @{
  void set_deadline(std::chrono::nanoseconds deadline) {
    deadline_duration_ = deadline;
    has_deadline_ = deadline.count() > 0;
  }
  void clear_deadline() { has_deadline_ = false; }
  void set_memory_budget(uint64_t bytes) { memory_budget_ = bytes; }
  void set_row_cap(uint64_t rows) { row_cap_ = rows; }
  /// @}

  /// \brief Cooperatively cancels the running query from any thread.
  void RequestCancel() { cancel_.store(true, std::memory_order_release); }

  /// \brief Resets all per-query state (counters, cancel flag, first
  /// error) and stamps the absolute deadline. Call once per query,
  /// before execution starts.
  void BeginQuery();

  /// \name Hot-path polls.
  /// @{
  /// Morsel-boundary poll: counts the morsel, then checks cancel +
  /// deadline. Ungoverned queries never reach this (the scheduler's
  /// CurrentQueryContext() load returns null).
  Status PollMorsel();
  /// Serial-loop poll (multiway enumeration, product tiling, union
  /// verdict walks): cancel + deadline only, call every ~1024 iterations.
  Status PollTick();
  /// @}

  /// \name Accounting.
  /// @{
  /// The deterministic logical per-row cost of a schema (membership pair
  /// + per-attribute model cost) — identical for row and columnar
  /// executors by construction, which is what makes budget errors
  /// mode-invariant.
  static uint64_t FootprintPerRow(const RelationSchema& schema);

  /// Charges `rows` output rows against the row cap. Monotone and
  /// cumulative: parallel emission sites may charge per morsel; the trip
  /// condition depends only on the running total.
  Status ChargeRows(uint64_t rows);

  /// Charges `rows` rows of `schema` against the memory budget — the
  /// lump charge every operator makes for its logical output at
  /// completion.
  Status ChargeMemory(const RelationSchema& schema, uint64_t rows);

  /// ChargeRows then ChargeMemory, the standard completion charge for
  /// operators that emit in one lump.
  Status ChargeOutput(const RelationSchema& schema, uint64_t rows);
  /// @}

  /// \brief True once any limit tripped (or cancel was requested and
  /// observed). Cheap enough for per-pass checks.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// \brief The sticky first error (OK if none). Operators call this
  /// after a parallel pass whose workers stopped claiming morsels.
  Status first_error() const;

  /// \name Introspection (tests, the shell's \\limits display).
  /// @{
  uint64_t morsels_completed() const {
    return morsels_.load(std::memory_order_relaxed);
  }
  uint64_t rows_charged() const {
    return rows_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_charged() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  uint64_t memory_budget() const { return memory_budget_; }
  uint64_t row_cap() const { return row_cap_; }
  bool has_deadline() const { return has_deadline_; }
  std::chrono::nanoseconds deadline_duration() const {
    return deadline_duration_;
  }
  /// @}

  /// \brief Records `error` as the first error if none is set yet;
  /// otherwise keeps the existing one. Thread-safe.
  void Fail(Status error);

 private:
  Status CheckCancelAndDeadline();

  // Configuration (stable while a query runs).
  std::chrono::nanoseconds deadline_duration_{0};
  bool has_deadline_ = false;
  uint64_t memory_budget_ = 0;  // bytes; 0 = unlimited
  uint64_t row_cap_ = 0;        // rows; 0 = unlimited

  // Per-query state.
  std::chrono::steady_clock::time_point deadline_tp_;
  std::atomic<bool> cancel_{false};
  std::atomic<bool> failed_{false};
  std::atomic<uint64_t> morsels_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> bytes_{0};
  mutable std::mutex mu_;  // guards first_error_
  Status first_error_;
};

/// \brief The governed query running on *this thread*, or null.
/// Thread-local: each session/engine thread installs its own context
/// around execution, so any number of governed queries run concurrently
/// without stomping each other's deadlines, budgets or cancel flags.
/// Morsel-pool workers are not the installing thread — they inherit the
/// submitting thread's context through the pool's job struct (the
/// scheduler installs it in each worker's slot for the job's duration).
/// Ungoverned execution costs a single thread-local load wherever the
/// scheduler or an operator polls.
QueryContext* CurrentQueryContext();

/// \brief Installs a context as this thread's CurrentQueryContext() for
/// a scope, restoring the previous one (nest-aware) on destruction.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(QueryContext* ctx);
  ~ScopedQueryContext();
  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext* prev_;
};

}  // namespace evident

#endif  // EVIDENT_CORE_QUERY_CONTEXT_H_
