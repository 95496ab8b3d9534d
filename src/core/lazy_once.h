#ifndef EVIDENT_CORE_LAZY_ONCE_H_
#define EVIDENT_CORE_LAZY_ONCE_H_

#include <atomic>
#include <cassert>
#include <mutex>
#include <optional>
#include <utility>

namespace evident {

/// \brief A value built on first use, safely, by whichever thread asks
/// first — the one primitive behind every lazily-built cache on a shared
/// `const` object (a relation's row image, key index and column image; a
/// column store's encoded-key arena and statistics).
///
/// Get(build) runs `build` exactly once across any number of concurrent
/// callers; the others block until it finishes and then read the same
/// value. Once built, a read is one acquire load. A `build` that throws
/// leaves the cell empty and rethrows, so the next Get retries — an
/// allocation failure in a lazy build is as recoverable as anywhere else.
///
/// Copying a cell carries a value that is already built (a copy of an
/// unbuilt cell starts unbuilt and builds on its own), so copies of a
/// relation share the work their source has done; copying from a cell
/// other threads are reading is safe. Assignment, moving from a cell,
/// Set, Reset and Mutable are ordinary non-const mutations: they need
/// the owner's exclusive access, as for any other member.
///
/// A `build` must not call Get on the same cell (it would deadlock);
/// builds that read other cells are fine.
template <typename T>
class LazyOnce {
 public:
  LazyOnce() = default;
  /// A cell already holding `value`.
  explicit LazyOnce(T value) { Set(std::move(value)); }

  LazyOnce(const LazyOnce& other) { CopyFrom(other); }
  LazyOnce& operator=(const LazyOnce& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  LazyOnce(LazyOnce&& other) noexcept { MoveFrom(std::move(other)); }
  LazyOnce& operator=(LazyOnce&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  /// \brief The value, built by `build()` (returning a T) on the first
  /// call across all threads.
  template <typename Build>
  const T& Get(Build&& build) const {
    if (!ready_.load(std::memory_order_acquire)) {
      BuildOnce(std::forward<Build>(build));
    }
    return *value_;
  }

  /// \brief True once a value is in place (built, Set or copied in).
  bool built() const { return ready_.load(std::memory_order_acquire); }

  /// \brief Installs `value`, replacing any previous one.
  void Set(T value) {
    value_.emplace(std::move(value));
    ready_.store(true, std::memory_order_release);
  }

  /// \brief Drops the value; the next Get builds again.
  void Reset() {
    ready_.store(false);
    value_.reset();
  }

  /// \brief In-place access to a built value, for owners that grow it
  /// (a row-mode relation's inserts).
  T& Mutable() {
    assert(built());
    return *value_;
  }

 private:
  template <typename Build>
  void BuildOnce(Build&& build) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (ready_.load(std::memory_order_relaxed)) return;
    value_.emplace(std::forward<Build>(build)());
    ready_.store(true, std::memory_order_release);
  }

  void CopyFrom(const LazyOnce& other) {
    if (other.built()) {
      Set(*other.value_);
    } else {
      Reset();
    }
  }

  void MoveFrom(LazyOnce&& other) {
    if (other.built()) {
      Set(std::move(*other.value_));
    } else {
      Reset();
    }
    other.Reset();
  }

  // The value is written once under mu_ (or by a non-const owner) and
  // published by the release store to ready_.
  mutable std::mutex mu_;
  mutable std::atomic<bool> ready_{false};
  mutable std::optional<T> value_;
};

}  // namespace evident

#endif  // EVIDENT_CORE_LAZY_ONCE_H_
