#pragma once

/// \file worker_pool.hpp
/// Small persistent thread pool that fans *independent* work across
/// cores: the STA corpus phase's nets, Monte-Carlo variation samples,
/// buffer-insertion stage candidates, batched lane-groups. One whole-tree
/// analysis is O(n) with two multiplications per section (paper
/// Appendix), so single analyses never need threads — the win is in the
/// embarrassingly parallel batches the corpus, optimization and
/// statistical workloads generate. Work that keeps mutable state per
/// worker takes `parallel_chunks`: each chunk builds its own state and
/// loops its range.

#include <cstddef>
#include <functional>

namespace relmore::util {

/// Fixed-size worker pool. Destruction joins the workers; the calling
/// thread always participates in the work, so `WorkerPool(1)` (or any
/// single-core machine) degrades to plain sequential execution with no
/// thread traffic.
class WorkerPool {
 public:
  /// Largest worker count RELMORE_THREADS accepts.
  static constexpr unsigned kMaxThreads = 64;

  /// `threads` = total workers including the caller; 0 consults the
  /// RELMORE_THREADS environment variable (an integer in [1, kMaxThreads]; any
  /// other value — empty, non-numeric, trailing garbage, out of range —
  /// is rejected with one stderr warning) and falls back to
  /// min(hardware_concurrency, 8). Clamped to at least 1.
  explicit WorkerPool(unsigned threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned thread_count() const { return threads_; }

  /// Runs fn(i) for every i in [0, count) across the pool (atomic
  /// work-stealing; order unspecified). Rethrows the first exception any
  /// task threw, after all tasks finish or are abandoned.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Runs fn(begin, end) on contiguous chunks covering [0, count), at
  /// most one chunk per worker — the one-state-per-worker pattern.
  void parallel_chunks(std::size_t count,
                       const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct Impl;
  Impl* impl_;
  unsigned threads_ = 1;
};

}  // namespace relmore::util
