#include "relmore/util/worker_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "relmore/util/fault_injector.hpp"

namespace relmore::util {

/// Shared state of the pool. Jobs are strictly serial (parallel_for does
/// not return until the job is fully retired), so a single generation
/// counter is enough: every worker wakes exactly once per generation,
/// drains the shared atomic index, and reports back; the caller waits
/// until all workers have reported before retiring the job. Nested
/// parallel_for calls from inside tasks are not supported.
struct WorkerPool::Impl {
  std::mutex mutex;
  std::condition_variable cv;
  std::condition_variable cv_done;
  std::vector<std::thread> workers;

  const std::function<void(std::size_t)>* task = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::size_t finished = 0;  ///< workers done with the current generation
  std::uint64_t generation = 0;
  bool shutting_down = false;

  std::exception_ptr first_error;

  void drain(const std::function<void(std::size_t)>& fn, std::size_t n) {
    using util::FaultSite;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        // Injection sites: a slow worker (scheduling jitter, page fault
        // storm) and a dying worker (OOM-killed thread, stuck syscall
        // surfacing as an exception). Per task dispatch, outside kernels.
        if (util::fault_should_fire(FaultSite::kPoolDelay)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (util::fault_should_fire(FaultSite::kPoolAbort)) {
          throw util::FaultError(
              util::FaultInjector::fire_status(FaultSite::kPoolAbort));
        }
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t n = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return shutting_down || generation != seen; });
        if (shutting_down) return;
        seen = generation;
        fn = task;
        n = count;
      }
      drain(*fn, n);
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (++finished == workers.size()) cv_done.notify_all();
      }
    }
  }
};

namespace {

/// RELMORE_THREADS pins the default worker count (CI, benchmarks),
/// accepted range [1, 64]. A value that is empty, non-numeric, only
/// partially numeric ("8x"), negative, zero, or out of range is NOT
/// silently honored or truncated: it falls back to the hardware default
/// (returns 0) with one warning on stderr, so a typo in a CI matrix
/// shows up in the log instead of as a mysterious thread count.
///
/// The environment is read exactly once per process, under
/// std::call_once: constructing WorkerPool from several threads
/// concurrently must not interleave getenv with the warning path, and
/// every pool in the process must agree on the same default even if the
/// environment is mutated between constructions (setenv concurrent with
/// getenv is a data race in POSIX — reading once at first use is the
/// only read-vs-spawn ordering we can promise).
unsigned env_default_threads() {
  static std::once_flag once;
  static unsigned cached = 0;  // 0 = unset/invalid → hardware default
  std::call_once(once, [] {
    const char* env = std::getenv("RELMORE_THREADS");
    if (env == nullptr) return;
    errno = 0;
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (*env != '\0' && end != env && *end == '\0' && errno == 0 && parsed >= 1 &&
        parsed <= WorkerPool::kMaxThreads) {
      cached = static_cast<unsigned>(parsed);
    } else {
      std::fprintf(stderr,
                   "relmore: ignoring RELMORE_THREADS=\"%s\" (want an integer in "
                   "[1, 64]); using the hardware default\n",
                   env);
    }
  });
  return cached;
}

}  // namespace

WorkerPool::WorkerPool(unsigned threads) : impl_(new Impl) {
  if (threads == 0) threads = env_default_threads();
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = std::min(hw == 0 ? 1u : hw, 8u);
  }
  threads_ = std::max(threads, 1u);
  impl_->workers.reserve(threads_ - 1);
  for (unsigned t = 1; t < threads_; ++t) {
    impl_->workers.emplace_back([impl = impl_] { impl->worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
  }
  impl_->cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

void WorkerPool::parallel_for(std::size_t count,
                                 const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (impl_->workers.empty()) {  // single-threaded pool: run inline
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->first_error = nullptr;
    impl_->count = count;
    impl_->drain(fn, count);
    if (impl_->first_error) std::rethrow_exception(impl_->first_error);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->task = &fn;
    impl_->count = count;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->finished = 0;
    impl_->first_error = nullptr;
    ++impl_->generation;
  }
  impl_->cv.notify_all();
  impl_->drain(fn, count);  // the caller works too
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->cv_done.wait(lock, [&] { return impl_->finished == impl_->workers.size(); });
    impl_->task = nullptr;
    if (impl_->first_error) std::rethrow_exception(impl_->first_error);
  }
}

void WorkerPool::parallel_chunks(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t chunks = std::min<std::size_t>(threads_, count);
  const std::size_t per = count / chunks;
  const std::size_t extra = count % chunks;
  parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * per + std::min(c, extra);
    const std::size_t end = begin + per + (c < extra ? 1 : 0);
    fn(begin, end);
  });
}

}  // namespace relmore::util
