#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "relmore/util/worker_pool.hpp"

namespace {

using namespace relmore;

TEST(WorkerPool, ThreadCountDefaultsToAtLeastOne) {
  const util::WorkerPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
  const util::WorkerPool one(1);
  EXPECT_EQ(one.thread_count(), 1u);
}

TEST(WorkerPool, ParallelForVisitsEveryIndexExactlyOnce) {
  util::WorkerPool pool(4);
  const std::size_t count = 1000;
  std::vector<std::atomic<int>> hits(count);
  pool.parallel_for(count, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(WorkerPool, ParallelForZeroCountIsNoop) {
  util::WorkerPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "fn called for empty range"; });
}

TEST(WorkerPool, ParallelForReusableAcrossCalls) {
  util::WorkerPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(WorkerPool, ParallelChunksCoverRangeWithoutOverlap) {
  util::WorkerPool pool(4);
  const std::size_t count = 103;  // deliberately not divisible by the pool size
  std::vector<std::atomic<int>> hits(count);
  std::atomic<unsigned> chunks{0};
  pool.parallel_chunks(count, [&](std::size_t begin, std::size_t end) {
    ASSERT_LE(begin, end);
    ++chunks;
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_LE(chunks.load(), pool.thread_count());
}

TEST(WorkerPool, FirstExceptionPropagatesToCaller) {
  util::WorkerPool pool(2);
  EXPECT_THROW(pool.parallel_for(50,
                                 [](std::size_t i) {
                                   if (i == 17) throw std::runtime_error("task 17 failed");
                                 }),
               std::runtime_error);
  // The pool must remain usable after a failed job.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45u);
}

}  // namespace
