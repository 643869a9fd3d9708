//===- tests/executor_test.cpp - Shared worker pool tests --------------------===//
//
// The Executor contract every parallel stage of the measurement stack
// leans on: each index in [0, Count) runs exactly once, results land in
// their own slots (so a filled vector is bit-identical to a serial
// loop), jobs=1 degenerates to an inline serial loop on the calling
// thread, a batch runs on at most min(workers, Count) threads,
// exceptions propagate to the caller without wedging the pool, one pool
// serves many parallelFor batches, and a task may start a batch of its
// own on the same pool.
//
//===----------------------------------------------------------------------===//

#include "support/Executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace halo;

TEST(ResolveJobs, PositiveValuesPassThrough) {
  EXPECT_EQ(resolveJobs(1), 1u);
  EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(ResolveJobs, ZeroMeansHardwareConcurrencyAndNeverLessThanOne) {
  unsigned Resolved = resolveJobs(0);
  EXPECT_GE(Resolved, 1u);
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw > 0) {
    EXPECT_EQ(Resolved, Hw);
  }
}

namespace {

/// Sets HALO_JOBS for one test and restores the previous state after.
struct ScopedHaloJobs {
  explicit ScopedHaloJobs(const char *Value) {
    const char *Old = ::getenv("HALO_JOBS");
    if (Old)
      Saved = Old;
    if (Value)
      ::setenv("HALO_JOBS", Value, 1);
    else
      ::unsetenv("HALO_JOBS");
  }
  ~ScopedHaloJobs() {
    if (Saved)
      ::setenv("HALO_JOBS", Saved->c_str(), 1);
    else
      ::unsetenv("HALO_JOBS");
  }
  std::optional<std::string> Saved;
};

} // namespace

TEST(ResolveJobs, EnvFallbackUsedOnlyWhenJobsIsZero) {
  ScopedHaloJobs Env("3");
  EXPECT_EQ(resolveJobs(0), 3u);
  // An explicit request always wins over the environment.
  EXPECT_EQ(resolveJobs(2), 2u);
}

TEST(ResolveJobs, EnvZeroMeansHardwareConcurrency) {
  ScopedHaloJobs Env("0");
  EXPECT_EQ(resolveJobs(0), resolveJobs(0));
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw > 0) {
    EXPECT_EQ(resolveJobs(0), Hw);
  }
  EXPECT_GE(resolveJobs(0), 1u);
}

TEST(ResolveJobs, MalformedEnvIsAnErrorNotAGuess) {
  // Strict parse: anything but a plain decimal worker count throws, so a
  // typo'd HALO_JOBS can never silently serialise (or oversubscribe) an
  // evaluation run.
  for (const char *Bad : {"", "two", "4x", " 4", "4 ", "-1", "1e3",
                          "99999999999999999999"}) {
    ScopedHaloJobs Env(Bad);
    EXPECT_THROW(resolveJobs(0), std::invalid_argument) << "'" << Bad << "'";
    // Explicit jobs bypass the env entirely, so they still work.
    EXPECT_EQ(resolveJobs(5), 5u) << "'" << Bad << "'";
  }
}

TEST(Executor, ReportsItsWorkerCount) {
  EXPECT_EQ(Executor(1).workers(), 1u);
  EXPECT_EQ(Executor(4).workers(), 4u);
  EXPECT_EQ(Executor(0).workers(), resolveJobs(0));
}

TEST(Executor, EveryIndexRunsExactlyOnceIntoItsSlot) {
  for (int Jobs : {1, 2, 4, 8}) {
    Executor Pool(Jobs);
    std::vector<uint64_t> Slots(100, 0);
    std::vector<std::atomic<int>> Counts(100);
    Pool.parallelFor(Slots.size(), [&](size_t I) {
      Slots[I] = I * I + 1;
      Counts[I].fetch_add(1);
    });
    for (size_t I = 0; I < Slots.size(); ++I) {
      EXPECT_EQ(Slots[I], I * I + 1) << "jobs=" << Jobs << " slot " << I;
      EXPECT_EQ(Counts[I].load(), 1) << "jobs=" << Jobs << " slot " << I;
    }
  }
}

TEST(Executor, ParallelSlotsMatchSerialBitForBit) {
  auto Fill = [](Executor &Pool, std::vector<double> &Out) {
    Pool.parallelFor(Out.size(), [&](size_t I) {
      Out[I] = static_cast<double>(I) * 0.75 + 1.0 / (I + 1);
    });
  };
  Executor Serial(1), Parallel(4);
  std::vector<double> A(257), B(257);
  Fill(Serial, A);
  Fill(Parallel, B);
  EXPECT_EQ(A, B);
}

TEST(Executor, JobsOneRunsInlineOnTheCallingThread) {
  Executor Pool(1);
  const std::thread::id Caller = std::this_thread::get_id();
  bool AllInline = true;
  Pool.parallelFor(16, [&](size_t) {
    if (std::this_thread::get_id() != Caller)
      AllInline = false;
  });
  EXPECT_TRUE(AllInline);
}

TEST(Executor, CountZeroIsANoOp) {
  Executor Pool(4);
  bool Ran = false;
  Pool.parallelFor(0, [&](size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(Executor, MoreTasksThanWorkersAndViceVersa) {
  Executor Pool(3);
  std::atomic<int> Ran{0};
  Pool.parallelFor(1000, [&](size_t) { Ran.fetch_add(1); });
  EXPECT_EQ(Ran.load(), 1000);
  Ran = 0;
  Pool.parallelFor(2, [&](size_t) { Ran.fetch_add(1); }); // Fewer than pool.
  EXPECT_EQ(Ran.load(), 2);
}

TEST(Executor, ExceptionsPropagateAndThePoolStaysUsable) {
  for (int Jobs : {1, 4}) {
    Executor Pool(Jobs);
    EXPECT_THROW(Pool.parallelFor(32,
                                  [&](size_t I) {
                                    if (I == 7)
                                      throw std::runtime_error("task 7");
                                  }),
                 std::runtime_error) << "jobs=" << Jobs;

    // The same pool must still drain a clean batch afterwards.
    std::atomic<int> Ran{0};
    Pool.parallelFor(10, [&](size_t) { Ran.fetch_add(1); });
    EXPECT_EQ(Ran.load(), 10) << "jobs=" << Jobs;
  }
}

TEST(Executor, ReusableAcrossManyBatches) {
  Executor Pool(4);
  uint64_t Total = 0;
  for (int Batch = 0; Batch < 20; ++Batch) {
    std::vector<uint64_t> Out(Batch + 1);
    Pool.parallelFor(Out.size(), [&](size_t I) { Out[I] = I + Batch; });
    Total += std::accumulate(Out.begin(), Out.end(), uint64_t(0));
  }
  EXPECT_GT(Total, 0u);
}

TEST(Executor, ABatchRunsOnAtMostMinWorkersCountThreads) {
  Executor Pool(4);
  for (size_t Count : {2, 3, 100}) {
    std::mutex Mu;
    std::set<std::thread::id> Seen;
    Pool.parallelFor(Count, [&](size_t) {
      std::lock_guard<std::mutex> Lock(Mu);
      Seen.insert(std::this_thread::get_id());
    });
    EXPECT_LE(Seen.size(), std::min<size_t>(4, Count)) << "count " << Count;
  }
}

TEST(Executor, NestedCallsRunTheirOwnBatch) {
  Executor Pool(3);
  std::vector<std::atomic<int>> Counts(4 * 8);
  Pool.parallelFor(4, [&](size_t Outer) {
    Pool.parallelFor(8, [&](size_t Inner) {
      Counts[Outer * 8 + Inner].fetch_add(1);
    });
  });
  for (size_t I = 0; I < Counts.size(); ++I)
    EXPECT_EQ(Counts[I].load(), 1) << "slot " << I;
}
