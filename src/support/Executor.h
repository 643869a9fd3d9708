//===- support/Executor.h - Shared worker pool ------------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one thread-pool implementation in the tree. Every parallel stage of
/// the measurement stack -- trial fan-out, the plan stages under runPlan,
/// and HALO/HDS pipeline materialisation -- routes through an Executor
/// rather than hand-rolled std::thread code, so the concurrency semantics
/// (deterministic task-to-slot ordering, exception propagation, a serial
/// jobs=1 path) are defined in exactly one place.
///
/// Determinism contract: parallelFor(Count, Fn) calls Fn(Index) exactly
/// once for every Index in [0, Count). Tasks are independent by
/// construction -- each writes only its own result slot -- so the filled
/// result vector is bit-identical to a serial loop no matter how many
/// workers ran or how the indices interleaved.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SUPPORT_EXECUTOR_H
#define HALO_SUPPORT_EXECUTOR_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace halo {

/// Resolves a user-facing --jobs value to a worker count: values > 0 are
/// taken as-is; 0 (the "pick for me" default everywhere, including the
/// CLI's --jobs flag) consults $HALO_JOBS -- strictly parsed, all digits,
/// its own 0 meaning hardware concurrency, anything non-numeric a
/// std::invalid_argument -- and falls back to the host's hardware
/// concurrency when it is unset. The result is never less than one. This
/// is the single point that decides what "default jobs" means, so the
/// daemon and the CLI size their pools identically without a flag.
unsigned resolveJobs(int Jobs);

/// A fixed pool of worker threads driving index-based parallel loops.
///
/// The pool holds workers() - 1 threads, started by the first batch of
/// two or more tasks; the calling thread is the final worker, so
/// Executor(1) spawns no threads at all and parallelFor degenerates to an
/// inline serial loop (the deterministic reference the parallel paths are
/// tested against). One Executor may run any number of parallelFor
/// batches; workers persist across them.
class Executor {
public:
  /// \p Jobs as resolveJobs() interprets it.
  explicit Executor(int Jobs = 0);
  ~Executor();

  Executor(const Executor &) = delete;
  Executor &operator=(const Executor &) = delete;

  unsigned workers() const { return NumWorkers; }

  /// Runs Fn(Index) for every Index in [0, Count). Indices are claimed in
  /// ascending order off a shared counter and the call returns only after
  /// all of them finished; a one-task batch runs inline on the caller. If
  /// any task throws, the remaining unclaimed indices are abandoned and
  /// the first captured exception is rethrown here after the batch drains
  /// (the pool stays usable). One batch runs
  /// at a time: a task that calls back into its own Executor gets an
  /// inline serial loop on its thread (the batch bookkeeping is a
  /// per-batch singleton, so nested dispatch cannot share the pool), which
  /// keeps an accidental nested call deadlock-free. Callers fan their
  /// tasks out over one batch rather than nesting pools.
  void parallelFor(size_t Count, const std::function<void(size_t)> &Fn);

private:
  void workerMain();
  /// Claims and runs tasks of the current batch until none remain.
  void drainTasks();

  unsigned NumWorkers = 1;
  std::vector<std::thread> Threads; ///< NumWorkers - 1 pool threads.

  std::mutex Mutex;
  std::condition_variable WorkReady; ///< Signals a new batch (or shutdown).
  std::condition_variable BatchDone; ///< Signals pool threads finished one.
  const std::function<void(size_t)> *Fn = nullptr;
  size_t Count = 0;
  size_t Next = 0;    ///< Next unclaimed index (guarded by Mutex).
  size_t Working = 0; ///< Pool threads still draining the current batch.
  uint64_t Generation = 0;
  std::exception_ptr FirstError;
  bool Stop = false;
};

} // namespace halo

#endif // HALO_SUPPORT_EXECUTOR_H
