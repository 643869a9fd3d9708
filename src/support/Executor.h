//===- support/Executor.h - Shared worker pool ------------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one thread-pool implementation in the tree. Every parallel stage of
/// the measurement stack -- the plan stages under runPlan and the serve
/// daemon's claim loops -- routes through an Executor rather than
/// hand-rolled std::thread code, so the concurrency semantics
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

#include <cstddef>
#include <functional>

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

/// A worker count driving index-based parallel loops.
///
/// Each parallelFor batch runs on min(workers(), Count) threads: the
/// calling thread plus that many minus one started for the batch and
/// joined before it returns. Executor(1), and any one-task batch, runs an
/// inline serial loop on the caller (the deterministic reference the
/// parallel paths are tested against). Batches share no state, so a task
/// that calls back into its own Executor just starts a batch of its own.
class Executor {
public:
  /// \p Jobs as resolveJobs() interprets it.
  explicit Executor(int Jobs = 0);

  unsigned workers() const { return NumWorkers; }

  /// Runs Fn(Index) for every Index in [0, Count). Indices are claimed in
  /// ascending order off a shared counter and the call returns only after
  /// all of them finished. If any task throws, the remaining unclaimed
  /// indices are abandoned and the first captured exception is rethrown
  /// here once every started thread has joined; a thread that cannot be
  /// started fails the batch the same way.
  void parallelFor(size_t Count, const std::function<void(size_t)> &Fn);

private:
  unsigned NumWorkers = 1;
};

} // namespace halo

#endif // HALO_SUPPORT_EXECUTOR_H
