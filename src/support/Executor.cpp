//===- support/Executor.cpp - Shared worker pool ----------------------------===//

#include "support/Executor.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

using namespace halo;

namespace {

/// The Executor whose batch the current thread is draining, if any. The
/// batch bookkeeping (Fn/Count/Next/Working) is a per-batch singleton, so
/// a task calling back into its own Executor must not dispatch a second
/// batch; parallelFor consults this to run such nested loops inline.
thread_local const Executor *ActiveExecutor = nullptr;

} // namespace

unsigned halo::resolveJobs(int Jobs) {
  if (Jobs > 0)
    return static_cast<unsigned>(Jobs);
  // Explicit --jobs always wins; only the "pick for me" default consults
  // HALO_JOBS. The parse is strict -- all digits, in range -- because a
  // typo silently becoming "hardware concurrency" (or atoi's 0) would be
  // invisible until a daemon sized its one shared pool wrong.
  if (const char *Env = std::getenv("HALO_JOBS")) {
    const std::string Text(Env);
    bool AllDigits = !Text.empty();
    for (char C : Text)
      if (!std::isdigit(static_cast<unsigned char>(C)))
        AllDigits = false;
    unsigned long Parsed = AllDigits ? std::strtoul(Text.c_str(), nullptr, 10)
                                     : 0;
    if (!AllDigits || Parsed > static_cast<unsigned long>(1u << 20))
      throw std::invalid_argument(
          "HALO_JOBS must be a worker count (0 = hardware concurrency), "
          "got '" + Text + "'");
    if (Parsed > 0)
      return static_cast<unsigned>(Parsed);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Executor::Executor(int Jobs) : NumWorkers(resolveJobs(Jobs)) {}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stop = true;
  }
  WorkReady.notify_all();
  for (std::thread &Worker : Threads)
    Worker.join();
}

void Executor::parallelFor(size_t TaskCount,
                           const std::function<void(size_t)> &TaskFn) {
  if (TaskCount == 0)
    return;
  if (ActiveExecutor == this) {
    // Re-entrant call from inside one of this pool's own tasks: run the
    // nested loop inline on this thread. Same ascending order, same
    // exception behaviour as the serial path.
    for (size_t I = 0; I < TaskCount; ++I)
      TaskFn(I);
    return;
  }
  if (NumWorkers == 1 || TaskCount == 1) {
    // Serial reference path: exceptions propagate straight to the caller.
    // A one-task batch runs here too: the pool could add no parallelism.
    for (size_t I = 0; I < TaskCount; ++I)
      TaskFn(I);
    return;
  }
  // Workers start with the first batch that can use them, so a process
  // whose batches are all single tasks (a 1x1x1 plan) stays one thread
  // and keeps the C library's single-threaded fast paths.
  if (Threads.empty()) {
    Threads.reserve(NumWorkers - 1);
    for (unsigned J = 1; J < NumWorkers; ++J)
      Threads.emplace_back([this] { workerMain(); });
  }

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Fn = &TaskFn;
    Count = TaskCount;
    Next = 0;
    Working = Threads.size();
    FirstError = nullptr;
    ++Generation;
  }
  WorkReady.notify_all();

  drainTasks();

  // The caller ran out of tasks; wait for every pool thread to finish the
  // batch (each must observe the generation once, even if it claimed no
  // index -- that is what makes the pool reusable for the next batch).
  std::unique_lock<std::mutex> Lock(Mutex);
  BatchDone.wait(Lock, [this] { return Working == 0; });
  Fn = nullptr;
  if (FirstError)
    std::rethrow_exception(std::exchange(FirstError, nullptr));
}

void Executor::drainTasks() {
  const Executor *Outer = ActiveExecutor;
  ActiveExecutor = this;
  for (;;) {
    size_t Index;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Next >= Count)
        break;
      Index = Next++;
    }
    try {
      (*Fn)(Index);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (!FirstError)
        FirstError = std::current_exception();
      Next = Count; // Abandon unclaimed indices; in-flight ones finish.
    }
  }
  ActiveExecutor = Outer;
}

void Executor::workerMain() {
  uint64_t SeenGeneration = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkReady.wait(Lock, [&] {
        return Stop || Generation != SeenGeneration;
      });
      if (Stop)
        return;
      SeenGeneration = Generation;
    }
    drainTasks();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Working > 0)
        continue;
    }
    BatchDone.notify_one();
  }
}
