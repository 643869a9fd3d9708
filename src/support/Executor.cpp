//===- support/Executor.cpp - Shared worker pool ----------------------------===//

#include "support/Executor.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace halo;

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

void Executor::parallelFor(size_t Count,
                           const std::function<void(size_t)> &Fn) {
  const size_t NumThreads = std::min<size_t>(NumWorkers, Count);
  if (NumThreads <= 1) {
    // Serial reference path: exceptions propagate straight to the caller.
    // A one-task batch runs here too, so a 1x1x1 plan stays one thread
    // and keeps the C library's single-threaded fast paths.
    for (size_t I = 0; I < Count; ++I)
      Fn(I);
    return;
  }
  std::mutex Mutex; // Guards Next and FirstError.
  size_t Next = 0;  // The next unclaimed index.
  std::exception_ptr FirstError;
  auto Fail = [&](std::exception_ptr Error) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!FirstError)
      FirstError = std::move(Error);
    Next = Count; // Abandon unclaimed indices; in-flight ones finish.
  };
  auto Drain = [&] {
    for (;;) {
      size_t Index;
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        if (Next >= Count)
          return;
        Index = Next++;
      }
      try {
        Fn(Index);
      } catch (...) {
        Fail(std::current_exception());
      }
    }
  };
  std::vector<std::thread> Threads;
  try {
    Threads.reserve(NumThreads - 1);
    while (Threads.size() + 1 < NumThreads)
      Threads.emplace_back(Drain);
  } catch (...) {
    Fail(std::current_exception());
  }
  Drain();
  for (std::thread &Worker : Threads)
    Worker.join();
  if (FirstError)
    std::rethrow_exception(FirstError);
}
