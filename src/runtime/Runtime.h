//===- runtime/Runtime.h - Instrumented execution environment --*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumented virtual runtime workloads execute against. It plays two
/// roles from the paper at once, selected by how it is wired up:
///
///   * During *profiling* it is the Pin tool's event source: every call,
///     return, allocation and memory access is reported to the attached
///     observers (profile/HeapProfiler.h builds the affinity graph from
///     them). Section 4.1 notes this can slow execution by up to 500x on
///     real hardware; here it is just another observer.
///   * During *measurement* it executes the BOLT-rewritten binary: if an
///     InstrumentationPlan is attached, calls through instrumented sites
///     set/unset group-state bits (costed by the timing model), and loads/
///     stores drive the cache hierarchy to produce miss counts and cycles.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_RUNTIME_RUNTIME_H
#define HALO_RUNTIME_RUNTIME_H

#include "mem/Allocator.h"
#include "prog/GroupStateVector.h"
#include "prog/Instrumentation.h"
#include "prog/Program.h"
#include "sim/MemoryHierarchy.h"
#include "sim/TimingModel.h"

#include <cstdint>
#include <vector>

namespace halo {

class EventTrace;

/// Receives the raw event stream of a run (the Pin-tool role). Each
/// observer handles an access in one place, onAccess.
class RuntimeObserver {
public:
  virtual ~RuntimeObserver();
  virtual void onCall(CallSiteId Site);
  virtual void onReturn(CallSiteId Site);
  virtual void onAlloc(uint64_t Addr, uint64_t Size, CallSiteId MallocSite);
  virtual void onFree(uint64_t Addr);
  virtual void onAccess(uint64_t Addr, uint64_t Size, bool IsStore);
  /// Pure-compute cycles reported through Runtime::compute (needed by trace
  /// recording; cycle totals are part of a run's metrics).
  virtual void onCompute(uint64_t Cycles);
  /// Trace replay hands observers whole runs of consecutive data accesses
  /// in one call. The default forwards element by element to onAccess.
  virtual void onAccessBatch(const MemAccess *Batch, size_t N);
  /// Brackets a composite realloc (Addr != 0): the primitive alloc, copy
  /// accesses, and free in between belong to the realloc. Observers that
  /// only care about primitives (the profiler) ignore these.
  virtual void onReallocBegin(uint64_t OldAddr, uint64_t NewSize,
                              CallSiteId MallocSite);
  virtual void onReallocEnd(uint64_t NewAddr);
};

/// Aggregate event counters for a run.
struct RuntimeStats {
  uint64_t Calls = 0;
  uint64_t Allocs = 0;
  uint64_t Frees = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
};

/// The virtual machine a workload runs on.
class Runtime {
public:
  /// \p Alloc serves every allocation of the run; both outlive the runtime.
  /// Timing uses the default machine's cost model (sim/Machine.h).
  Runtime(const Program &Prog, Allocator &Alloc);

  /// Same, but timing runs under \p Costs — the machine model's per-event
  /// costs and clock (allocator calls, instrumentation ops, seconds()).
  Runtime(const Program &Prog, Allocator &Alloc, const CostModel &Costs);

  /// Swaps the serving allocator before a run. This mirrors the paper's
  /// deployment, where the specialised allocator is linked in *after* the
  /// rewritten binary exists: the group allocator needs the runtime's group
  /// state vector, which only exists once the runtime does.
  void setAllocator(Allocator &NewAlloc) { Alloc = &NewAlloc; }

  /// Attaches the BOLT-rewritten binary's instrumentation (may be null to
  /// run the original binary). Resizes the group state vector.
  void setInstrumentation(const InstrumentationPlan *Plan);

  /// Attaches the cache hierarchy that loads/stores should exercise (null
  /// for profiling runs where only the event stream matters). Its stall
  /// cycles become timing()'s memory cycles.
  void setMemory(MemoryHierarchy *Hierarchy) {
    Memory = Hierarchy;
    Timing.setMemory(Hierarchy);
  }

  void addObserver(RuntimeObserver *Observer);

  // -- Control flow ------------------------------------------------------
  /// Simulates a call through \p Site; pair with leave().
  void enter(CallSiteId Site);
  void leave();

  /// RAII call scope.
  class Scope {
  public:
    Scope(Runtime &RT, CallSiteId Site) : RT(RT) { RT.enter(Site); }
    ~Scope() { RT.leave(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Runtime &RT;
  };

  // -- Memory management -------------------------------------------------
  /// malloc(Size) called from \p MallocSite (a call site targeting the
  /// built-in malloc function).
  uint64_t malloc(uint64_t Size, CallSiteId MallocSite);
  /// calloc: allocate and zero (zeroing of sub-page requests is modelled as
  /// stores; page-scale requests arrive as fresh zero pages).
  uint64_t calloc(uint64_t Count, uint64_t Size, CallSiteId MallocSite);
  /// realloc: allocate, copy (modelled as 64-byte strided loads/stores),
  /// free. Addr == 0 degenerates to malloc.
  uint64_t realloc(uint64_t Addr, uint64_t NewSize, CallSiteId MallocSite);
  void free(uint64_t Addr);

  // -- Data accesses and compute -----------------------------------------
  /// load/store are the hottest events of a run; they are inline with a
  /// branch-free-when-unobserved fast path so measurement runs (which
  /// attach no observers) pay nothing for the observer mechanism. The
  /// hierarchy only queues the access's lines (its simulation is deferred
  /// and level-major, sim/MemoryHierarchy.h); no cycles come back per
  /// access, since the hierarchy alone owns the memory cycles.
  void load(uint64_t Addr, uint64_t Size) {
    ++Stats.Loads;
    if (Memory)
      Memory->access(Addr, Size);
    if (!Observers.empty())
      notifyAccess(Addr, Size, /*IsStore=*/false);
  }
  void store(uint64_t Addr, uint64_t Size) {
    ++Stats.Stores;
    if (Memory)
      Memory->access(Addr, Size);
    if (!Observers.empty())
      notifyAccess(Addr, Size, /*IsStore=*/true);
  }
  /// Accounts \p Cycles of pure compute (the non-memory-bound part of the
  /// workload; this is what makes povray/leela compute-bound in the model).
  void compute(uint64_t Cycles) {
    Timing.addCompute(Cycles);
    for (RuntimeObserver *Obs : Observers)
      Obs->onCompute(Cycles);
  }

  // -- Replay ------------------------------------------------------------
  /// Re-executes a recorded event trace on this runtime exactly as the
  /// recorded workload run would have: calls/returns drive instrumentation
  /// and the group state vector, allocations go to the serving allocator
  /// (addresses are re-derived, so any allocator works), accesses drive the
  /// attached memory hierarchy, and composite reallocs re-derive their
  /// allocator-dependent copy traffic. On a fresh runtime the resulting
  /// stats, timing, and memory counters are bit-identical to direct
  /// execution of the recorded workload under the same configuration.
  ///
  /// Execution is batched: decoding (inline over EventTrace::Reader,
  /// fused with object-id-to-address resolution) accumulates runs of
  /// data accesses -- the dominant event shape -- into flat MemAccess
  /// blocks handed to MemoryHierarchy::accessBatch and
  /// RuntimeObserver::onAccessBatch in one call each, with no dispatch
  /// per event. Counters stay bit-identical to per-event execution: batch
  /// boundaries only regroup commutative additions, never reorder
  /// events against their dependencies (see the comment in replay()).
  void replay(const EventTrace &Trace);

  // -- State -------------------------------------------------------------
  const Program &program() const { return Prog; }
  Allocator &allocator() { return *Alloc; }
  GroupStateVector &groupState() { return State; }
  const GroupStateVector &groupState() const { return State; }
  TimingModel &timing() { return Timing; }
  const TimingModel &timing() const { return Timing; }
  const RuntimeStats &stats() const { return Stats; }

  /// The call site at the top of the current (raw) call stack, or InvalidId
  /// at top level. Used by the hot-data-streams allocator, which identifies
  /// allocations by the immediate call site of the allocation procedure.
  CallSiteId currentSite() const {
    return Stack.empty() ? InvalidId : Stack.back().Site;
  }

  uint32_t callDepth() const { return static_cast<uint32_t>(Stack.size()); }

private:
  struct FrameRecord {
    CallSiteId Site;
    int32_t Bit; ///< Group-state bit set on entry, or -1.
  };

  /// Out-of-line observer dispatch for accesses, keeping load() and
  /// store() small.
  void notifyAccess(uint64_t Addr, uint64_t Size, bool IsStore);

  /// Executes one run of consecutive replayed data accesses (of which
  /// \p Stores are stores): event counters, the memory hierarchy (whole
  /// batch), then observers (whole batch).
  void replayAccessRun(const MemAccess *Batch, size_t N, uint64_t Stores);

  /// Replay state: the object table, the pending access batch, and the
  /// strictness policy, which replay() hands to the fused decode loop,
  /// replayRange (defined in Runtime.cpp).
  struct ReplayState;
  void replayRange(ReplayState &St, const uint8_t *Begin, const uint8_t *End);

  const Program &Prog;
  Allocator *Alloc;
  const InstrumentationPlan *Plan = nullptr;
  MemoryHierarchy *Memory = nullptr;
  GroupStateVector State;
  TimingModel Timing;
  RuntimeStats Stats;
  std::vector<FrameRecord> Stack;
  std::vector<RuntimeObserver *> Observers;
};

} // namespace halo

#endif // HALO_RUNTIME_RUNTIME_H
