//===- runtime/Runtime.cpp - Instrumented execution environment ------------===//

#include "runtime/Runtime.h"

#include "trace/EventTrace.h"

#include <algorithm>
#include <cassert>

using namespace halo;

RuntimeObserver::~RuntimeObserver() = default;
void RuntimeObserver::onCall(CallSiteId) {}
void RuntimeObserver::onReturn(CallSiteId) {}
void RuntimeObserver::onAlloc(uint64_t, uint64_t, CallSiteId) {}
void RuntimeObserver::onFree(uint64_t) {}
void RuntimeObserver::onAccess(uint64_t, uint64_t, bool) {}
void RuntimeObserver::onCompute(uint64_t) {}
void RuntimeObserver::onReallocBegin(uint64_t, uint64_t, CallSiteId) {}
void RuntimeObserver::onReallocEnd(uint64_t) {}

void RuntimeObserver::onAccessBatch(const MemAccess *Batch, size_t N) {
  for (size_t I = 0; I < N; ++I)
    onAccess(Batch[I].Addr, Batch[I].Size, Batch[I].IsStore);
}

Runtime::Runtime(const Program &Prog, Allocator &Alloc)
    : Prog(Prog), Alloc(&Alloc) {}

Runtime::Runtime(const Program &Prog, Allocator &Alloc, const CostModel &Costs)
    : Prog(Prog), Alloc(&Alloc), Timing(Costs) {}

void Runtime::setInstrumentation(const InstrumentationPlan *NewPlan) {
  assert(Stack.empty() && "cannot swap binaries mid-run");
  Plan = NewPlan;
  State.resize(Plan ? Plan->numBits() : 0);
}

void Runtime::addObserver(RuntimeObserver *Observer) {
  assert(Observer && "null observer");
  Observers.push_back(Observer);
}

void Runtime::notifyAccess(uint64_t Addr, uint64_t Size, bool IsStore) {
  for (RuntimeObserver *Obs : Observers)
    Obs->onAccess(Addr, Size, IsStore);
}

void Runtime::enter(CallSiteId Site) {
  assert(Site < Prog.numCallSites() && "unknown call site");
  ++Stats.Calls;
  int32_t Bit = Plan ? Plan->bitFor(Site) : -1;
  if (Bit >= 0) {
    State.set(static_cast<uint32_t>(Bit));
    Timing.addInstrumentationOp();
  }
  Stack.push_back(FrameRecord{Site, Bit});
  for (RuntimeObserver *Obs : Observers)
    Obs->onCall(Site);
}

void Runtime::leave() {
  assert(!Stack.empty() && "leave without enter");
  FrameRecord Frame = Stack.back();
  Stack.pop_back();
  if (Frame.Bit >= 0) {
    // Naive straight-line unset, exactly as the inserted code behaves: a
    // recursive inner return clears the bit even if an outer activation of
    // the same site is still live.
    State.unset(static_cast<uint32_t>(Frame.Bit));
    Timing.addInstrumentationOp();
  }
  for (RuntimeObserver *Obs : Observers)
    Obs->onReturn(Frame.Site);
}

uint64_t Runtime::malloc(uint64_t Size, CallSiteId MallocSite) {
  assert(Prog.isMallocSite(MallocSite) &&
         "allocation must go through a malloc call site");
  // The BOLT pass may instrument the malloc call site itself; the inserted
  // code sets the bit before the call, so the allocator observes it set.
  int32_t Bit = Plan ? Plan->bitFor(MallocSite) : -1;
  if (Bit >= 0) {
    State.set(static_cast<uint32_t>(Bit));
    Timing.addInstrumentationOp();
  }
  uint64_t Addr = Alloc->allocate(AllocRequest{Size, MallocSite});
  if (Bit >= 0) {
    State.unset(static_cast<uint32_t>(Bit));
    Timing.addInstrumentationOp();
  }
  Timing.addAllocatorCall();
  ++Stats.Allocs;
  for (RuntimeObserver *Obs : Observers)
    Obs->onAlloc(Addr, Size, MallocSite);
  return Addr;
}

uint64_t Runtime::calloc(uint64_t Count, uint64_t Size,
                         CallSiteId MallocSite) {
  uint64_t Total = Count * Size;
  uint64_t Addr = malloc(Total, MallocSite);
  if (Total > 0 && Total < 4096)
    store(Addr, Total);
  return Addr;
}

uint64_t Runtime::realloc(uint64_t Addr, uint64_t NewSize,
                          CallSiteId MallocSite) {
  if (Addr == 0)
    return malloc(NewSize, MallocSite);
  for (RuntimeObserver *Obs : Observers)
    Obs->onReallocBegin(Addr, NewSize, MallocSite);
  uint64_t CopyBytes = std::min(Alloc->usableSize(Addr), NewSize);
  uint64_t NewAddr = malloc(NewSize, MallocSite);
  for (uint64_t Off = 0; Off < CopyBytes; Off += 64) {
    uint64_t Span = std::min<uint64_t>(64, CopyBytes - Off);
    load(Addr + Off, Span);
    store(NewAddr + Off, Span);
  }
  free(Addr);
  for (RuntimeObserver *Obs : Observers)
    Obs->onReallocEnd(NewAddr);
  return NewAddr;
}

void Runtime::free(uint64_t Addr) {
  if (Addr == 0)
    return;
  for (RuntimeObserver *Obs : Observers)
    Obs->onFree(Addr);
  Alloc->deallocate(Addr);
  Timing.addAllocatorCall();
  ++Stats.Frees;
}

void Runtime::replay(const EventTrace &Trace) {
  // The object table: the Nth minted object's address under this
  // runtime's allocator. Frees leave entries stale, exactly like a freed
  // pointer; the recorder never emits accesses through them.
  std::vector<uint64_t> ObjAddr;
  ObjAddr.reserve(Trace.numObjects());
  constexpr size_t ChunkRecords = 256;
  TraceEvent Chunk[ChunkRecords] = {};
  EventTrace::Cursor Cur = Trace.cursor();
  while (size_t N = Cur.fill(Chunk, ChunkRecords)) {
    for (size_t I = 0; I < N; ++I) {
      const TraceEvent &E = Chunk[I];
      switch (E.Op) {
      case TraceOp::Call:
        enter(static_cast<CallSiteId>(E.A));
        break;
      case TraceOp::Return:
        leave();
        break;
      case TraceOp::Alloc:
        ObjAddr.push_back(malloc(E.B, static_cast<CallSiteId>(E.A)));
        break;
      case TraceOp::Free:
        free(ObjAddr[E.A]);
        break;
      case TraceOp::Load:
        load(ObjAddr[E.A] + E.B, E.C);
        break;
      case TraceOp::Store:
        store(ObjAddr[E.A] + E.B, E.C);
        break;
      case TraceOp::LoadBase:
        load(ObjAddr[E.A], E.B);
        break;
      case TraceOp::StoreBase:
        store(ObjAddr[E.A], E.B);
        break;
      case TraceOp::LoadRaw:
        load(E.A, E.B);
        break;
      case TraceOp::StoreRaw:
        store(E.A, E.B);
        break;
      case TraceOp::Compute:
        compute(E.A);
        break;
      case TraceOp::Realloc: // old object id, site, new size.
        ObjAddr.push_back(
            realloc(ObjAddr[E.A], E.C, static_cast<CallSiteId>(E.B)));
        break;
      }
    }
  }
}
