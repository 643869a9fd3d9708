//===- sim/MemoryHierarchy.cpp - L1D/L2/L3 + TLB stack ---------------------===//

#include "sim/MemoryHierarchy.h"

using namespace halo;

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &Config)
    : Config(Config), LineMask(uint64_t(Config.L1.LineSize) - 1),
      L1(Config.L1), L2(Config.L2), L3(Config.L3),
      Dtlb(Config.TlbEntries, Config.TlbWays) {}

uint64_t MemoryHierarchy::access(uint64_t Addr, uint64_t Size) {
  uint64_t First = Addr & ~LineMask;
  uint64_t Last = (Addr + (Size ? Size : 1) - 1) & ~LineMask;
  if (First == Last) // Overwhelmingly common: the access fits one line.
    return accessLine(First);
  return accessSpan(First, Last);
}

uint64_t MemoryHierarchy::accessLine(uint64_t LineAddr) {
  bool TlbHit = Dtlb.mruHit(LineAddr);
  if (TlbHit && L1.mruHit(LineAddr)) {
    Stalls += Config.Latency.L1Hit;
    return Config.Latency.L1Hit;
  }
  return accessLineSlow(LineAddr, TlbHit);
}

uint64_t MemoryHierarchy::accessBatch(const MemAccess *Batch, size_t N) {
  // The lookahead is what the batch form enables: the simulator's own
  // stalls come from its set metadata (megabytes of tag array for the
  // L3) missing the *host* caches, so each iteration prefetches the L3
  // set a few accesses ahead and the walks overlap. The smaller levels
  // stay host-resident on their own and a hint for them costs more than
  // it hides. Prefetching changes no simulated state: counters remain
  // bit-identical to per-access calls.
  constexpr size_t Lookahead = 8;
  uint64_t Cycles = 0;
  for (size_t I = 0; I < N; ++I) {
    if (I + Lookahead < N)
      L3.prefetchSet(Batch[I + Lookahead].Addr);
    // access() is defined above in this TU and inlines here: the batch
    // loop and the per-call path share one definition of an access.
    Cycles += access(Batch[I].Addr, Batch[I].Size);
  }
  return Cycles;
}

uint64_t MemoryHierarchy::accessSpan(uint64_t First, uint64_t Last) {
  uint64_t Line = Config.L1.LineSize;
  uint64_t Cycles = 0;
  for (uint64_t LineAddr = First;; LineAddr += Line) {
    Cycles += accessLine(LineAddr);
    if (LineAddr == Last)
      break;
  }
  return Cycles;
}

uint64_t MemoryHierarchy::accessLineSlow(uint64_t LineAddr, bool TlbDone) {
  const LatencyModel &Lat = Config.Latency;
  uint64_t Cycles = 0;
  bool L1Hit;
  if (TlbDone) {
    // The fused fast path already committed the TLB hit and found the L1
    // MRU way cold; finish the L1 access with the scan alone.
    L1Hit = L1.accessSlow(LineAddr);
  } else {
    if (!Dtlb.accessSlow(LineAddr))
      Cycles += Lat.TlbMiss;
    L1Hit = L1.access(LineAddr);
  }
  if (L1Hit)
    Cycles += Lat.L1Hit;
  else if (L2.access(LineAddr))
    Cycles += Lat.L2Hit;
  else if (L3.access(LineAddr))
    Cycles += Lat.L3Hit;
  else
    Cycles += Lat.Memory;
  Stalls += Cycles;
  return Cycles;
}

MemoryCounters MemoryHierarchy::counters() const {
  MemoryCounters C;
  C.Accesses = L1.accesses();
  C.L1Misses = L1.misses();
  C.L2Misses = L2.misses();
  C.L3Misses = L3.misses();
  C.TlbMisses = Dtlb.misses();
  C.StallCycles = Stalls;
  return C;
}

void MemoryHierarchy::reset() {
  L1.reset();
  L2.reset();
  L3.reset();
  Dtlb.reset();
  Stalls = 0;
}
