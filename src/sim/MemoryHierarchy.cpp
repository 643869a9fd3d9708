//===- sim/MemoryHierarchy.cpp - L1D/L2/L3 + TLB stack ---------------------===//

#include "sim/MemoryHierarchy.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

using namespace halo;

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &Config)
    : Config(Config), LineMask(uint64_t(Config.L1.LineSize) - 1),
      L1(Config.L1), L2(Config.L2), L3(Config.L3),
      Dtlb(Config.TlbEntries, Config.TlbWays),
      Limit(std::min({L1.addressLimit(), L2.addressLimit(),
                      L3.addressLimit(), Dtlb.addressLimit()})),
      Pending(new uint64_t[BlockLines]) {}

void MemoryHierarchy::rejectAccess(uint64_t Addr, uint64_t Size) const {
  char Msg[160];
  std::snprintf(Msg, sizeof(Msg),
                "memory hierarchy: access of %llu bytes at 0x%llx reaches "
                "the simulated address limit 0x%llx",
                static_cast<unsigned long long>(Size),
                static_cast<unsigned long long>(Addr),
                static_cast<unsigned long long>(Limit));
  throw std::out_of_range(Msg);
}

void MemoryHierarchy::accessBatch(const MemAccess *Batch, size_t N) {
  for (size_t I = 0; I < N; ++I)
    access(Batch[I].Addr, Batch[I].Size);
}

void MemoryHierarchy::drain() {
  uint64_t *Lines = Pending.get();
  const size_t N = NumPending;
  NumPending = 0;
  for (size_t I = 0; I < N; ++I)
    Dtlb.access(Lines[I]);
  // Each later pass compacts the misses of its level to the block's front
  // (a write never passes the read), and the next level walks only those.
  size_t Misses = 0;
  for (size_t I = 0; I < N; ++I) {
    uint64_t Line = Lines[I];
    Lines[Misses] = Line;
    Misses += !L1.access(Line);
  }
  size_t L2Misses = 0;
  for (size_t I = 0; I < Misses; ++I) {
    uint64_t Line = Lines[I];
    Lines[L2Misses] = Line;
    L2Misses += !L2.access(Line);
  }
  for (size_t I = 0; I < L2Misses; ++I)
    L3.access(Lines[I]);
}

MemoryCounters MemoryHierarchy::counters() {
  drain();
  const LatencyModel &Lat = Config.Latency;
  MemoryCounters C;
  C.Accesses = L1.accesses();
  C.L1Misses = L1.misses();
  C.L2Misses = L2.misses();
  C.L3Misses = L3.misses();
  C.TlbMisses = Dtlb.misses();
  C.StallCycles = C.TlbMisses * Lat.TlbMiss + L1.hits() * Lat.L1Hit +
                  L2.hits() * Lat.L2Hit + L3.hits() * Lat.L3Hit +
                  C.L3Misses * Lat.Memory;
  return C;
}

void MemoryHierarchy::reset() {
  NumPending = 0;
  L1.reset();
  L2.reset();
  L3.reset();
  Dtlb.reset();
}
