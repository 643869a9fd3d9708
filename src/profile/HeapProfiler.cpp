//===- profile/HeapProfiler.cpp - Pin-tool equivalent ----------------------===//

#include "profile/HeapProfiler.h"

#include <algorithm>
#include <cassert>

using namespace halo;

HeapProfiler::HeapProfiler(const Program &Prog, const ProfileOptions &Options)
    : Prog(Prog), Options(Options), Shadow(Prog),
      Queue(Options.AffinityDistance, Options.Dedup, Options.NoDoubleCount) {}

void HeapProfiler::onCall(CallSiteId Site) { Shadow.onCall(Site); }

void HeapProfiler::onReturn(CallSiteId) { Shadow.onReturn(); }

void HeapProfiler::onAlloc(uint64_t Addr, uint64_t Size,
                           CallSiteId MallocSite) {
  ContextId Ctx = Contexts.intern(Shadow.allocationContext(MallocSite));
  ++Contexts.info(Ctx).Allocations;
  ObjectId Obj = Objects.insert(Addr, Size, Ctx, MallocSite);
  if (Ctx >= LastOfContext.size())
    LastOfContext.resize(Ctx + 1, ~0u);
  ContextNeighbours Mine{0, NoNext};
  if (ObjectId Last = LastOfContext[Ctx]; Last != ~0u) {
    Mine.Prev = Last;
    Neighbours[Last].Next = Obj;
  }
  LastOfContext[Ctx] = Obj;
  assert(Neighbours.size() == Obj && "object ids are dense");
  Neighbours.push_back(Mine);
}

void HeapProfiler::onFree(uint64_t Addr) { Objects.erase(Addr); }

bool HeapProfiler::coAllocatable(ObjectId New, ObjectId Old) const {
  // Co-allocatability: no allocation made chronologically between u and v
  // may originate from either of their contexts; otherwise placing all
  // allocations of the two contexts contiguously in one pool could not
  // have put u and v next to each other. With A the older object and B
  // the newer, the nearest candidates are A's successor within A's
  // context and B's predecessor within B's: some allocation of either
  // context lies strictly between A and B exactly when one of those two
  // does. Object ids are the allocation order.
  ObjectId A = std::min(New, Old);
  ObjectId B = std::max(New, Old);
  return Neighbours[A].Next >= B && Neighbours[B].Prev <= A;
}

void HeapProfiler::onAccess(uint64_t Addr, uint64_t Size, bool) {
  ObjectId Obj = Objects.find(Addr);
  if (Obj == ~0u)
    return; // Not a (live) heap object: stack/global traffic.
  const ObjectRecord &Rec = Objects.record(Obj);

  // The affinity analysis only considers groupable objects.
  if (Rec.Size > MaxGroupedSize)
    return;

  // Visit partners straight off the window (no candidate vector copy). A
  // merged (deduplicated) access extends the previous macro access and
  // contributes nothing further.
  bool NewAccess =
      Queue.access(Obj, Rec.Ctx, Size, [&](const AffinityQueue::Entry &Old) {
        if (Options.CoAllocatability && !coAllocatable(Obj, Old.Object))
          return;
        Graph.addEdgeWeight(Rec.Ctx, Old.Node);
      });
  if (!NewAccess)
    return;
  ++MacroAccesses;
  Graph.addAccesses(Rec.Ctx);
}

AffinityGraph HeapProfiler::takeGraph() {
  assert(!Taken && "takeGraph may only be called once");
  Taken = true;
  Graph.filterColdNodes(NodeCoverage);
  return std::move(Graph);
}
