//===- profile/HeapProfiler.h - Pin-tool equivalent -------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling stage of Section 4.1, playing the role of the paper's
/// custom Pin tool. It observes the runtime's event stream, maintains the
/// shadow stack and live-object map, feeds heap accesses through the
/// affinity queue, and accumulates the pairwise affinity graph under the
/// four constraints (deduplication, no self-affinity, no double counting,
/// co-allocatability). After the run the graph's coldest nodes are filtered
/// so the surviving nodes cover 90% of observed accesses.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PROFILE_HEAPPROFILER_H
#define HALO_PROFILE_HEAPPROFILER_H

#include "graph/AffinityGraph.h"
#include "profile/AffinityQueue.h"
#include "profile/LiveObjectMap.h"
#include "runtime/Runtime.h"
#include "trace/Context.h"
#include "trace/ShadowStack.h"

#include <cstdint>
#include <vector>

namespace halo {

/// Profiling configuration (defaults follow Section 5.1).
struct ProfileOptions {
  /// Affinity distance A in bytes (the paper selects 128 from Fig. 12).
  uint64_t AffinityDistance = 128;
  /// Keep the hottest nodes covering this fraction of accesses.
  double NodeCoverage = 0.9;
  /// Maximum grouped-object size: accesses to larger objects do not enter
  /// the affinity analysis (4 KiB in the evaluation).
  uint64_t MaxObjectSize = 4096;
  /// Constraint toggles for the ablation_constraints row of bench/figures.
  bool Dedup = true;
  bool NoDoubleCount = true;
  bool CoAllocatability = true;
};

/// Builds the affinity graph from a run. The pipelines serve that run from
/// the id-encoding RecordingArena, so LiveObjectMap resolves each access
/// by arithmetic; over any other allocator the profiler works unchanged,
/// through LiveObjectMap's interval map, and builds the same graph.
class HeapProfiler final : public RuntimeObserver {
public:
  HeapProfiler(const Program &Prog, const ProfileOptions &Options);

  // RuntimeObserver interface.
  void onCall(CallSiteId Site) override;
  void onReturn(CallSiteId Site) override;
  void onAlloc(uint64_t Addr, uint64_t Size, CallSiteId MallocSite) override;
  void onFree(uint64_t Addr) override;
  /// Runs once per access of the profiled run: Section 4.1's 500x
  /// profiling slowdown lives on this edge.
  void onAccess(uint64_t Addr, uint64_t Size, bool IsStore) override;

  /// Finalises and returns the affinity graph: cold nodes filtered per
  /// NodeCoverage. Call once, after the profiled run.
  AffinityGraph takeGraph();

  /// The interned contexts (node ids in the graph are ContextIds here).
  const ContextTable &contexts() const { return Contexts; }
  ContextTable &contexts() { return Contexts; }

  /// All object metadata, indexed by ObjectId.
  const LiveObjectMap &objects() const { return Objects; }

  /// Total macro-level heap accesses observed.
  uint64_t totalAccesses() const { return MacroAccesses; }

private:
  bool coAllocatable(ObjectId New, ObjectId Old) const;

  /// An object's allocation-order neighbours within its own context
  /// (object ids are the allocation order): the id of the context's
  /// previous allocation (0 when there is none: 0 never lies above another
  /// object's id, so it never blocks a pair) and of its next one (NoNext
  /// until that allocation happens).
  struct ContextNeighbours {
    ObjectId Prev;
    ObjectId Next;
  };
  static constexpr ObjectId NoNext = ~0u;

  const Program &Prog;
  ProfileOptions Options;
  ShadowStack Shadow;
  ContextTable Contexts;
  LiveObjectMap Objects;
  AffinityQueue Queue;
  AffinityGraph Graph;
  /// By ObjectId: the co-allocatability test's O(1) input.
  std::vector<ContextNeighbours> Neighbours;
  /// By ContextId: the context's latest allocation (~0u before its first).
  std::vector<ObjectId> LastOfContext;
  uint64_t MacroAccesses = 0;
  bool Taken = false;
};

} // namespace halo

#endif // HALO_PROFILE_HEAPPROFILER_H
