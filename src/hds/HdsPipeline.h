//===- hds/HdsPipeline.h - Hot-data-streams pipeline ------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comparison technique of Section 5.1: hot-data-stream-based
/// co-allocation [11], replicated end to end. It shares HALO's live-object
/// tracking and specialised allocator, but derives groups from
/// SEQUITUR-compressed streams of the object-level reference trace and
/// identifies them at runtime by the immediate call site of the allocation
/// procedure -- the fixed-size context that Section 5.2 shows failing on
/// wrapper-function and deep-abstraction programs.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_HDS_HDSPIPELINE_H
#define HALO_HDS_HDSPIPELINE_H

#include "core/GroupAllocator.h"
#include "hds/CoAllocation.h"
#include "hds/HotStreams.h"
#include "profile/LiveObjectMap.h"
#include "runtime/Runtime.h"
#include "sim/Machine.h"

#include <functional>
#include <vector>

namespace halo {

class EventTrace;
class BinaryWriter;
class BinaryReader;

struct HdsParameters {
  HotStreamOptions Streams;
  CoAllocationOptions CoAllocation;
  GroupAllocatorOptions Allocator;
};

/// HDS's profiler: records the object-level data reference trace (every
/// access to a live heap object, consecutive accesses to one object merged)
/// and nothing else -- no shadow stack, contexts or affinity analysis, as
/// co-allocation sets read only the trace and each object's size and
/// malloc site.
class ReferenceTraceRecorder final : public RuntimeObserver {
public:
  void onAlloc(uint64_t Addr, uint64_t Size, CallSiteId MallocSite) override;
  void onFree(uint64_t Addr) override;
  void onAccess(uint64_t Addr, uint64_t Size, bool IsStore) override;

  /// All object metadata, indexed by ObjectId (no contexts: Ctx is unset).
  const LiveObjectMap &objects() const { return Objects; }
  /// The reference trace, as object ids.
  const std::vector<ObjectId> &trace() const { return Trace; }

private:
  LiveObjectMap Objects;
  std::vector<ObjectId> Trace;
};

struct HdsArtifacts {
  HotStreamAnalysis Analysis;
  std::vector<CoAllocationSet> Groups;
  std::unordered_map<uint32_t, uint32_t> SiteToGroup;
};

/// Profiles \p RunWorkload, served by the id-encoding RecordingArena as in
/// HALO's pipeline, and derives the hot-data-streams placement
/// policy (groups of malloc call sites). \p Machine supplies the profiling
/// runtime's cost model; like HALO's pipeline, the artifacts depend only on
/// the event stream, never on the machine.
HdsArtifacts optimizeBinaryHds(const Program &Prog,
                               const std::function<void(Runtime &)> &RunWorkload,
                               const HdsParameters &Params = HdsParameters(),
                               const MachineConfig &Machine = defaultMachine());

/// Same pipeline, driven by a pre-recorded event trace (see the matching
/// optimizeBinary overload): the replay path. The artifacts save to the
/// same bytes as profiling the recorded run directly. Safe to run
/// concurrently with the HALO pipeline on the same trace.
HdsArtifacts optimizeBinaryHds(const Program &Prog, const EventTrace &Trace,
                               const HdsParameters &Params = HdsParameters(),
                               const MachineConfig &Machine = defaultMachine());

/// Serializes \p Art (stream analysis + chosen co-allocation sets) behind a
/// versioned header. SiteToGroup is not written: it is siteGroupMap(Groups)
/// by construction, and loadHdsArtifacts re-derives it.
void saveHdsArtifacts(const HdsArtifacts &Art, BinaryWriter &W);

/// Decodes a saveHdsArtifacts() stream; throws SerializationError on bad
/// magic/version or truncation.
HdsArtifacts loadHdsArtifacts(BinaryReader &R);

} // namespace halo

#endif // HALO_HDS_HDSPIPELINE_H
