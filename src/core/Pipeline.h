//===- core/Pipeline.h - End-to-end HALO pipeline ---------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full optimisation pipeline of Figure 4: Profiling -> Grouping ->
/// Identification -> BOLT rewriting -> specialised-allocator synthesis.
/// optimizeBinary() profiles a training run of the target program (the
/// paper profiles small test inputs), derives allocation groups and
/// selectors, and returns everything needed to execute the optimised
/// binary: the instrumentation plan and the compiled selectors that drive
/// a SelectorGroupPolicy + GroupAllocator at measurement time.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_CORE_PIPELINE_H
#define HALO_CORE_PIPELINE_H

#include "core/GroupAllocator.h"
#include "graph/AffinityGraph.h"
#include "group/Grouping.h"
#include "identify/Identify.h"
#include "profile/HeapProfiler.h"
#include "runtime/Runtime.h"
#include "sim/Machine.h"

#include <functional>
#include <string>
#include <vector>

namespace halo {

class EventTrace;

/// All tunables of the pipeline (defaults follow Section 5.1).
struct HaloParameters {
  ProfileOptions Profile;
  GroupingOptions Grouping;
  GroupAllocatorOptions Allocator;
};

/// Everything the pipeline produces for one target program.
struct HaloArtifacts {
  ContextTable Contexts;
  AffinityGraph Graph;
  std::vector<Group> Groups;
  IdentificationResult Identification;
  InstrumentationPlan Plan;
  std::vector<CompiledSelector> CompiledSelectors;
  uint64_t ProfiledAccesses = 0;

  /// Renders the grouped affinity graph as DOT (Figure 9 style).
  std::string groupsAsDot(const Program &Prog,
                          uint64_t MinEdgeWeight = 0) const;
};

/// Runs the whole pipeline. \p RunWorkload executes the target program's
/// profiling workload against the runtime it is handed (the paper uses the
/// small test inputs for this); the runtime is served by the id-encoding
/// RecordingArena, since a profile reads no address, and wired to the heap
/// profiler, standing in for the Pin tool. \p Machine supplies
/// the profiling runtime's cost model; the artifacts themselves depend only
/// on the event stream, never on the machine, so one pipeline run serves
/// measurements on every machine.
HaloArtifacts optimizeBinary(const Program &Prog,
                             const std::function<void(Runtime &)> &RunWorkload,
                             const HaloParameters &Params = HaloParameters(),
                             const MachineConfig &Machine = defaultMachine());

/// Same pipeline, driven by a pre-recorded event trace instead of
/// re-executing the workload: the replay path. The profiling stage replays
/// \p Trace into the heap profiler, producing artifacts bit-identical to
/// profiling the recorded run directly (plans use the overload above).
/// One recording can feed both the HALO and hot-data-streams pipelines;
/// the two share no mutable state and may run concurrently.
HaloArtifacts optimizeBinary(const Program &Prog, const EventTrace &Trace,
                             const HaloParameters &Params = HaloParameters(),
                             const MachineConfig &Machine = defaultMachine());

/// Stages 4-5 of the pipeline: derives \p Art's instrumentation plan and
/// compiled selectors from its identification result against \p Prog,
/// replacing any it held. optimizeBinary and loadHaloArtifacts both end
/// here, and a caller that swaps in groups of its own (re-identified with
/// identifyGroups) calls it to get a measurable bundle.
void deriveSelectors(HaloArtifacts &Art, const Program &Prog);

/// Serializes the machine-independent core of \p Art (contexts, graph,
/// groups, identification, profiled-access count) behind a versioned
/// header. The instrumentation plan and compiled selectors are *not*
/// written: both are deterministic functions of the identification result
/// and the program, and loadHaloArtifacts rebuilds them, so a loaded
/// artifact drives measurement bit-identically to a freshly derived one.
void saveHaloArtifacts(const HaloArtifacts &Art, BinaryWriter &W);

/// Decodes a saveHaloArtifacts() stream and rebuilds the derived members
/// against \p Prog. Throws SerializationError on bad magic/version,
/// truncation, or internal inconsistency.
HaloArtifacts loadHaloArtifacts(BinaryReader &R, const Program &Prog);

} // namespace halo

#endif // HALO_CORE_PIPELINE_H
