//===- core/Pipeline.cpp - End-to-end HALO pipeline -------------------------===//

#include "core/Pipeline.h"

#include "profile/RecordingArena.h"
#include "support/BinaryIO.h"
#include "trace/EventTrace.h"

using namespace halo;

HaloArtifacts
halo::optimizeBinary(const Program &Prog, const EventTrace &Trace,
                     const HaloParameters &Params,
                     const MachineConfig &Machine) {
  return optimizeBinary(
      Prog, [&](Runtime &RT) { RT.replay(Trace); }, Params, Machine);
}

HaloArtifacts
halo::optimizeBinary(const Program &Prog,
                     const std::function<void(Runtime &)> &RunWorkload,
                     const HaloParameters &Params,
                     const MachineConfig &Machine) {
  HaloArtifacts Out;

  // Stage 1: profiling (Section 4.1). A profile depends only on which
  // object each access touches and on the allocation order, never on
  // addresses, so the id-encoding arena serves the profiled run and the
  // profiler attributes every access by arithmetic.
  {
    RecordingArena ProfileAlloc;
    Runtime RT(Prog, ProfileAlloc, Machine.Costs);
    HeapProfiler Profiler(Prog, Params.Profile);
    RT.addObserver(&Profiler);
    RunWorkload(RT);
    Out.Graph = Profiler.takeGraph();
    Out.Contexts = std::move(Profiler.contexts());
    Out.ProfiledAccesses = Profiler.totalAccesses();
  }

  // Stage 2: grouping (Section 4.2).
  Out.Groups = buildGroups(Out.Graph, Params.Grouping);

  // Stage 3: identification (Section 4.3).
  Out.Identification = identifyGroups(Out.Groups, Out.Contexts);

  // Stages 4-5: BOLT rewriting and allocator synthesis.
  deriveSelectors(Out, Prog);
  return Out;
}

void halo::deriveSelectors(HaloArtifacts &Art, const Program &Prog) {
  // Stage 4: BOLT rewriting -- instrument the union of selector sites.
  // Bit assignment follows Sites order and mask compilation follows
  // selector order, so equal identification results derive equal plans
  // and masks.
  Art.Plan = InstrumentationPlan(Prog, Art.Identification.Sites);

  // Stage 5: allocator synthesis -- compile selectors to state masks.
  Art.CompiledSelectors.clear();
  Art.CompiledSelectors.reserve(Art.Identification.Selectors.size());
  for (const Selector &Sel : Art.Identification.Selectors)
    Art.CompiledSelectors.push_back(compileSelector(Sel, Art.Plan));
}

std::string HaloArtifacts::groupsAsDot(const Program &Prog,
                                       uint64_t MinEdgeWeight) const {
  std::vector<std::string> Labels;
  std::vector<int> GroupOf;
  for (ContextId C = 0; C < Contexts.size(); ++C) {
    Labels.push_back(Contexts.describe(C, Prog));
    GroupOf.push_back(-1);
  }
  for (size_t G = 0; G < Groups.size(); ++G)
    for (GraphNodeId Member : Groups[G].Members)
      GroupOf[Member] = static_cast<int>(G);
  return Graph.toDot(Labels, GroupOf, MinEdgeWeight);
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {
/// "HART": HALO artifact bundle.
constexpr uint32_t HaloArtifactMagic = 0x54524148;
constexpr uint32_t HaloArtifactVersion = 1;
} // namespace

void halo::saveHaloArtifacts(const HaloArtifacts &Art, BinaryWriter &W) {
  W.u32(HaloArtifactMagic);
  W.u32(HaloArtifactVersion);
  Art.Contexts.save(W);
  Art.Graph.save(W);
  saveGroups(Art.Groups, W);
  saveIdentification(Art.Identification, W);
  W.varint(Art.ProfiledAccesses);
}

HaloArtifacts halo::loadHaloArtifacts(BinaryReader &R, const Program &Prog) {
  if (R.u32() != HaloArtifactMagic)
    throw SerializationError("halo artifacts: bad magic");
  uint32_t Version = R.u32();
  if (Version != HaloArtifactVersion)
    throw SerializationError("halo artifacts: unknown format version " +
                             std::to_string(Version));
  HaloArtifacts Art;
  Art.Contexts = ContextTable::load(R);
  Art.Graph = AffinityGraph::load(R);
  Art.Groups = loadGroups(R);
  Art.Identification = loadIdentification(R);
  Art.ProfiledAccesses = R.varint();
  // A checksummed bundle can still name what Prog or the bundle lacks.
  // deriveSelectors indexes by every identified site and compiles only
  // identified selector sites; groupsAsDot indexes by every group member.
  std::vector<bool> Identified(Prog.numCallSites(), false);
  for (CallSiteId Site : Art.Identification.Sites) {
    if (Site >= Prog.numCallSites())
      throw SerializationError("halo artifacts: unknown identified site");
    Identified[Site] = true;
  }
  for (const Selector &Sel : Art.Identification.Selectors)
    for (const Conjunction &Term : Sel.Terms)
      for (CallSiteId Site : Term.Sites)
        if (Site >= Prog.numCallSites() || !Identified[Site])
          throw SerializationError("halo artifacts: unidentified selector site");
  for (const Group &G : Art.Groups)
    for (GraphNodeId Member : G.Members)
      if (Member >= Art.Contexts.size())
        throw SerializationError("halo artifacts: group member past the "
                                 "context table");
  // Rebuild the derived members exactly as optimizeBinary does, so they
  // are identical to the saved run's.
  deriveSelectors(Art, Prog);
  return Art;
}
