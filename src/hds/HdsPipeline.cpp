//===- hds/HdsPipeline.cpp - Hot-data-streams pipeline ----------------------===//

#include "hds/HdsPipeline.h"

#include "profile/RecordingArena.h"
#include "support/BinaryIO.h"
#include "trace/EventTrace.h"

using namespace halo;

void ReferenceTraceRecorder::onAlloc(uint64_t Addr, uint64_t Size,
                                     CallSiteId MallocSite) {
  Objects.insert(Addr, Size, InvalidId, MallocSite);
}

void ReferenceTraceRecorder::onFree(uint64_t Addr) { Objects.erase(Addr); }

void ReferenceTraceRecorder::onAccess(uint64_t Addr, uint64_t, bool) {
  ObjectId Obj = Objects.find(Addr);
  if (Obj == ~0u)
    return; // Not a (live) heap object: stack/global traffic.
  if (Trace.empty() || Trace.back() != Obj)
    Trace.push_back(Obj);
}

HdsArtifacts
halo::optimizeBinaryHds(const Program &Prog, const EventTrace &Trace,
                        const HdsParameters &Params,
                        const MachineConfig &Machine) {
  return optimizeBinaryHds(
      Prog, [&](Runtime &RT) { RT.replay(Trace); }, Params, Machine);
}

HdsArtifacts
halo::optimizeBinaryHds(const Program &Prog,
                        const std::function<void(Runtime &)> &RunWorkload,
                        const HdsParameters &Params,
                        const MachineConfig &Machine) {
  HdsArtifacts Out;

  // Profiling: the reference trace names objects, never addresses, so the
  // id-encoding arena serves the run, as it does HALO's, and the recorder
  // attributes every access by arithmetic.
  RecordingArena ProfileAlloc;
  Runtime RT(Prog, ProfileAlloc, Machine.Costs);
  ReferenceTraceRecorder Recorder;
  RT.addObserver(&Recorder);
  RunWorkload(RT);

  Out.Analysis = findHotStreams(Recorder.trace(), Params.Streams);
  std::vector<CoAllocationSet> Candidates = buildCoAllocationSets(
      Out.Analysis.Streams, Recorder.objects(), Params.CoAllocation);
  Out.Groups = packCoAllocationSets(std::move(Candidates),
                                    Out.Analysis.TraceLength,
                                    Params.CoAllocation);
  Out.SiteToGroup = siteGroupMap(Out.Groups);
  return Out;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {
/// "HDSA": hot-data-streams artifact bundle.
constexpr uint32_t HdsArtifactMagic = 0x41534448;
constexpr uint32_t HdsArtifactVersion = 1;
} // namespace

void halo::saveHdsArtifacts(const HdsArtifacts &Art, BinaryWriter &W) {
  W.u32(HdsArtifactMagic);
  W.u32(HdsArtifactVersion);
  W.varint(Art.Analysis.Streams.size());
  for (const HotStream &Stream : Art.Analysis.Streams) {
    W.varint(Stream.Elements.size());
    for (uint32_t Element : Stream.Elements)
      W.varint(Element);
    W.varint(Stream.Frequency);
    W.varint(Stream.Heat);
  }
  W.varint(Art.Analysis.TraceLength);
  W.varint(Art.Analysis.GrammarRules);
  W.varint(Art.Analysis.CandidateStreams);
  W.varint(Art.Groups.size());
  for (const CoAllocationSet &Set : Art.Groups) {
    W.varint(Set.Sites.size());
    for (uint32_t Site : Set.Sites)
      W.varint(Site);
    W.f64(Set.Benefit);
  }
}

HdsArtifacts halo::loadHdsArtifacts(BinaryReader &R) {
  if (R.u32() != HdsArtifactMagic)
    throw SerializationError("hds artifacts: bad magic");
  uint32_t Version = R.u32();
  if (Version != HdsArtifactVersion)
    throw SerializationError("hds artifacts: unknown format version " +
                             std::to_string(Version));
  HdsArtifacts Art;
  uint64_t NumStreams = R.count();
  Art.Analysis.Streams.reserve(static_cast<size_t>(NumStreams));
  for (uint64_t I = 0; I < NumStreams; ++I) {
    HotStream Stream;
    uint64_t NumElements = R.count();
    Stream.Elements.reserve(static_cast<size_t>(NumElements));
    for (uint64_t J = 0; J < NumElements; ++J) {
      uint64_t Element = R.varint();
      if (Element > UINT32_MAX)
        throw SerializationError("hds artifacts: element id out of range");
      Stream.Elements.push_back(static_cast<uint32_t>(Element));
    }
    Stream.Frequency = R.varint();
    Stream.Heat = R.varint();
    Art.Analysis.Streams.push_back(std::move(Stream));
  }
  Art.Analysis.TraceLength = R.varint();
  Art.Analysis.GrammarRules = R.varint();
  Art.Analysis.CandidateStreams = R.varint();
  uint64_t NumGroups = R.count();
  Art.Groups.reserve(static_cast<size_t>(NumGroups));
  for (uint64_t I = 0; I < NumGroups; ++I) {
    CoAllocationSet Set;
    uint64_t NumSites = R.count();
    Set.Sites.reserve(static_cast<size_t>(NumSites));
    for (uint64_t J = 0; J < NumSites; ++J) {
      uint64_t Site = R.varint();
      if (Site > UINT32_MAX)
        throw SerializationError("hds artifacts: site id out of range");
      Set.Sites.push_back(static_cast<uint32_t>(Site));
    }
    Set.Benefit = R.f64();
    Art.Groups.push_back(std::move(Set));
  }
  // Derived exactly as optimizeBinaryHds derives it.
  Art.SiteToGroup = siteGroupMap(Art.Groups);
  return Art;
}
