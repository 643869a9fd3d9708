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
                        const HdsParameters &, const MachineConfig &Machine) {
  return optimizeBinaryHds(
      Prog, [&](Runtime &RT) { RT.replay(Trace); }, HdsParameters(), Machine);
}

HdsArtifacts
halo::optimizeBinaryHds(const Program &Prog,
                        const std::function<void(Runtime &)> &RunWorkload,
                        const HdsParameters &, const MachineConfig &Machine) {
  HdsArtifacts Out;

  // Profiling: the reference trace names objects, never addresses, so the
  // id-encoding arena serves the run, as it does HALO's, and the recorder
  // attributes every access by arithmetic.
  RecordingArena ProfileAlloc;
  Runtime RT(Prog, ProfileAlloc, Machine.Costs);
  ReferenceTraceRecorder Recorder;
  RT.addObserver(&Recorder);
  RunWorkload(RT);

  Out.Analysis = findHotStreams(Recorder.trace());
  Out.Groups = packCoAllocationSets(
      buildCoAllocationSets(Out.Analysis.Streams, Recorder.objects()),
      Out.Analysis.TraceLength);
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

/// SiteToGroup is not written: it is siteGroupMap(Groups) by construction.
constexpr auto HdsLayout = [](auto &C, auto &Art) {
  C.expect(HdsArtifactMagic, "hds artifacts: magic");
  C.expect(HdsArtifactVersion, "hds artifacts: format version");
  C.list(Art.Analysis.Streams, [](auto &C, auto &Stream) {
    C.list(Stream.Elements, IdElement);
    C.varint(Stream.Frequency);
    C.varint(Stream.Heat);
  });
  C.varint(Art.Analysis.TraceLength);
  C.varint(Art.Analysis.GrammarRules);
  C.varint(Art.Analysis.CandidateStreams);
  C.list(Art.Groups, [](auto &C, auto &Set) {
    C.list(Set.Sites, IdElement);
    C.f64(Set.Benefit);
  });
};

} // namespace

void halo::saveHdsArtifacts(const HdsArtifacts &Art, BinaryWriter &W) {
  Encoder E(W);
  HdsLayout(E, Art);
}

HdsArtifacts halo::loadHdsArtifacts(BinaryReader &R) {
  Decoder D(R);
  HdsArtifacts Art;
  HdsLayout(D, Art);
  // Derived exactly as optimizeBinaryHds derives it.
  Art.SiteToGroup = siteGroupMap(Art.Groups);
  return Art;
}
