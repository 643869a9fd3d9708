//===- hds/CoAllocation.cpp - Co-allocation set selection -------------------===//

#include "hds/CoAllocation.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

using namespace halo;

std::vector<CoAllocationSet>
halo::buildCoAllocationSets(const std::vector<HotStream> &Streams,
                            const LiveObjectMap &Objects) {
  // Accumulate benefit per distinct site set (many streams can suggest the
  // same grouping).
  std::map<std::vector<uint32_t>, double> BySites;
  for (const HotStream &Stream : Streams) {
    std::vector<uint32_t> Sites;
    uint64_t TotalSize = 0;
    double LinesScattered = 0.0;
    std::unordered_set<uint32_t> SeenObjects;
    for (uint32_t Obj : Stream.Elements) {
      if (!SeenObjects.insert(Obj).second)
        continue;
      const ObjectRecord &Rec = Objects.record(Obj);
      Sites.push_back(Rec.ImmediateSite);
      TotalSize += Rec.Size;
      // A scattered object occupies whole lines of its own.
      LinesScattered += static_cast<double>(
          (Rec.Size + CoAllocationLineSize - 1) / CoAllocationLineSize);
    }
    std::sort(Sites.begin(), Sites.end());
    Sites.erase(std::unique(Sites.begin(), Sites.end()), Sites.end());
    if (Sites.empty())
      continue;

    // Projected per-occurrence miss saving: scattered objects each occupy
    // whole cache lines; packed contiguously the stream needs only its
    // total size worth of lines (fractional -- tails are shared with
    // neighbouring occurrences).
    double LinesPacked = static_cast<double>(TotalSize) /
                         static_cast<double>(CoAllocationLineSize);
    if (LinesPacked >= LinesScattered)
      continue; // No projected benefit.
    double Benefit = static_cast<double>(Stream.Frequency) *
                     (LinesScattered - LinesPacked);
    BySites[Sites] += Benefit;
  }

  std::vector<CoAllocationSet> Candidates;
  Candidates.reserve(BySites.size());
  for (auto &[Sites, Benefit] : BySites)
    Candidates.push_back(CoAllocationSet{Sites, Benefit});
  return Candidates;
}

std::vector<CoAllocationSet>
halo::packCoAllocationSets(std::vector<CoAllocationSet> Candidates,
                           uint64_t TraceLength) {
  const double MinBenefit =
      MinBenefitFraction * static_cast<double>(TraceLength);
  // Greedy approximation to weighted set packing: order by
  // Benefit / sqrt(|S|) and take sets disjoint from everything chosen.
  std::sort(Candidates.begin(), Candidates.end(),
            [](const CoAllocationSet &A, const CoAllocationSet &B) {
              double Ka = A.Benefit / std::sqrt(double(A.Sites.size()));
              double Kb = B.Benefit / std::sqrt(double(B.Sites.size()));
              if (Ka != Kb)
                return Ka > Kb;
              return A.Sites < B.Sites; // Deterministic tie-break.
            });

  std::vector<CoAllocationSet> Chosen;
  std::unordered_set<uint32_t> Used;
  for (CoAllocationSet &Candidate : Candidates) {
    if (Candidate.Benefit < MinBenefit)
      continue; // Not profitable enough to enact.
    bool Disjoint = true;
    for (uint32_t Site : Candidate.Sites)
      if (Used.count(Site)) {
        Disjoint = false;
        break;
      }
    if (!Disjoint)
      continue;
    for (uint32_t Site : Candidate.Sites)
      Used.insert(Site);
    Chosen.push_back(std::move(Candidate));
  }
  return Chosen;
}

std::unordered_map<uint32_t, uint32_t>
halo::siteGroupMap(const std::vector<CoAllocationSet> &Chosen) {
  std::unordered_map<uint32_t, uint32_t> Map;
  for (uint32_t G = 0; G < Chosen.size(); ++G)
    for (uint32_t Site : Chosen[G].Sites)
      Map.emplace(Site, G);
  return Map;
}
