//===- hds/CoAllocation.h - Co-allocation set selection ---------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The placement-policy selection of Chilimbi & Shaham [11]: each hot data
/// stream suggests a *co-allocation set* -- the set of allocation sites of
/// the objects it touches, valued by the stream's projected cache-miss
/// reduction. Since a site may appear in many streams but can only be bound
/// to one pool, a profitable pairwise-disjoint family is chosen with the
/// classic greedy w(S)/sqrt(|S|) approximation to weighted set packing
/// (Halldorsson [16]).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_HDS_COALLOCATION_H
#define HALO_HDS_COALLOCATION_H

#include "hds/HotStreams.h"
#include "profile/LiveObjectMap.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace halo {

/// A candidate co-allocation set: allocation sites to serve from one pool.
struct CoAllocationSet {
  std::vector<uint32_t> Sites; ///< Sorted, unique malloc call sites.
  double Benefit = 0.0;        ///< Projected cache-miss reduction.
};

struct CoAllocationOptions {
  uint32_t CacheLineSize = 64;
  /// Upper bound on chosen sets (the artefact's --max-groups); 0 = no cap.
  uint32_t MaxGroups = 0;
  /// Profitability floor, as a fraction of the trace length: candidate
  /// sets projected to save fewer lines than this share of the trace are
  /// rejected ([11] only enacts placement policies its analysis projects
  /// to be profitable).
  double MinBenefitFraction = 0.0005;
};

/// Builds candidate co-allocation sets from \p Streams. Objects map to
/// their immediate allocation sites through \p Objects; the benefit of a
/// stream is its frequency times the projected per-occurrence line saving
/// (scattered objects touch one line each; co-allocated objects pack into
/// ceil(total size / line size) lines).
std::vector<CoAllocationSet>
buildCoAllocationSets(const std::vector<HotStream> &Streams,
                      const LiveObjectMap &Objects,
                      const CoAllocationOptions &Options);

/// Greedy weighted set packing: repeatedly picks the candidate maximising
/// Benefit / sqrt(|Sites|) among those disjoint from the already chosen,
/// skipping any whose benefit falls below MinBenefitFraction of
/// \p TraceLength.
std::vector<CoAllocationSet>
packCoAllocationSets(std::vector<CoAllocationSet> Candidates,
                     uint64_t TraceLength, const CoAllocationOptions &Options);

/// Flattens chosen sets into the site -> group map the runtime policy uses.
std::unordered_map<uint32_t, uint32_t>
siteGroupMap(const std::vector<CoAllocationSet> &Chosen);

} // namespace halo

#endif // HALO_HDS_COALLOCATION_H
