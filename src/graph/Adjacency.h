//===- graph/Adjacency.h - Frozen CSR adjacency snapshot --------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A frozen compressed-sparse-row view of an AffinityGraph, built once via
/// AffinityGraph::buildAdjacency() and then read-only. Nodes are renumbered
/// into dense indices [0, N) in ascending id order so grouping can use flat
/// arrays instead of probing the packed-key hash map: each node's non-loop
/// neighbours and edge weights are contiguous spans, and loop weights live
/// in a parallel array. Dense indices compare the same way as the original
/// node ids, so ordering-sensitive algorithms (tie-breaks in the Figure 6
/// grouping) behave identically on either numbering.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_GRAPH_ADJACENCY_H
#define HALO_GRAPH_ADJACENCY_H

#include "graph/AffinityGraph.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace halo {

/// Minimal contiguous view (the project targets C++17, so no std::span).
template <typename T> class Span {
public:
  Span() = default;
  Span(const T *Begin, const T *End) : Begin(Begin), End_(End) {}
  const T *begin() const { return Begin; }
  const T *end() const { return End_; }
  size_t size() const { return static_cast<size_t>(End_ - Begin); }
  bool empty() const { return Begin == End_; }
  const T &operator[](size_t I) const { return Begin[I]; }

private:
  const T *Begin = nullptr;
  const T *End_ = nullptr;
};

/// Immutable CSR snapshot of an affinity graph. Indices into every accessor
/// are dense node indices; nodeId()/denseOf() translate to and from the
/// original GraphNodeIds.
class AdjacencySnapshot {
public:
  static constexpr uint32_t InvalidDense = ~0u;

  uint32_t numNodes() const { return static_cast<uint32_t>(Ids.size()); }
  /// Distinct undirected edges, loops included.
  uint64_t numEdges() const { return EdgeCount; }
  uint64_t totalAccesses() const { return Total; }

  /// The original node id of dense index \p Dense.
  GraphNodeId nodeId(uint32_t Dense) const {
    assert(Dense < Ids.size() && "bad dense index");
    return Ids[Dense];
  }

  /// The dense index of \p Node, or InvalidDense if the node is absent.
  uint32_t denseOf(GraphNodeId Node) const;

  uint64_t accesses(uint32_t Dense) const { return NodeAccesses[Dense]; }
  uint64_t loopWeight(uint32_t Dense) const { return LoopWeights[Dense]; }

  /// Non-loop neighbours of \p Dense as dense indices, ascending.
  Span<uint32_t> neighbors(uint32_t Dense) const {
    return {NeighborDense.data() + RowStart[Dense],
            NeighborDense.data() + RowStart[Dense + 1]};
  }

  /// Edge weights parallel to neighbors(Dense).
  Span<uint64_t> neighborWeights(uint32_t Dense) const {
    return {NeighborWeights.data() + RowStart[Dense],
            NeighborWeights.data() + RowStart[Dense + 1]};
  }

private:
  friend class AffinityGraph;

  std::vector<GraphNodeId> Ids;          ///< Dense -> original id, ascending.
  std::vector<uint64_t> NodeAccesses;    ///< Per dense node.
  std::vector<uint64_t> LoopWeights;     ///< Per dense node (0 = no loop).
  std::vector<uint32_t> RowStart;        ///< CSR row offsets, size N + 1.
  std::vector<uint32_t> NeighborDense;   ///< Concatenated neighbour rows.
  std::vector<uint64_t> NeighborWeights; ///< Parallel to NeighborDense.
  uint64_t Total = 0;
  uint64_t EdgeCount = 0;
};

} // namespace halo

#endif // HALO_GRAPH_ADJACENCY_H
