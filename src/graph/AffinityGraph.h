//===- graph/AffinityGraph.h - Pairwise context affinity --------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pairwise affinity graph of Section 4.1: nodes are reduced allocation
/// contexts weighted by access count, edges are weighted by the number of
/// contemporaneous accesses observed within the affinity distance. Includes
/// the loop-aware weighted-density score of Figure 7, the post-profiling
/// cold-node filter (90% access coverage), and DOT export in the style of
/// Figure 9.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_GRAPH_AFFINITYGRAPH_H
#define HALO_GRAPH_AFFINITYGRAPH_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace halo {

class AdjacencySnapshot;
class BinaryWriter;
class BinaryReader;

/// Nodes are identified by dense context ids (trace/Context.h assigns them);
/// the graph itself only needs their numeric identity.
using GraphNodeId = uint32_t;

/// The Figure 7 score from a subgraph's aggregates:
///   s(G) = WeightSum / (Loops + Pairs)
/// with 0 for an empty denominator. The single definition is shared by
/// AffinityGraph::score and both grouping implementations: the incremental
/// buildGroups' bit-identical-output contract with buildGroupsReference
/// depends on every path computing this division identically.
inline double affinityScoreFrom(uint64_t WeightSum, uint64_t Loops,
                                uint64_t Pairs) {
  uint64_t Denominator = Loops + Pairs;
  if (Denominator == 0)
    return 0.0;
  return static_cast<double>(WeightSum) / static_cast<double>(Denominator);
}

/// Pairwise affinity between allocation contexts. Undirected; loop edges
/// (u == u) are allowed and arise when two distinct objects from the same
/// context are accessed contemporaneously.
class AffinityGraph {
public:
  struct Edge {
    GraphNodeId U;
    GraphNodeId V;
    uint64_t Weight;
  };

  /// Accumulates \p Count accesses onto \p Node, creating it if new.
  void addAccesses(GraphNodeId Node, uint64_t Count = 1);

  /// Accumulates \p Weight onto the undirected edge (U, V).
  void addEdgeWeight(GraphNodeId U, GraphNodeId V, uint64_t Weight = 1);

  uint64_t edgeWeight(GraphNodeId U, GraphNodeId V) const;
  uint64_t nodeAccesses(GraphNodeId Node) const;
  bool hasNode(GraphNodeId Node) const { return Accesses.count(Node) != 0; }

  /// Total accesses across surviving nodes ("graph.accesses" in Fig. 6).
  uint64_t totalAccesses() const { return TotalAccesses; }

  /// All surviving nodes, in ascending id order (deterministic).
  std::vector<GraphNodeId> nodes() const;

  /// All edges between surviving nodes, in deterministic order.
  std::vector<Edge> edges() const;

  uint32_t numNodes() const { return static_cast<uint32_t>(Accesses.size()); }
  uint64_t numEdges() const { return Edges.size(); }

  /// Removes all edges lighter than \p MinWeight (Fig. 6 edge thresholding).
  void removeLightEdges(uint64_t MinWeight);

  /// Iterates nodes from most to least accessed, keeping them until
  /// \p Coverage of all observed accesses is accounted for, then discards
  /// the remainder and their edges (Section 4.1's 90% noise filter).
  void filterColdNodes(double Coverage);

  /// The Figure 7 score of the subgraph induced by \p Nodes:
  ///   s(G) = sum(w) / (|L| + |V| * (|V| - 1) / 2)
  /// where L is the set of present loop edges. A single node with no loop
  /// edge has score 0 by convention (empty denominator).
  double score(const std::vector<GraphNodeId> &Nodes) const;

  /// Sum of edge weights within the subgraph induced by \p Nodes (the group
  /// weight test in Fig. 6).
  uint64_t subgraphWeight(const std::vector<GraphNodeId> &Nodes) const;

  /// Freezes the current graph into a CSR adjacency snapshot (see
  /// graph/Adjacency.h): per-node neighbour/weight spans and loop weights.
  /// The snapshot is an independent copy; it is not invalidated by later
  /// mutation of this graph (but does not see it either).
  AdjacencySnapshot buildAdjacency() const;

  /// Renders the graph as DOT (Figure 9 style). \p LabelOf supplies node
  /// labels, \p GroupOf a group number per node (-1 = ungrouped, drawn
  /// grey), and edges lighter than \p MinEdgeWeight are hidden "to reduce
  /// visual noise".
  std::string toDot(const std::vector<std::string> &LabelOf,
                    const std::vector<int> &GroupOf,
                    uint64_t MinEdgeWeight = 0) const;

  /// Writes nodes and edges in their deterministic orders plus the total
  /// access count; the byte stream is identical for equal graphs no matter
  /// what insertion order built them.
  void save(BinaryWriter &W) const;

  /// Decodes a save()d graph; throws SerializationError if the recorded
  /// total disagrees with the node sum (corruption).
  static AffinityGraph load(BinaryReader &R);

private:
  static uint64_t edgeKey(GraphNodeId U, GraphNodeId V);

  std::unordered_map<GraphNodeId, uint64_t> Accesses;
  std::unordered_map<uint64_t, uint64_t> Edges;
  uint64_t TotalAccesses = 0;
};

} // namespace halo

#endif // HALO_GRAPH_AFFINITYGRAPH_H
