//===- graph/Adjacency.cpp - Frozen CSR adjacency snapshot -----------------===//

#include "graph/Adjacency.h"

#include <algorithm>

using namespace halo;

uint32_t AdjacencySnapshot::denseOf(GraphNodeId Node) const {
  auto It = std::lower_bound(Ids.begin(), Ids.end(), Node);
  if (It == Ids.end() || *It != Node)
    return InvalidDense;
  return static_cast<uint32_t>(It - Ids.begin());
}

AdjacencySnapshot AffinityGraph::buildAdjacency() const {
  AdjacencySnapshot Snap;
  Snap.Total = TotalAccesses;

  Snap.Ids.reserve(Accesses.size());
  for (const auto &[Node, Count] : Accesses)
    Snap.Ids.push_back(Node);
  std::sort(Snap.Ids.begin(), Snap.Ids.end());

  const uint32_t N = static_cast<uint32_t>(Snap.Ids.size());
  Snap.NodeAccesses.resize(N);
  Snap.LoopWeights.assign(N, 0);
  for (uint32_t Dense = 0; Dense < N; ++Dense)
    Snap.NodeAccesses[Dense] = Accesses.at(Snap.Ids[Dense]);

  // First pass: loop weights and per-node non-loop degrees.
  std::vector<uint32_t> Degree(N, 0);
  Snap.EdgeCount = Edges.size();
  for (const auto &[Key, Weight] : Edges) {
    (void)Weight;
    uint32_t U = Snap.denseOf(static_cast<GraphNodeId>(Key >> 32));
    uint32_t V = Snap.denseOf(static_cast<GraphNodeId>(Key & 0xffffffff));
    assert(U != AdjacencySnapshot::InvalidDense &&
           V != AdjacencySnapshot::InvalidDense &&
           "edge endpoint missing from node table");
    if (U == V)
      continue;
    ++Degree[U];
    ++Degree[V];
  }

  Snap.RowStart.resize(N + 1);
  Snap.RowStart[0] = 0;
  for (uint32_t Dense = 0; Dense < N; ++Dense)
    Snap.RowStart[Dense + 1] = Snap.RowStart[Dense] + Degree[Dense];
  Snap.NeighborDense.resize(Snap.RowStart[N]);
  Snap.NeighborWeights.resize(Snap.RowStart[N]);

  // Second pass: fill rows in ascending (U, V) edge order so each row ends
  // up sorted by dense neighbour index without a per-row sort.
  std::vector<AffinityGraph::Edge> Sorted = edges();
  std::vector<uint32_t> Fill(Snap.RowStart.begin(), Snap.RowStart.end() - 1);
  for (const AffinityGraph::Edge &E : Sorted) {
    uint32_t U = Snap.denseOf(E.U);
    uint32_t V = Snap.denseOf(E.V);
    if (U == V) {
      Snap.LoopWeights[U] = E.Weight;
      continue;
    }
    Snap.NeighborDense[Fill[U]] = V;
    Snap.NeighborWeights[Fill[U]++] = E.Weight;
    Snap.NeighborDense[Fill[V]] = U;
    Snap.NeighborWeights[Fill[V]++] = E.Weight;
  }
  return Snap;
}
