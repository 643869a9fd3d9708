//===- tests/adjacency_test.cpp - CSR adjacency snapshot ----------------------===//

#include "graph/Adjacency.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace halo;

namespace {

/// A small fixed graph: 1-2 (w 6), 1-3 (w 2), 2-2 loop (w 5), isolated 9.
AffinityGraph fixture() {
  AffinityGraph G;
  G.addAccesses(1, 10);
  G.addAccesses(2, 20);
  G.addAccesses(3, 5);
  G.addAccesses(9, 1);
  G.addEdgeWeight(1, 2, 6);
  G.addEdgeWeight(1, 3, 2);
  G.addEdgeWeight(2, 2, 5);
  return G;
}

AffinityGraph randomGraph(uint32_t Nodes, double EdgeProbability,
                          uint64_t Seed) {
  Rng Random(Seed);
  AffinityGraph G;
  for (uint32_t N = 0; N < Nodes; ++N) {
    G.addAccesses(N * 11 + 3, 1 + Random.nextBelow(500));
    if (Random.nextBool(0.2))
      G.addEdgeWeight(N * 11 + 3, N * 11 + 3, 1 + Random.nextBelow(50));
  }
  for (uint32_t U = 0; U < Nodes; ++U)
    for (uint32_t V = U + 1; V < Nodes; ++V)
      if (Random.nextBool(EdgeProbability))
        G.addEdgeWeight(U * 11 + 3, V * 11 + 3, 1 + Random.nextBelow(100));
  return G;
}

} // namespace

TEST(AdjacencySnapshot, DenseIdsFollowAscendingNodeIds) {
  AdjacencySnapshot Adj = fixture().buildAdjacency();
  ASSERT_EQ(Adj.numNodes(), 4u);
  EXPECT_EQ(Adj.nodeId(0), 1u);
  EXPECT_EQ(Adj.nodeId(1), 2u);
  EXPECT_EQ(Adj.nodeId(2), 3u);
  EXPECT_EQ(Adj.nodeId(3), 9u);
  EXPECT_EQ(Adj.denseOf(1), 0u);
  EXPECT_EQ(Adj.denseOf(9), 3u);
  EXPECT_EQ(Adj.denseOf(4), AdjacencySnapshot::InvalidDense);
  EXPECT_EQ(Adj.denseOf(100), AdjacencySnapshot::InvalidDense);
}

TEST(AdjacencySnapshot, NeighborSpansAndWeights) {
  AdjacencySnapshot Adj = fixture().buildAdjacency();
  // Node 1 (dense 0): neighbours 2 (dense 1, w 6) and 3 (dense 2, w 2).
  Span<uint32_t> Row = Adj.neighbors(0);
  Span<uint64_t> Weights = Adj.neighborWeights(0);
  ASSERT_EQ(Row.size(), 2u);
  EXPECT_EQ(Row[0], 1u);
  EXPECT_EQ(Row[1], 2u);
  EXPECT_EQ(Weights[0], 6u);
  EXPECT_EQ(Weights[1], 2u);
  EXPECT_EQ(Adj.neighbors(0).size(), 2u);

  // Loops live in the loop array, not the neighbour rows.
  ASSERT_EQ(Adj.neighbors(1).size(), 1u);
  EXPECT_EQ(Adj.neighbors(1)[0], 0u);
  EXPECT_EQ(Adj.loopWeight(1), 5u);
  EXPECT_EQ(Adj.loopWeight(0), 0u);

  // Isolated node: empty span.
  EXPECT_TRUE(Adj.neighbors(3).empty());
  EXPECT_EQ(Adj.neighbors(3).size(), 0u);
}

TEST(AdjacencySnapshot, AccessAndEdgeTotals) {
  AdjacencySnapshot Adj = fixture().buildAdjacency();
  EXPECT_EQ(Adj.totalAccesses(), 36u);
  EXPECT_EQ(Adj.numEdges(), 3u); // Two pair edges + one loop.
  EXPECT_EQ(Adj.accesses(0), 10u);
  EXPECT_EQ(Adj.accesses(1), 20u);
}

TEST(AdjacencySnapshot, RowsAreSortedOnRandomGraphs) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    AffinityGraph G = randomGraph(40, 0.2, Seed);
    AdjacencySnapshot Adj = G.buildAdjacency();
    for (uint32_t D = 0; D < Adj.numNodes(); ++D) {
      Span<uint32_t> Row = Adj.neighbors(D);
      EXPECT_TRUE(std::is_sorted(Row.begin(), Row.end()));
      for (uint32_t Nb : Row)
        EXPECT_NE(Nb, D); // Loops never appear as neighbours.
    }
  }
}

TEST(AdjacencySnapshot, MirrorsEdgeWeights) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    AffinityGraph G = randomGraph(30, 0.3, Seed);
    AdjacencySnapshot Adj = G.buildAdjacency();
    for (GraphNodeId U : G.nodes()) {
      uint32_t DU = Adj.denseOf(U);
      ASSERT_NE(DU, AdjacencySnapshot::InvalidDense);
      EXPECT_EQ(Adj.accesses(DU), G.nodeAccesses(U));
      EXPECT_EQ(Adj.loopWeight(DU), G.edgeWeight(U, U));
      uint64_t RowWeight = 0;
      Span<uint32_t> Row = Adj.neighbors(DU);
      Span<uint64_t> Weights = Adj.neighborWeights(DU);
      for (size_t I = 0; I < Row.size(); ++I) {
        EXPECT_EQ(Weights[I], G.edgeWeight(U, Adj.nodeId(Row[I])));
        RowWeight += Weights[I];
      }
      (void)RowWeight;
    }
  }
}

TEST(AdjacencySnapshot, EmptyGraph) {
  AffinityGraph G;
  AdjacencySnapshot Adj = G.buildAdjacency();
  EXPECT_EQ(Adj.numNodes(), 0u);
  EXPECT_EQ(Adj.numEdges(), 0u);
  EXPECT_EQ(Adj.totalAccesses(), 0u);
}

TEST(AdjacencySnapshot, SnapshotIsFrozen) {
  AffinityGraph G = fixture();
  AdjacencySnapshot Adj = G.buildAdjacency();
  G.addEdgeWeight(1, 9, 50);
  G.addAccesses(1, 1000);
  // The snapshot still reflects the graph at freeze time.
  EXPECT_EQ(Adj.neighbors(0).size(), 2u);
  EXPECT_EQ(Adj.accesses(0), 10u);
  EXPECT_EQ(Adj.totalAccesses(), 36u);
}
