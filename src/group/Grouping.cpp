//===- group/Grouping.cpp - Context grouping (Fig. 6-8) --------------------===//

#include "group/Grouping.h"

#include "graph/Adjacency.h"
#include "support/BinaryIO.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace halo;

namespace {

/// The Figure 8 merge benefit m(A, B) = Sc - (1 - T) * max(Sa, Sb). Shared
/// between the reference and incremental paths for bit-identical rounding.
inline double benefitOf(double Sc, double Sa, double Sb, double Tolerance) {
  return Sc - (1.0 - Tolerance) * std::max(Sa, Sb);
}

inline uint64_t pairCount(uint64_t NumNodes) {
  return NumNodes * (NumNodes - 1) / 2;
}

/// Shared epilogue of every group builder: identification processes groups
/// most-popular-first (Fig. 10), capped at MaxGroups. The reference and
/// incremental builders MUST share this for their bit-identical-output
/// contract to hold.
std::vector<Group> finalizeGroups(std::vector<Group> Groups,
                                  const GroupingOptions &Options) {
  std::sort(Groups.begin(), Groups.end(), [](const Group &A, const Group &B) {
    if (A.Accesses != B.Accesses)
      return A.Accesses > B.Accesses;
    return A.Members < B.Members;
  });
  if (Options.MaxGroups && Groups.size() > Options.MaxGroups)
    Groups.resize(Options.MaxGroups);
  return Groups;
}

} // namespace

double halo::mergeBenefit(const AffinityGraph &Graph,
                          const std::vector<GraphNodeId> &Members,
                          GraphNodeId Candidate, double Tolerance) {
  // m(A, B) = Sc - (1 - T) * max(Sa, Sb)
  double Sa = Graph.score(Members);
  double Sb = Graph.score({Candidate});
  std::vector<GraphNodeId> Union = Members;
  Union.push_back(Candidate);
  double Sc = Graph.score(Union);
  return benefitOf(Sc, Sa, Sb, Tolerance);
}

std::vector<Group>
halo::buildGroupsReference(const AffinityGraph &Input,
                           const GroupingOptions &Options) {
  AffinityGraph Graph = Input;
  Graph.removeLightEdges(Options.MinEdgeWeight);

  std::unordered_set<GraphNodeId> Avail;
  for (GraphNodeId Node : Graph.nodes())
    Avail.insert(Node);

  std::vector<Group> Groups;
  while (!Avail.empty()) {
    // Form a group around the hottest node in the strongest available edge.
    bool Found = false;
    AffinityGraph::Edge Best{0, 0, 0};
    for (const AffinityGraph::Edge &E : Graph.edges()) {
      if (!Avail.count(E.U) || !Avail.count(E.V))
        continue;
      if (!Found || E.Weight > Best.Weight) {
        Best = E;
        Found = true;
      }
    }
    if (!Found)
      break; // No edges left between available nodes.

    GraphNodeId Seed =
        Graph.nodeAccesses(Best.U) >= Graph.nodeAccesses(Best.V) ? Best.U
                                                                 : Best.V;
    Group G;
    G.Members.push_back(Seed);
    Avail.erase(Seed);

    // Grow the group greedily by maximum merge benefit.
    constexpr GraphNodeId NoMatch = ~0u;
    while (G.Members.size() < Options.MaxGroupMembers) {
      double BestScore = 0.0;
      GraphNodeId BestMatch = NoMatch;
      // Deterministic iteration: visit candidates in ascending id order.
      std::vector<GraphNodeId> Candidates(Avail.begin(), Avail.end());
      std::sort(Candidates.begin(), Candidates.end());
      for (GraphNodeId Stranger : Candidates) {
        double Benefit =
            mergeBenefit(Graph, G.Members, Stranger, Options.MergeTolerance);
        if (Benefit > BestScore) {
          BestScore = Benefit;
          BestMatch = Stranger;
        }
      }
      if (BestMatch == NoMatch)
        break;
      G.Members.push_back(BestMatch);
      Avail.erase(BestMatch);
    }

    // Keep the group only if it exceeds the minimum group weight.
    G.Weight = Graph.subgraphWeight(G.Members);
    double MinWeight = Options.GroupWeightThreshold *
                       static_cast<double>(Graph.totalAccesses());
    if (static_cast<double>(G.Weight) >= MinWeight) {
      for (GraphNodeId Member : G.Members)
        G.Accesses += Graph.nodeAccesses(Member);
      std::sort(G.Members.begin(), G.Members.end());
      Groups.push_back(std::move(G));
    }
  }

  return finalizeGroups(std::move(Groups), Options);
}

//===----------------------------------------------------------------------===//
// Incremental grouping
//
// Output-identical to buildGroupsReference (tests/grouping_equivalence_test
// sweeps randomized graphs), but asymptotically faster:
//
//  * The strongest-available-edge search is a single cursor over a one-time
//    (weight desc, U asc, V asc)-sorted edge list. Availability only ever
//    shrinks, so an edge skipped once is dead forever and the cursor never
//    backs up: O(E log E) total instead of O(E) per group.
//
//  * Group aggregates (WeightSum, loop count) and every available node's
//    weight into the group (WeightToGroup) are maintained incrementally, so
//    a candidate's merge benefit is O(1) arithmetic instead of an O(k^2)
//    rescore of the union.
//
//  * Only candidates whose benefit can differ are enumerated, in ascending
//    order: (a) the group frontier (WeightToGroup > 0, tracked as members
//    are merged, O(deg) via the CSR snapshot), (b) loop-carrying nodes
//    (their self-edge raises Sb/Sc), and (c) one representative of the
//    remaining "no edge into the group, no loop" class -- every node in
//    that class has the exact same benefit, so only the lowest id could
//    ever win the reference's first-strictly-greater scan.
//===----------------------------------------------------------------------===//

std::vector<Group> halo::buildGroups(const AffinityGraph &Input,
                                     const GroupingOptions &Options) {
  AffinityGraph Graph = Input;
  Graph.removeLightEdges(Options.MinEdgeWeight);
  AdjacencySnapshot Adj = Graph.buildAdjacency();
  const uint32_t N = Adj.numNodes();
  if (N == 0)
    return {};
  const double MinWeight = Options.GroupWeightThreshold *
                           static_cast<double>(Graph.totalAccesses());

  // One-time weight-sorted edge list over dense indices. Dense order equals
  // id order, so (Weight desc, U asc, V asc) reproduces the reference's
  // pick: maximum weight, first in (U, V) order among ties.
  struct SortedEdge {
    uint64_t Weight;
    uint32_t U, V; ///< Dense, U <= V; U == V encodes a loop.
  };
  std::vector<SortedEdge> EdgeList;
  for (uint32_t U = 0; U < N; ++U) {
    if (Adj.loopWeight(U) > 0)
      EdgeList.push_back({Adj.loopWeight(U), U, U});
    Span<uint32_t> Row = Adj.neighbors(U);
    Span<uint64_t> RowWeights = Adj.neighborWeights(U);
    for (size_t I = 0; I < Row.size(); ++I)
      if (Row[I] > U)
        EdgeList.push_back({RowWeights[I], U, Row[I]});
  }
  std::sort(EdgeList.begin(), EdgeList.end(),
            [](const SortedEdge &A, const SortedEdge &B) {
              if (A.Weight != B.Weight)
                return A.Weight > B.Weight;
              if (A.U != B.U)
                return A.U < B.U;
              return A.V < B.V;
            });

  // Ascending lists of loop-carrying dense nodes (candidate class (b)) and
  // loop-free nodes (the pool class (c) representatives come from). Both
  // are compacted lazily as members are consumed.
  std::vector<uint32_t> LoopNodes;
  std::vector<uint32_t> NoLoopNodes;
  for (uint32_t Dense = 0; Dense < N; ++Dense)
    (Adj.loopWeight(Dense) > 0 ? LoopNodes : NoLoopNodes).push_back(Dense);

  std::vector<uint64_t> WeightToGroup(N, 0);
  std::vector<char> Avail(N, 1);
  uint32_t AvailCount = N;
  size_t NoLoopCursor = 0; ///< Consumed prefix of NoLoopNodes; monotone.
  size_t Cursor = 0;       ///< Into EdgeList; only ever advances.

  // Per-group incremental state, reset via Touched after each group.
  std::vector<uint32_t> Touched;
  std::vector<uint32_t> Frontier;   ///< Avail nodes with WeightToGroup > 0.
  std::vector<uint32_t> Candidates; ///< Scratch, rebuilt per merge step.
  std::vector<Group> Groups;

  constexpr uint32_t NoMatch = AdjacencySnapshot::InvalidDense;

  while (AvailCount > 0) {
    while (Cursor < EdgeList.size() &&
           (!Avail[EdgeList[Cursor].U] || !Avail[EdgeList[Cursor].V]))
      ++Cursor;
    if (Cursor == EdgeList.size())
      break; // No edges left between available nodes.

    const SortedEdge &Best = EdgeList[Cursor];
    uint32_t Seed =
        Adj.accesses(Best.U) >= Adj.accesses(Best.V) ? Best.U : Best.V;

    std::vector<uint32_t> Members{Seed};
    Avail[Seed] = 0;
    --AvailCount;

    uint64_t WeightSum = Adj.loopWeight(Seed);
    uint64_t LoopCount = WeightSum > 0 ? 1 : 0;

    Touched.clear();
    Frontier.clear();
    auto absorbEdges = [&](uint32_t Member) {
      Span<uint32_t> Row = Adj.neighbors(Member);
      Span<uint64_t> RowWeights = Adj.neighborWeights(Member);
      for (size_t I = 0; I < Row.size(); ++I) {
        uint32_t Nb = Row[I];
        if (WeightToGroup[Nb] == 0) {
          Touched.push_back(Nb);
          if (Avail[Nb])
            Frontier.push_back(Nb);
        }
        WeightToGroup[Nb] += RowWeights[I];
      }
    };
    absorbEdges(Seed);

    while (Members.size() < Options.MaxGroupMembers && AvailCount > 0) {
      const uint64_t Size = Members.size();
      const double Sa = affinityScoreFrom(WeightSum, LoopCount, pairCount(Size));
      const uint64_t PairsUnion = pairCount(Size + 1);

      // Enumerate the candidates whose benefit can differ, ascending.
      Candidates.clear();
      for (uint32_t F : Frontier)
        if (Avail[F])
          Candidates.push_back(F);
      uint32_t DeadLoopNodes = 0;
      for (uint32_t L : LoopNodes) {
        if (!Avail[L]) {
          ++DeadLoopNodes;
          continue;
        }
        if (WeightToGroup[L] == 0)
          Candidates.push_back(L);
      }
      // Consumed loop nodes never come back; compact once they dominate.
      if (DeadLoopNodes * 2 > LoopNodes.size())
        LoopNodes.erase(std::remove_if(LoopNodes.begin(), LoopNodes.end(),
                                       [&](uint32_t L) { return !Avail[L]; }),
                        LoopNodes.end());
      // Class (c) representative: the lowest available loop-free node with
      // no edge into the group. Availability only shrinks, so the cursor
      // skips the consumed prefix permanently; past it, the only nodes
      // skipped without progress are current-group frontier members
      // (W2G > 0, group-local) and dead interior nodes, compacted once
      // they dominate the scan.
      while (NoLoopCursor < NoLoopNodes.size() &&
             !Avail[NoLoopNodes[NoLoopCursor]])
        ++NoLoopCursor;
      size_t DeadNoLoop = 0;
      for (size_t I = NoLoopCursor; I < NoLoopNodes.size(); ++I) {
        uint32_t Rep = NoLoopNodes[I];
        if (!Avail[Rep]) {
          ++DeadNoLoop;
          continue;
        }
        if (WeightToGroup[Rep] > 0)
          continue;
        Candidates.push_back(Rep);
        break;
      }
      if (DeadNoLoop * 2 > NoLoopNodes.size() - NoLoopCursor) {
        NoLoopNodes.erase(
            std::remove_if(NoLoopNodes.begin() + NoLoopCursor,
                           NoLoopNodes.end(),
                           [&](uint32_t Nd) { return !Avail[Nd]; }),
            NoLoopNodes.end());
      }
      std::sort(Candidates.begin(), Candidates.end());

      double BestScore = 0.0;
      uint32_t BestMatch = NoMatch;
      for (uint32_t Cand : Candidates) {
        uint64_t Loop = Adj.loopWeight(Cand);
        double Sb = Loop > 0 ? static_cast<double>(Loop) : 0.0;
        double Sc = affinityScoreFrom(WeightSum + WeightToGroup[Cand] + Loop,
                              LoopCount + (Loop > 0 ? 1 : 0), PairsUnion);
        double Benefit = benefitOf(Sc, Sa, Sb, Options.MergeTolerance);
        if (Benefit > BestScore) {
          BestScore = Benefit;
          BestMatch = Cand;
        }
      }
      if (BestMatch == NoMatch)
        break;

      Members.push_back(BestMatch);
      Avail[BestMatch] = 0;
      --AvailCount;
      WeightSum += WeightToGroup[BestMatch] + Adj.loopWeight(BestMatch);
      if (Adj.loopWeight(BestMatch) > 0)
        ++LoopCount;
      absorbEdges(BestMatch);
    }

    // WeightSum is exactly subgraphWeight(Members): every intra-group edge
    // entered once via WeightToGroup at merge time, plus member loops.
    if (static_cast<double>(WeightSum) >= MinWeight) {
      Group G;
      G.Weight = WeightSum;
      G.Members.reserve(Members.size());
      for (uint32_t Dense : Members) {
        G.Accesses += Adj.accesses(Dense);
        G.Members.push_back(Adj.nodeId(Dense));
      }
      std::sort(G.Members.begin(), G.Members.end());
      Groups.push_back(std::move(G));
    }

    for (uint32_t T : Touched)
      WeightToGroup[T] = 0;
  }

  return finalizeGroups(std::move(Groups), Options);
}

std::vector<Group> halo::buildComponentGroups(const AffinityGraph &Input,
                                              const GroupingOptions &Options) {
  AffinityGraph Graph = Input;
  Graph.removeLightEdges(Options.MinEdgeWeight);

  // Union-find over the surviving edges.
  std::vector<GraphNodeId> Nodes = Graph.nodes();
  std::unordered_map<GraphNodeId, GraphNodeId> Parent;
  for (GraphNodeId N : Nodes)
    Parent[N] = N;
  auto Find = [&](GraphNodeId N) {
    while (Parent[N] != N) {
      Parent[N] = Parent[Parent[N]];
      N = Parent[N];
    }
    return N;
  };
  for (const AffinityGraph::Edge &E : Graph.edges())
    Parent[Find(E.U)] = Find(E.V);

  std::unordered_map<GraphNodeId, Group> ByRoot;
  for (GraphNodeId N : Nodes)
    ByRoot[Find(N)].Members.push_back(N);

  std::vector<Group> Groups;
  for (auto &[Root, G] : ByRoot) {
    if (G.Members.size() < 2)
      continue;
    std::sort(G.Members.begin(), G.Members.end());
    // Split oversized components mechanically.
    for (size_t Start = 0; Start < G.Members.size();
         Start += Options.MaxGroupMembers) {
      Group Part;
      size_t End =
          std::min(G.Members.size(), Start + Options.MaxGroupMembers);
      Part.Members.assign(G.Members.begin() + Start, G.Members.begin() + End);
      if (Part.Members.size() < 2)
        continue;
      Part.Weight = Graph.subgraphWeight(Part.Members);
      for (GraphNodeId Member : Part.Members)
        Part.Accesses += Graph.nodeAccesses(Member);
      Groups.push_back(std::move(Part));
    }
  }
  return finalizeGroups(std::move(Groups), Options);
}

namespace {

constexpr auto GroupsLayout = [](auto &C, auto &Groups) {
  C.list(Groups, [](auto &C, auto &G) {
    C.list(G.Members, IdElement);
    C.varint(G.Weight);
    C.varint(G.Accesses);
  });
};

} // namespace

void halo::saveGroups(const std::vector<Group> &Groups, BinaryWriter &W) {
  Encoder E(W);
  GroupsLayout(E, Groups);
}

std::vector<Group> halo::loadGroups(BinaryReader &R) {
  Decoder D(R);
  std::vector<Group> Groups;
  GroupsLayout(D, Groups);
  return Groups;
}
