//===- graph/AffinityGraph.cpp - Pairwise context affinity -----------------===//

#include "graph/AffinityGraph.h"

#include "support/BinaryIO.h"
#include "support/Dot.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace halo;

uint64_t AffinityGraph::edgeKey(GraphNodeId U, GraphNodeId V) {
  if (U > V)
    std::swap(U, V);
  return (uint64_t(U) << 32) | V;
}

void AffinityGraph::addAccesses(GraphNodeId Node, uint64_t Count) {
  Accesses[Node] += Count;
  TotalAccesses += Count;
}

void AffinityGraph::addEdgeWeight(GraphNodeId U, GraphNodeId V,
                                  uint64_t Weight) {
  // Edges may be recorded before their nodes accumulate accesses; create
  // the endpoints so the graph stays consistent.
  Accesses.try_emplace(U, 0);
  Accesses.try_emplace(V, 0);
  Edges[edgeKey(U, V)] += Weight;
}

uint64_t AffinityGraph::edgeWeight(GraphNodeId U, GraphNodeId V) const {
  auto It = Edges.find(edgeKey(U, V));
  return It == Edges.end() ? 0 : It->second;
}

uint64_t AffinityGraph::nodeAccesses(GraphNodeId Node) const {
  auto It = Accesses.find(Node);
  return It == Accesses.end() ? 0 : It->second;
}

std::vector<GraphNodeId> AffinityGraph::nodes() const {
  std::vector<GraphNodeId> Result;
  Result.reserve(Accesses.size());
  for (const auto &[Node, Count] : Accesses)
    Result.push_back(Node);
  std::sort(Result.begin(), Result.end());
  return Result;
}

std::vector<AffinityGraph::Edge> AffinityGraph::edges() const {
  std::vector<Edge> Result;
  Result.reserve(Edges.size());
  for (const auto &[Key, Weight] : Edges)
    Result.push_back(Edge{static_cast<GraphNodeId>(Key >> 32),
                          static_cast<GraphNodeId>(Key & 0xffffffff), Weight});
  std::sort(Result.begin(), Result.end(), [](const Edge &A, const Edge &B) {
    if (A.U != B.U)
      return A.U < B.U;
    return A.V < B.V;
  });
  return Result;
}

void AffinityGraph::removeLightEdges(uint64_t MinWeight) {
  for (auto It = Edges.begin(); It != Edges.end();) {
    if (It->second < MinWeight)
      It = Edges.erase(It);
    else
      ++It;
  }
}

void AffinityGraph::filterColdNodes(double Coverage) {
  assert(Coverage >= 0.0 && Coverage <= 1.0 && "coverage is a fraction");
  // Sort nodes hottest-first (ties broken by id for determinism).
  std::vector<std::pair<GraphNodeId, uint64_t>> Sorted(Accesses.begin(),
                                                       Accesses.end());
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    if (A.second != B.second)
      return A.second > B.second;
    return A.first < B.first;
  });

  uint64_t Threshold =
      static_cast<uint64_t>(Coverage * static_cast<double>(TotalAccesses));
  uint64_t Running = 0;
  size_t Keep = 0;
  while (Keep < Sorted.size() && Running < Threshold)
    Running += Sorted[Keep++].second;

  std::unordered_map<GraphNodeId, uint64_t> Kept;
  uint64_t KeptTotal = 0;
  for (size_t I = 0; I < Keep; ++I) {
    Kept.insert(Sorted[I]);
    KeptTotal += Sorted[I].second;
  }
  Accesses = std::move(Kept);
  TotalAccesses = KeptTotal;

  for (auto It = Edges.begin(); It != Edges.end();) {
    GraphNodeId U = static_cast<GraphNodeId>(It->first >> 32);
    GraphNodeId V = static_cast<GraphNodeId>(It->first & 0xffffffff);
    if (!Accesses.count(U) || !Accesses.count(V))
      It = Edges.erase(It);
    else
      ++It;
  }
}

uint64_t AffinityGraph::subgraphWeight(
    const std::vector<GraphNodeId> &Nodes) const {
  uint64_t Weight = 0;
  for (size_t I = 0; I < Nodes.size(); ++I)
    for (size_t J = I; J < Nodes.size(); ++J)
      Weight += edgeWeight(Nodes[I], Nodes[J]);
  return Weight;
}

double AffinityGraph::score(const std::vector<GraphNodeId> &Nodes) const {
  // s(G) = sum(w) / (|L| + |V|(|V|-1)/2), L = loops present with w > 0.
  uint64_t WeightSum = 0;
  uint64_t Loops = 0;
  for (size_t I = 0; I < Nodes.size(); ++I) {
    uint64_t Loop = edgeWeight(Nodes[I], Nodes[I]);
    WeightSum += Loop;
    if (Loop > 0)
      ++Loops;
    for (size_t J = I + 1; J < Nodes.size(); ++J)
      WeightSum += edgeWeight(Nodes[I], Nodes[J]);
  }
  uint64_t Pairs = Nodes.size() * (Nodes.size() - 1) / 2;
  return affinityScoreFrom(WeightSum, Loops, Pairs);
}

std::string AffinityGraph::toDot(const std::vector<std::string> &LabelOf,
                                 const std::vector<int> &GroupOf,
                                 uint64_t MinEdgeWeight) const {
  // A qualitative palette akin to the paper's figure.
  static const char *Palette[] = {"#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3",
                                  "#a6d854", "#ffd92f", "#e5c494", "#b3b3b3"};
  DotWriter Writer("affinity");
  uint64_t MaxWeight = 1;
  for (const auto &[Key, Weight] : Edges)
    MaxWeight = std::max(MaxWeight, Weight);

  for (GraphNodeId Node : nodes()) {
    std::string Label = Node < LabelOf.size() ? LabelOf[Node]
                                              : "ctx" + std::to_string(Node);
    int Group = Node < GroupOf.size() ? GroupOf[Node] : -1;
    std::string Color =
        Group < 0 ? "#d9d9d9" : Palette[Group % std::size(Palette)];
    Writer.addNode(std::to_string(Node), Label, Color);
  }
  for (const Edge &E : edges()) {
    if (E.Weight < MinEdgeWeight)
      continue;
    double Pen =
        1.0 + 5.0 * static_cast<double>(E.Weight) / static_cast<double>(MaxWeight);
    Writer.addEdge(std::to_string(E.U), std::to_string(E.V), Pen);
  }
  return Writer.str();
}

void AffinityGraph::save(BinaryWriter &W) const {
  std::vector<GraphNodeId> Ordered = nodes();
  W.varint(Ordered.size());
  for (GraphNodeId Node : Ordered) {
    W.varint(Node);
    W.varint(nodeAccesses(Node));
  }
  std::vector<Edge> OrderedEdges = edges();
  W.varint(OrderedEdges.size());
  for (const Edge &E : OrderedEdges) {
    W.varint(E.U);
    W.varint(E.V);
    W.varint(E.Weight);
  }
  W.varint(TotalAccesses);
}

AffinityGraph AffinityGraph::load(BinaryReader &R) {
  AffinityGraph Graph;
  uint64_t NumNodes = R.count();
  for (uint64_t I = 0; I < NumNodes; ++I) {
    uint64_t Node = R.varint();
    if (Node > UINT32_MAX)
      throw SerializationError("affinity graph: node id out of range");
    uint64_t Count = R.varint();
    Graph.Accesses[static_cast<GraphNodeId>(Node)] = Count;
    Graph.TotalAccesses += Count;
  }
  uint64_t NumEdges = R.count();
  for (uint64_t I = 0; I < NumEdges; ++I) {
    uint64_t U = R.varint();
    uint64_t V = R.varint();
    if (U > UINT32_MAX || V > UINT32_MAX)
      throw SerializationError("affinity graph: edge endpoint out of range");
    uint64_t Weight = R.varint();
    Graph.Edges[edgeKey(static_cast<GraphNodeId>(U),
                        static_cast<GraphNodeId>(V))] = Weight;
  }
  // The total is redundant with the node sum by construction; a mismatch
  // means the entry was not produced by save().
  if (R.varint() != Graph.TotalAccesses)
    throw SerializationError("affinity graph: total access count mismatch");
  return Graph;
}
