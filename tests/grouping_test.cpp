//===- tests/grouping_test.cpp - Grouping algorithm (Fig. 6-8) ----------------===//

#include "group/Grouping.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace halo;

namespace {

bool hasGroupWith(const std::vector<Group> &Groups,
                  std::vector<GraphNodeId> Members) {
  std::sort(Members.begin(), Members.end());
  for (const Group &G : Groups)
    if (G.Members == Members)
      return true;
  return false;
}

GroupingOptions lenientOptions() {
  GroupingOptions O;
  O.MinEdgeWeight = 1;
  O.GroupWeightThreshold = 0.0;
  return O;
}

} // namespace

TEST(MergeBenefit, PositiveForTightPair) {
  AffinityGraph G;
  G.addEdgeWeight(1, 2, 10);
  EXPECT_GT(mergeBenefit(G, {1}, 2), 0.0);
}

TEST(MergeBenefit, NegativeForStranger) {
  AffinityGraph G;
  G.addEdgeWeight(1, 2, 10);
  G.addAccesses(3, 100); // No edges to 1 or 2.
  EXPECT_LT(mergeBenefit(G, {1, 2}, 3), 0.0);
}

TEST(MergeBenefit, ToleranceAllowsSlightlyWorseMerges) {
  // Nodes 1-2 (weight 10) and candidate 3 attached with weight 9.5-ish:
  // merging drops density slightly; the 5% tolerance makes it acceptable.
  AffinityGraph G;
  G.addEdgeWeight(1, 2, 10);
  G.addEdgeWeight(2, 3, 10);
  G.addEdgeWeight(1, 3, 9);
  // Union score: 29/3 ~ 9.667 < 10 = max(Sa, Sb), but above 9.5.
  EXPECT_GT(mergeBenefit(G, {1, 2}, 3), 0.0);
  // A weaker third edge puts the union at 27/3 = 9 < 9.5: rejected.
  AffinityGraph Weaker;
  Weaker.addEdgeWeight(1, 2, 10);
  Weaker.addEdgeWeight(2, 3, 10);
  Weaker.addEdgeWeight(1, 3, 7);
  EXPECT_LT(mergeBenefit(Weaker, {1, 2}, 3), 0.0);
}

TEST(Grouping, PairsGroupAroundStrongestEdge) {
  AffinityGraph G;
  G.addAccesses(1, 100);
  G.addAccesses(2, 50);
  G.addEdgeWeight(1, 2, 40);
  std::vector<Group> Groups = buildGroups(G, lenientOptions());
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_TRUE(hasGroupWith(Groups, {1, 2}));
  EXPECT_EQ(Groups[0].Weight, 40u);
  EXPECT_EQ(Groups[0].Accesses, 150u);
}

TEST(Grouping, TwoSeparateClusters) {
  AffinityGraph G;
  for (GraphNodeId N = 1; N <= 4; ++N)
    G.addAccesses(N, 10);
  G.addEdgeWeight(1, 2, 50);
  G.addEdgeWeight(3, 4, 30);
  // No cross edges: two groups.
  std::vector<Group> Groups = buildGroups(G, lenientOptions());
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_TRUE(hasGroupWith(Groups, {1, 2}));
  EXPECT_TRUE(hasGroupWith(Groups, {3, 4}));
}

TEST(Grouping, TriangleFormsOneGroup) {
  AffinityGraph G;
  for (GraphNodeId N = 1; N <= 3; ++N)
    G.addAccesses(N, 10);
  G.addEdgeWeight(1, 2, 30);
  G.addEdgeWeight(2, 3, 29);
  G.addEdgeWeight(1, 3, 28);
  std::vector<Group> Groups = buildGroups(G, lenientOptions());
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_TRUE(hasGroupWith(Groups, {1, 2, 3}));
}

TEST(Grouping, WeaklyAttachedNodeLeftOut) {
  AffinityGraph G;
  for (GraphNodeId N = 1; N <= 3; ++N)
    G.addAccesses(N, 10);
  G.addEdgeWeight(1, 2, 100);
  G.addEdgeWeight(2, 3, 1); // Far too weak to join.
  std::vector<Group> Groups = buildGroups(G, lenientOptions());
  ASSERT_GE(Groups.size(), 1u);
  EXPECT_TRUE(hasGroupWith(Groups, {1, 2}));
  for (const Group &Grp : Groups)
    EXPECT_EQ(std::count(Grp.Members.begin(), Grp.Members.end(), 3), 0);
}

TEST(Grouping, MinEdgeWeightFiltersNoise) {
  AffinityGraph G;
  G.addAccesses(1, 10);
  G.addAccesses(2, 10);
  G.addEdgeWeight(1, 2, 3);
  GroupingOptions O = lenientOptions();
  O.MinEdgeWeight = 5;
  EXPECT_TRUE(buildGroups(G, O).empty());
}

TEST(Grouping, GroupWeightThresholdDropsColdGroups) {
  AffinityGraph G;
  G.addAccesses(1, 1000);
  G.addAccesses(2, 1000);
  G.addAccesses(3, 10);
  G.addAccesses(4, 10);
  G.addEdgeWeight(1, 2, 500);
  G.addEdgeWeight(3, 4, 2);
  GroupingOptions O = lenientOptions();
  O.GroupWeightThreshold = 0.01; // 1% of 2020 accesses ~ 20.
  std::vector<Group> Groups = buildGroups(G, O);
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_TRUE(hasGroupWith(Groups, {1, 2}));
}

TEST(Grouping, MaxGroupMembersRespected) {
  AffinityGraph G;
  // A clique of six nodes.
  for (GraphNodeId U = 0; U < 6; ++U) {
    G.addAccesses(U, 10);
    for (GraphNodeId V = U + 1; V < 6; ++V)
      G.addEdgeWeight(U, V, 20);
  }
  GroupingOptions O = lenientOptions();
  O.MaxGroupMembers = 3;
  std::vector<Group> Groups = buildGroups(G, O);
  for (const Group &Grp : Groups)
    EXPECT_LE(Grp.Members.size(), 3u);
}

TEST(Grouping, MaxGroupsCapsOutput) {
  AffinityGraph G;
  for (GraphNodeId N = 0; N < 8; N += 2) {
    G.addAccesses(N, 10);
    G.addAccesses(N + 1, 10);
    G.addEdgeWeight(N, N + 1, 50 + N);
  }
  GroupingOptions O = lenientOptions();
  O.MaxGroups = 2;
  EXPECT_EQ(buildGroups(G, O).size(), 2u);
}

TEST(Grouping, GroupsSortedByPopularity) {
  AffinityGraph G;
  G.addAccesses(1, 10);
  G.addAccesses(2, 10);
  G.addAccesses(3, 500);
  G.addAccesses(4, 500);
  G.addEdgeWeight(1, 2, 90); // Stronger edge, colder nodes.
  G.addEdgeWeight(3, 4, 50);
  std::vector<Group> Groups = buildGroups(G, lenientOptions());
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_EQ(Groups[0].Members, (std::vector<GraphNodeId>{3, 4}));
}

TEST(Grouping, SeedIsHotterEndpoint) {
  // With growth disabled (tiny max size), only the hotter endpoint of the
  // strongest edge forms the group.
  AffinityGraph G;
  G.addAccesses(1, 5);
  G.addAccesses(2, 50);
  G.addEdgeWeight(1, 2, 10);
  G.addEdgeWeight(2, 2, 10); // Loop so the singleton passes the threshold.
  GroupingOptions O = lenientOptions();
  O.MaxGroupMembers = 1;
  std::vector<Group> Groups = buildGroups(G, O);
  ASSERT_GE(Groups.size(), 1u);
  EXPECT_EQ(Groups[0].Members, (std::vector<GraphNodeId>{2}));
}

TEST(Grouping, EmptyGraphYieldsNoGroups) {
  AffinityGraph G;
  EXPECT_TRUE(buildGroups(G, lenientOptions()).empty());
}

TEST(Grouping, DeterministicAcrossRuns) {
  AffinityGraph G;
  for (GraphNodeId U = 0; U < 10; ++U) {
    G.addAccesses(U, 10 + U);
    for (GraphNodeId V = U + 1; V < 10; ++V)
      if ((U + V) % 3 == 0)
        G.addEdgeWeight(U, V, 10 + U * V % 17);
  }
  std::vector<Group> A = buildGroups(G, lenientOptions());
  std::vector<Group> B = buildGroups(G, lenientOptions());
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I].Members, B[I].Members);
}

TEST(ComponentGroups, SplitsByConnectivity) {
  AffinityGraph G;
  for (GraphNodeId N = 1; N <= 5; ++N)
    G.addAccesses(N, 10);
  G.addEdgeWeight(1, 2, 5);
  G.addEdgeWeight(2, 3, 5);
  G.addEdgeWeight(4, 5, 5);
  std::vector<Group> Groups = buildComponentGroups(G, lenientOptions());
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_TRUE(hasGroupWith(Groups, {1, 2, 3}));
  EXPECT_TRUE(hasGroupWith(Groups, {4, 5}));
}

TEST(ComponentGroups, IgnoresSingletons) {
  AffinityGraph G;
  G.addAccesses(1, 10);
  G.addAccesses(2, 10);
  G.addAccesses(3, 10);
  G.addEdgeWeight(1, 2, 5);
  std::vector<Group> Groups = buildComponentGroups(G, lenientOptions());
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_TRUE(hasGroupWith(Groups, {1, 2}));
}
