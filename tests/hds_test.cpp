//===- tests/hds_test.cpp - Hot data streams / co-allocation ------------------===//

#include "hds/CoAllocation.h"
#include "hds/HdsPipeline.h"
#include "hds/HotStreams.h"

#include <gtest/gtest.h>

using namespace halo;

namespace {

std::vector<uint32_t> repeatPattern(std::vector<uint32_t> Pattern,
                                    int Times) {
  std::vector<uint32_t> Trace;
  for (int I = 0; I < Times; ++I)
    Trace.insert(Trace.end(), Pattern.begin(), Pattern.end());
  return Trace;
}

} // namespace

TEST(HotStreams, FindsRepeatedPattern) {
  HotStreamOptions Opts;
  HotStreamAnalysis A =
      findHotStreams(repeatPattern({1, 2, 3}, 100), Opts);
  ASSERT_FALSE(A.Streams.empty());
  // The hottest stream covers the repeating pattern (some rotation of it).
  const HotStream &Top = A.Streams.front();
  EXPECT_GE(Top.Frequency, 25u);
  EXPECT_GE(Top.Elements.size(), 2u);
  EXPECT_EQ(A.TraceLength, 300u);
}

TEST(HotStreams, EmptyTrace) {
  HotStreamAnalysis A = findHotStreams({}, HotStreamOptions());
  EXPECT_TRUE(A.Streams.empty());
  EXPECT_EQ(A.TraceLength, 0u);
}

TEST(HotStreams, RespectsLengthBand) {
  HotStreamOptions Opts;
  Opts.MinLength = 2;
  Opts.MaxLength = 5;
  // A long repeating pattern: streams are clipped to <= 5 elements.
  HotStreamAnalysis A = findHotStreams(
      repeatPattern({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 50), Opts);
  for (const HotStream &S : A.Streams) {
    EXPECT_GE(S.Elements.size(), 2u);
    EXPECT_LE(S.Elements.size(), 5u);
  }
}

TEST(HotStreams, IrregularTraceYieldsManyWeakStreams) {
  // Pseudo-random object ids barely repeat: candidate streams are rare and
  // cover little of the trace (the roms failure mode at object level).
  std::vector<uint32_t> Trace;
  uint64_t X = 99;
  for (int I = 0; I < 4000; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    Trace.push_back((X >> 40) % 1000);
  }
  HotStreamAnalysis A = findHotStreams(Trace, HotStreamOptions());
  uint64_t Covered = 0;
  for (const HotStream &S : A.Streams)
    Covered += S.Heat;
  EXPECT_LT(double(Covered), 0.9 * double(Trace.size()));
}

TEST(CoAllocation, BuildsSetsFromStreamSites) {
  LiveObjectMap Objects;
  // Objects 0,1 from sites 10,11; both 16 bytes: packing saves a line.
  Objects.insert(1000, 16, 0, 10);
  Objects.insert(2000, 16, 1, 11);
  HotStream S;
  S.Elements = {0, 1};
  S.Frequency = 50;
  S.Heat = 100;
  CoAllocationOptions Opts;
  std::vector<CoAllocationSet> Sets =
      buildCoAllocationSets({S}, Objects, Opts);
  ASSERT_EQ(Sets.size(), 1u);
  EXPECT_EQ(Sets[0].Sites, (std::vector<uint32_t>{10, 11}));
  EXPECT_GT(Sets[0].Benefit, 0.0);
}

TEST(CoAllocation, NoBenefitNoSet) {
  LiveObjectMap Objects;
  // A single large object: packing cannot reduce lines.
  Objects.insert(1000, 256, 0, 10);
  HotStream S;
  S.Elements = {0};
  S.Frequency = 50;
  S.Heat = 50;
  EXPECT_TRUE(
      buildCoAllocationSets({S}, Objects, CoAllocationOptions()).empty());
}

TEST(CoAllocation, DuplicateSetsMergeBenefit) {
  LiveObjectMap Objects;
  Objects.insert(1000, 16, 0, 10);
  Objects.insert(2000, 16, 1, 11);
  HotStream S1, S2;
  S1.Elements = {0, 1};
  S1.Frequency = 10;
  S2.Elements = {1, 0};
  S2.Frequency = 20;
  std::vector<CoAllocationSet> Sets =
      buildCoAllocationSets({S1, S2}, Objects, CoAllocationOptions());
  ASSERT_EQ(Sets.size(), 1u);
  // 1.5 lines saved per occurrence (2 scattered lines vs 32/64 packed),
  // over 10 + 20 occurrences.
  EXPECT_DOUBLE_EQ(Sets[0].Benefit, 45.0);
}

TEST(CoAllocation, PackingKeepsDisjointSets) {
  CoAllocationOptions Opts;
  std::vector<CoAllocationSet> Candidates = {
      {{1, 2}, 100.0}, // Strongest.
      {{2, 3}, 90.0},  // Overlaps the first: rejected.
      {{4, 5}, 50.0},  // Disjoint: chosen.
  };
  std::vector<CoAllocationSet> Chosen =
      packCoAllocationSets(Candidates, /*TraceLength=*/0, Opts);
  ASSERT_EQ(Chosen.size(), 2u);
  EXPECT_EQ(Chosen[0].Sites, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(Chosen[1].Sites, (std::vector<uint32_t>{4, 5}));
}

TEST(CoAllocation, PackingWeighsBenefitAgainstSize) {
  // w/sqrt(|S|): a huge set with mild benefit loses to a tight pair.
  CoAllocationOptions Opts;
  std::vector<CoAllocationSet> Candidates = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9}, 120.0}, // 120/3 = 40.
      {{1, 2}, 70.0},                       // 70/1.41 ~ 49.5: wins.
  };
  std::vector<CoAllocationSet> Chosen =
      packCoAllocationSets(Candidates, /*TraceLength=*/0, Opts);
  ASSERT_EQ(Chosen.size(), 1u);
  EXPECT_EQ(Chosen[0].Sites.size(), 2u);
}

TEST(CoAllocation, MaxGroupsCap) {
  CoAllocationOptions Opts;
  Opts.MaxGroups = 1;
  std::vector<CoAllocationSet> Candidates = {{{1}, 10.0}, {{2}, 5.0}};
  EXPECT_EQ(packCoAllocationSets(Candidates, /*TraceLength=*/0, Opts).size(),
            1u);
}

TEST(CoAllocation, BenefitFloorScalesWithTheTraceLength) {
  // The floor is MinBenefitFraction of the trace length: 0.0005 * 20000
  // = 10 saved lines keeps the set worth 10 and drops the one worth 9.
  CoAllocationOptions Opts;
  std::vector<CoAllocationSet> Candidates = {{{1}, 10.0}, {{2}, 9.0}};
  std::vector<CoAllocationSet> Chosen =
      packCoAllocationSets(Candidates, /*TraceLength=*/20000, Opts);
  ASSERT_EQ(Chosen.size(), 1u);
  EXPECT_EQ(Chosen[0].Sites, (std::vector<uint32_t>{1}));
  EXPECT_EQ(packCoAllocationSets(Candidates, /*TraceLength=*/0, Opts).size(),
            2u);
}

TEST(CoAllocation, SiteGroupMapFlattens) {
  std::unordered_map<uint32_t, uint32_t> Map =
      siteGroupMap({{{1, 2}, 10.0}, {{5}, 5.0}});
  EXPECT_EQ(Map.at(1), 0u);
  EXPECT_EQ(Map.at(2), 0u);
  EXPECT_EQ(Map.at(5), 1u);
  EXPECT_EQ(Map.count(9), 0u);
}

TEST(HdsPipeline, EndToEndOnPairedAccesses) {
  // Two sites allocate pairwise-accessed objects: HDS groups both sites.
  Program P;
  FunctionId Main = P.addFunction("main");
  CallSiteId SiteA = P.addMallocSite(Main, "main>a");
  CallSiteId SiteB = P.addMallocSite(Main, "main>b");

  HdsParameters Params;
  HdsArtifacts Art = optimizeBinaryHds(
      P,
      [&](Runtime &RT) {
        std::vector<std::pair<uint64_t, uint64_t>> Pairs;
        for (int I = 0; I < 60; ++I)
          Pairs.emplace_back(RT.malloc(16, SiteA), RT.malloc(16, SiteB));
        for (int Pass = 0; Pass < 10; ++Pass)
          for (auto [A, B] : Pairs) {
            RT.load(A, 16);
            RT.load(B, 16);
          }
      },
      Params);

  EXPECT_GT(Art.Analysis.TraceLength, 0u);
  ASSERT_FALSE(Art.SiteToGroup.empty());
  ASSERT_TRUE(Art.SiteToGroup.count(SiteA));
  ASSERT_TRUE(Art.SiteToGroup.count(SiteB));
  EXPECT_EQ(Art.SiteToGroup.at(SiteA), Art.SiteToGroup.at(SiteB));
}

TEST(HdsPipeline, WrapperSiteCannotDiscriminate) {
  // All allocations share one malloc site (povray shape): at most one
  // group exists and it contains just that site.
  Program P;
  FunctionId Main = P.addFunction("main");
  FunctionId Wrap = P.addFunction("wrap");
  CallSiteId SWrap = P.addCallSite(Main, Wrap, "main>wrap");
  CallSiteId SMalloc = P.addMallocSite(Wrap, "wrap>malloc");

  HdsArtifacts Art = optimizeBinaryHds(
      P,
      [&](Runtime &RT) {
        std::vector<uint64_t> Hot, Cold;
        for (int I = 0; I < 60; ++I) {
          Runtime::Scope W(RT, SWrap);
          Hot.push_back(RT.malloc(16, SMalloc));
          Cold.push_back(RT.malloc(16, SMalloc));
        }
        for (int Pass = 0; Pass < 10; ++Pass)
          for (uint64_t H : Hot)
            RT.load(H, 16);
      },
      HdsParameters());

  for (const CoAllocationSet &G : Art.Groups)
    EXPECT_EQ(G.Sites, (std::vector<uint32_t>{SMalloc}));
}
