//===- tests/support_test.cpp - Rng, stats, format, dot, binary IO ----------===//

#include "support/BinaryIO.h"
#include "support/Dot.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <set>

using namespace halo;

TEST(Rng, DeterministicForSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(Rng, ReseedResets) {
  Rng A(7);
  uint64_t First = A.next();
  A.reseed(7);
  EXPECT_EQ(A.next(), First);
}

TEST(Rng, NextBelowInRange) {
  Rng R(3);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(Rng, NextBelowOneIsZero) {
  Rng R(3);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(R.nextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(5);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 2000; ++I) {
    uint64_t V = R.nextInRange(3, 6);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 6u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 4u); // All four values appear.
}

TEST(Rng, NextDoubleUnitInterval) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, NextBoolExtremes) {
  Rng R(13);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
  }
}

TEST(Rng, NextBoolRoughlyCalibrated) {
  Rng R(17);
  int Hits = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Hits += R.nextBool(0.25);
  EXPECT_NEAR(double(Hits) / N, 0.25, 0.02);
}

TEST(Rng, PickWeightedRespectsZeros) {
  Rng R(23);
  std::vector<double> Weights = {0.0, 1.0, 0.0};
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(R.pickWeighted(Weights), 1u);
}

TEST(Rng, PickWeightedDistribution) {
  Rng R(29);
  std::vector<double> Weights = {1.0, 3.0};
  int Ones = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Ones += R.pickWeighted(Weights) == 1;
  EXPECT_NEAR(double(Ones) / N, 0.75, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng R(31);
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::multiset<int> A(V.begin(), V.end()), B(Orig.begin(), Orig.end());
  EXPECT_EQ(A, B);
}

TEST(Stats, MedianOdd) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Stats, MedianEvenInterpolates) {
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Stats, QuantileEndpoints) {
  std::vector<double> V{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(V, 1.0), 5.0);
}

TEST(Stats, QuantileSingleElement) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.25), 7.0);
}

TEST(Stats, SummarizeQuartiles) {
  std::vector<double> V;
  for (int I = 1; I <= 101; ++I)
    V.push_back(I);
  TrialSummary S = summarize(V);
  EXPECT_DOUBLE_EQ(S.Median, 51.0);
  EXPECT_DOUBLE_EQ(S.P25, 26.0);
  EXPECT_DOUBLE_EQ(S.P75, 76.0);
  EXPECT_DOUBLE_EQ(S.Min, 1.0);
  EXPECT_DOUBLE_EQ(S.Max, 101.0);
  EXPECT_EQ(S.Count, 101u);
}

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_DOUBLE_EQ(mean({}), 0.0); }

TEST(Stats, PercentImprovement) {
  EXPECT_DOUBLE_EQ(percentImprovement(200.0, 150.0), 25.0);
  EXPECT_DOUBLE_EQ(percentImprovement(100.0, 110.0), -10.0);
  EXPECT_DOUBLE_EQ(percentImprovement(0.0, 5.0), 0.0);
}

TEST(Format, Bytes) {
  EXPECT_EQ(formatBytes(512), "512B");
  EXPECT_EQ(formatBytes(2048), "2.00KiB");
  EXPECT_EQ(formatBytes(2.05 * 1024 * 1024), "2.05MiB");
}

TEST(Format, Percent) { EXPECT_EQ(formatPercent(26.47), "26.47%"); }

TEST(Format, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcdef", 4), "abcd");
}

TEST(Dot, EmitsNodesAndEdges) {
  DotWriter W("g");
  W.addNode("a", "label a", "#ff0000");
  W.addNode("b", "label b");
  W.addEdge("a", "b", 2.5);
  std::string Text = W.str();
  EXPECT_NE(Text.find("graph \"g\""), std::string::npos);
  EXPECT_NE(Text.find("\"a\" [label=\"label a\""), std::string::npos);
  EXPECT_NE(Text.find("fillcolor=\"#ff0000\""), std::string::npos);
  EXPECT_NE(Text.find("\"a\" -- \"b\" [penwidth=2.5]"), std::string::npos);
}

TEST(Dot, EscapesQuotes) {
  EXPECT_EQ(DotWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(BinaryIO, CountIsBoundedByItsMaxAndTheBytesLeft) {
  BinaryWriter W;
  W.varint(3);
  W.bytes("abc", 3);
  BinaryReader Fits(W.buffer());
  EXPECT_EQ(Fits.count(), 3u);
  // Every element takes at least one byte, so four cannot follow.
  BinaryWriter Long;
  Long.varint(4);
  Long.bytes("abc", 3);
  BinaryReader TooMany(Long.buffer());
  EXPECT_THROW(TooMany.count(), SerializationError);
  BinaryReader OverMax(W.buffer());
  EXPECT_THROW(OverMax.count(2), SerializationError);
  BinaryWriter Huge;
  Huge.varint(uint64_t(1) << 40);
  BinaryReader Hostile(Huge.buffer());
  EXPECT_THROW(Hostile.count(), SerializationError);
}
