//===- tests/affinity_test.cpp - Affinity queue semantics ---------------------===//

#include "profile/AffinityQueue.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

using namespace halo;

namespace {

/// Pushes an access and returns partner object ids.
std::set<uint32_t> partners(AffinityQueue &Q, uint32_t Obj, uint64_t Bytes,
                            uint32_t Node = 0) {
  std::set<uint32_t> Ids;
  for (const AffinityQueue::Entry &E : Q.push(Obj, Node, Bytes))
    Ids.insert(E.Object);
  return Ids;
}

} // namespace

TEST(AffinityQueue, Figure5Reproduction) {
  // Figure 5: ten objects, 4-byte accesses, A = 32. The newest element is
  // affinitive to exactly the seven entries to its left.
  AffinityQueue Q(32);
  for (uint32_t Obj = 0; Obj < 9; ++Obj)
    Q.push(Obj, 0, 4);
  std::set<uint32_t> P = partners(Q, 9, 4);
  EXPECT_EQ(P.size(), 7u);
  EXPECT_EQ(P, (std::set<uint32_t>{2, 3, 4, 5, 6, 7, 8}));
}

TEST(AffinityQueue, WindowScalesWithAccessSize) {
  // 16-byte accesses with A = 32: only the immediately preceding entry is
  // within the window.
  AffinityQueue Q(32);
  Q.push(0, 0, 16);
  Q.push(1, 0, 16);
  std::set<uint32_t> P = partners(Q, 2, 16);
  EXPECT_EQ(P, (std::set<uint32_t>{1}));
}

TEST(AffinityQueue, DedupMergesConsecutiveAccesses) {
  AffinityQueue Q(64);
  Q.push(0, 0, 4);
  Q.push(1, 0, 4);
  EXPECT_FALSE(Q.lastPushMerged());
  EXPECT_TRUE(Q.push(1, 0, 4).empty()); // Merged, no traversal.
  EXPECT_TRUE(Q.lastPushMerged());
  EXPECT_EQ(Q.size(), 2u);
}

TEST(AffinityQueue, MergedBytesConsumeWindow) {
  // Repeated accesses to one object widen its macro access and push older
  // entries out of the window.
  AffinityQueue Q(16);
  Q.push(0, 0, 4);
  Q.push(1, 0, 4);
  for (int I = 0; I < 3; ++I)
    Q.push(1, 0, 4); // Entry 1 grows to 16 bytes.
  // Object 0 is now 16 bytes behind: out of the window.
  std::set<uint32_t> P = partners(Q, 2, 4);
  EXPECT_EQ(P, (std::set<uint32_t>{1}));
}

TEST(AffinityQueue, NoSelfAffinity) {
  AffinityQueue Q(64);
  Q.push(7, 0, 4);
  Q.push(8, 0, 4);
  std::set<uint32_t> P = partners(Q, 7, 4); // 7 again (non-consecutive).
  EXPECT_EQ(P, (std::set<uint32_t>{8}));    // Never itself.
}

TEST(AffinityQueue, NoDoubleCounting) {
  // Object 3 appears twice in the window but is reported once.
  AffinityQueue Q(64);
  Q.push(3, 0, 4);
  Q.push(4, 0, 4);
  Q.push(3, 0, 4);
  const std::vector<AffinityQueue::Entry> &P = Q.push(5, 0, 4);
  int ThreeCount = 0;
  for (const AffinityQueue::Entry &E : P)
    ThreeCount += E.Object == 3;
  EXPECT_EQ(ThreeCount, 1);
}

TEST(AffinityQueue, DoubleCountingWhenDisabled) {
  AffinityQueue Q(64, /*Dedup=*/true, /*NoDoubleCount=*/false);
  Q.push(3, 0, 4);
  Q.push(4, 0, 4);
  Q.push(3, 0, 4);
  const std::vector<AffinityQueue::Entry> &P = Q.push(5, 0, 4);
  int ThreeCount = 0;
  for (const AffinityQueue::Entry &E : P)
    ThreeCount += E.Object == 3;
  EXPECT_EQ(ThreeCount, 2);
}

TEST(AffinityQueue, DedupDisabledRetriggersTraversal) {
  AffinityQueue Q(64, /*Dedup=*/false);
  Q.push(0, 0, 4);
  Q.push(1, 0, 4);
  EXPECT_FALSE(Q.push(1, 0, 4).empty()); // Re-traverses; sees object 0.
}

TEST(AffinityQueue, OldEntriesPruned) {
  AffinityQueue Q(16);
  for (uint32_t Obj = 0; Obj < 100; ++Obj)
    Q.push(Obj, 0, 4);
  EXPECT_LE(Q.size(), 5u); // Only ~A/4 entries can remain reachable.
}

TEST(AffinityQueue, PartnerMetadataPreserved) {
  AffinityQueue Q(64);
  Q.push(1, /*Node=*/42, 4);
  const std::vector<AffinityQueue::Entry> &P = Q.push(2, 43, 4);
  ASSERT_EQ(P.size(), 1u);
  EXPECT_EQ(P[0].Object, 1u);
  EXPECT_EQ(P[0].Node, 42u);
  EXPECT_EQ(P[0].Bytes, 4u);
}

TEST(AffinityQueue, ZeroByteAccessCountsAsOne) {
  AffinityQueue Q(4);
  Q.push(0, 0, 0);
  Q.push(1, 0, 0);
  std::set<uint32_t> P = partners(Q, 2, 0);
  EXPECT_EQ(P.size(), 2u); // 1-byte entries: both within 4 bytes.
}

//===----------------------------------------------------------------------===//
// Zero-copy visit path (access) and the epoch-stamped dedup array.
//===----------------------------------------------------------------------===//

TEST(AffinityQueueAccess, Figure5ThroughCallback) {
  // The Figure 5 regression again, via the callback fast path: ten 4-byte
  // accesses, A = 32, the newest element sees the seven to its left.
  AffinityQueue Q(32);
  for (uint32_t Obj = 0; Obj < 9; ++Obj)
    Q.access(Obj, 0, 4, [](const AffinityQueue::Entry &) {});
  std::set<uint32_t> Seen;
  bool NewAccess = Q.access(
      9, 0, 4, [&](const AffinityQueue::Entry &E) { Seen.insert(E.Object); });
  EXPECT_TRUE(NewAccess);
  EXPECT_EQ(Seen, (std::set<uint32_t>{2, 3, 4, 5, 6, 7, 8}));
}

TEST(AffinityQueueAccess, MergedAccessReturnsFalseAndSkipsTraversal) {
  AffinityQueue Q(64);
  Q.access(0, 0, 4, [](const AffinityQueue::Entry &) {});
  Q.access(1, 0, 4, [](const AffinityQueue::Entry &) {});
  int Visits = 0;
  bool NewAccess =
      Q.access(1, 0, 4, [&](const AffinityQueue::Entry &) { ++Visits; });
  EXPECT_FALSE(NewAccess);
  EXPECT_TRUE(Q.lastPushMerged());
  EXPECT_EQ(Visits, 0);
}

TEST(AffinityQueueAccess, VisitOrderIsNewestFirst) {
  AffinityQueue Q(64);
  Q.push(10, 0, 4);
  Q.push(11, 0, 4);
  Q.push(12, 0, 4);
  std::vector<uint32_t> Order;
  Q.access(13, 0, 4,
           [&](const AffinityQueue::Entry &E) { Order.push_back(E.Object); });
  EXPECT_EQ(Order, (std::vector<uint32_t>{12, 11, 10}));
}

TEST(AffinityQueueAccess, EquivalentToPushOnRandomStreams) {
  // The materialising push() and the callback access() must report the same
  // partners in the same order for any stream and any constraint toggles.
  for (bool Dedup : {true, false}) {
    for (bool NoDoubleCount : {true, false}) {
      AffinityQueue QPush(128, Dedup, NoDoubleCount);
      AffinityQueue QVisit(128, Dedup, NoDoubleCount);
      Rng Random(Dedup * 2 + NoDoubleCount + 17);
      for (int I = 0; I < 4000; ++I) {
        uint32_t Obj = static_cast<uint32_t>(Random.nextBelow(48));
        uint64_t Bytes = 1 + Random.nextBelow(40);
        std::vector<uint32_t> FromPush;
        for (const AffinityQueue::Entry &E : QPush.push(Obj, Obj % 5, Bytes))
          FromPush.push_back(E.Object);
        std::vector<uint32_t> FromVisit;
        bool NewAccess =
            QVisit.access(Obj, Obj % 5, Bytes,
                          [&](const AffinityQueue::Entry &E) {
                            FromVisit.push_back(E.Object);
                          });
        EXPECT_EQ(FromPush, FromVisit) << "step " << I;
        EXPECT_EQ(NewAccess, !QPush.lastPushMerged()) << "step " << I;
        EXPECT_EQ(QPush.size(), QVisit.size()) << "step " << I;
      }
    }
  }
}

TEST(AffinityQueueAccess, SparseObjectIdsDedupCorrectly) {
  // Large, widely spaced ids force the epoch-mark array to grow while
  // entries with smaller ids are already in the window; dedup must still
  // report each distinct object exactly once per traversal.
  AffinityQueue Q(1 << 20);
  Q.push(3, 0, 4);
  Q.push(1000000, 0, 4);
  Q.push(3, 0, 4); // Non-consecutive duplicate.
  Q.push(7, 0, 4);
  Q.push(1000000, 0, 4); // Non-consecutive duplicate.
  const std::vector<AffinityQueue::Entry> &P = Q.push(2000000, 0, 4);
  std::multiset<uint32_t> Objects;
  for (const AffinityQueue::Entry &E : P)
    Objects.insert(E.Object);
  EXPECT_EQ(Objects, (std::multiset<uint32_t>{3, 7, 1000000}));
}

TEST(AffinityQueueAccess, StaleMarksNeverSuppressLaterTraversals) {
  // An object reported in one traversal must be reported again in the next
  // traversal if still in the window (epochs advance; marks never persist).
  AffinityQueue Q(1024);
  Q.push(1, 0, 4);
  EXPECT_EQ(Q.push(2, 0, 4).size(), 1u); // Sees 1.
  EXPECT_EQ(Q.push(3, 0, 4).size(), 2u); // Sees 1 and 2 again.
  EXPECT_EQ(Q.push(4, 0, 4).size(), 3u); // Sees 1, 2, 3 again.
}

TEST(AffinityQueueAccess, HugeObjectIdsStayCheapAndDedupCorrectly) {
  // Ids at/above the dense mark limit (including UINT32_MAX) must neither
  // wrap the sizing arithmetic nor balloon the mark array; they dedup via
  // the per-traversal fallback list instead.
  AffinityQueue Q(64);
  Q.push(~0u, 0, 4);
  const std::vector<AffinityQueue::Entry> &P = Q.push(5, 0, 4);
  ASSERT_EQ(P.size(), 1u);
  EXPECT_EQ(P[0].Object, ~0u);
  EXPECT_EQ(Q.push(~0u, 0, 4).size(), 1u); // And as a partner target.

  // A huge id appearing twice in one window is still reported once.
  Q.push(7, 0, 4);
  Q.push(~0u, 0, 4);
  int MaxCount = 0;
  for (const AffinityQueue::Entry &E : Q.push(9, 0, 4))
    MaxCount += E.Object == ~0u;
  EXPECT_EQ(MaxCount, 1);
}
