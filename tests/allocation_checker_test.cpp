//===- tests/allocation_checker_test.cpp - Allocator/attribution oracle ---===//
//
// An independent check of every allocator stack the evaluation measures.
// A test-only observer keeps its own ordered map of live objects, built
// from nothing but the runtime's alloc/free/access events, and checks:
//
//   * live objects never overlap;
//   * every allocation address is aligned to MinAlign;
//   * every allocation lies inside a live reservation of one of the
//     arenas of the allocator stack that served it;
//   * every free names a live object;
//   * every access lies inside one live object -- the property under which
//     the recording arena's arithmetic attribution and LiveObjectMap's
//     interval lookup attribute each access to the same object.
//
// It runs for every AllocatorKind on every workload at test scale, each
// kind's allocator stack built the way Evaluation::measureWith builds it.
// Planted bugs -- an allocator whose blocks overlap, one that misaligns,
// one that hands out addresses outside its arena, a double free, an
// access running off its object -- must be caught.
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluation.h"
#include "mem/BoundaryTagAllocator.h"
#include "mem/RandomPoolAllocator.h"
#include "mem/SizeClassAllocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

using namespace halo;

namespace {

/// Checks the four allocation/attribution properties over one run. No
/// workload reallocs: realloc's copy loop may read up to the allocator's
/// usable size, which the access check would flag.
class AllocationChecker final : public RuntimeObserver {
public:
  void onAlloc(uint64_t Addr, uint64_t Size, CallSiteId) override {
    uint64_t Bytes = Size ? Size : 1;
    if (Addr % MinAlign != 0)
      violation("allocation misaligned", Addr);
    if (std::none_of(Arenas.begin(), Arenas.end(),
                     [&](const VirtualArena *A) {
                       return A->covers(Addr, Bytes);
                     }))
      violation("allocation outside the allocator stack's arenas", Addr);
    auto Next = Live.lower_bound(Addr);
    if (Next != Live.end() && Next->first < Addr + Bytes)
      violation("allocation overlaps the live object above it", Addr);
    if (Next != Live.begin()) {
      auto Prev = std::prev(Next);
      if (Prev->first + Prev->second > Addr)
        violation("allocation overlaps the live object below it", Addr);
    }
    Live[Addr] = Bytes;
    ++Allocs;
  }

  void onFree(uint64_t Addr) override {
    if (Live.erase(Addr) == 0)
      violation("free names no live object", Addr);
  }

  void onAccess(uint64_t Addr, uint64_t Size, bool) override {
    uint64_t Bytes = Size ? Size : 1;
    auto It = Live.upper_bound(Addr);
    if (It == Live.begin() ||
        Addr + Bytes > std::prev(It)->first + std::prev(It)->second)
      violation("access not inside one live object", Addr);
    ++Accesses;
  }

  /// The arenas of the allocator stack under check.
  std::vector<const VirtualArena *> Arenas;
  /// The first few violations, for the failure message.
  std::vector<std::string> Violations;
  uint64_t Count = 0;
  uint64_t Allocs = 0;
  uint64_t Accesses = 0;

private:
  void violation(const char *What, uint64_t Addr) {
    if (++Count <= 5)
      Violations.push_back(std::string(What) + " at " + std::to_string(Addr));
  }

  std::map<uint64_t, uint64_t> Live; ///< start address -> size.
};

std::string describe(const AllocationChecker &C) {
  std::string Out = std::to_string(C.Count) + " violation(s)";
  for (const std::string &V : C.Violations)
    Out += "; " + V;
  return Out;
}

const AllocatorKind AllKinds[] = {
    AllocatorKind::Jemalloc,    AllocatorKind::Ptmalloc,
    AllocatorKind::Halo,        AllocatorKind::Hds,
    AllocatorKind::RandomPools, AllocatorKind::HaloInstrumentedOnly,
};

/// Runs \p Eval's workload at test scale under \p Kind's allocator stack,
/// built as Evaluation::measureWith builds it, with \p Checker attached.
void runChecked(Evaluation &Eval, AllocatorKind Kind, uint64_t Seed,
                AllocationChecker &Checker) {
  const BenchmarkSetup &Setup = Eval.setup();
  const Program &Prog = Eval.program();
  auto W = createWorkload(Setup.Name);
  SizeClassAllocator Jemalloc;
  BoundaryTagAllocator Ptmalloc;
  auto Run = [&](Runtime &RT) {
    RT.addObserver(&Checker);
    W->run(RT, Scale::Test, Seed);
  };

  switch (Kind) {
  case AllocatorKind::Jemalloc: {
    Runtime RT(Prog, Jemalloc);
    Checker.Arenas = {&Jemalloc.arena()};
    Run(RT);
    break;
  }
  case AllocatorKind::Ptmalloc: {
    Runtime RT(Prog, Ptmalloc);
    Checker.Arenas = {&Ptmalloc.arena()};
    Run(RT);
    break;
  }
  case AllocatorKind::RandomPools: {
    RandomPoolAllocator Pools(Jemalloc, /*Seed=*/Seed * 11 + 3);
    Runtime RT(Prog, Pools);
    Checker.Arenas = {&Pools.arena(), &Jemalloc.arena()};
    Run(RT);
    break;
  }
  case AllocatorKind::Halo: {
    const HaloArtifacts &Art = Eval.haloArtifacts();
    Runtime RT(Prog, Jemalloc);
    RT.setInstrumentation(&Art.Plan);
    SelectorGroupPolicy Policy(RT.groupState(), Art.CompiledSelectors);
    GroupAllocator Halo(Jemalloc, Policy, Setup.Allocator);
    RT.setAllocator(Halo);
    Checker.Arenas = {&Halo.arena(), &Jemalloc.arena()};
    Run(RT);
    break;
  }
  case AllocatorKind::Hds: {
    const HdsArtifacts &Art = Eval.hdsArtifacts();
    SiteGroupPolicy Policy(Art.SiteToGroup,
                           static_cast<uint32_t>(Art.Groups.size()));
    GroupAllocator Hds(Jemalloc, Policy, Setup.Allocator);
    Runtime RT(Prog, Hds);
    Checker.Arenas = {&Hds.arena(), &Jemalloc.arena()};
    Run(RT);
    break;
  }
  case AllocatorKind::HaloInstrumentedOnly: {
    const HaloArtifacts &Art = Eval.haloArtifacts();
    Runtime RT(Prog, Jemalloc);
    RT.setInstrumentation(&Art.Plan);
    Checker.Arenas = {&Jemalloc.arena()};
    Run(RT);
    break;
  }
  }
}

class AllocationCheckerTest : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(AllocationCheckerTest, EveryAllocatorKindIsClean) {
  Evaluation Eval(paperSetup(GetParam()));
  for (AllocatorKind Kind : AllKinds) {
    AllocationChecker Checker;
    runChecked(Eval, Kind, /*Seed=*/7, Checker);
    SCOPED_TRACE(GetParam() + " under kind " +
                 std::to_string(static_cast<int>(Kind)));
    EXPECT_GT(Checker.Allocs, 0u);
    EXPECT_GT(Checker.Accesses, 0u);
    EXPECT_EQ(Checker.Count, 0u) << describe(Checker);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, AllocationCheckerTest,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &Info) { return Info.param; });

namespace {

/// A planted bug: a size-class allocator that picks each request's class
/// from half its size (a bytes-for-halfwords slip), so a block overlaps
/// the next block carved from the same class.
class ShortClassAllocator final : public Allocator {
public:
  uint64_t allocate(const AllocRequest &Request) override {
    AllocRequest Short = Request;
    Short.Size = Request.Size > 1 ? Request.Size / 2 : 1;
    return Inner.allocate(Short);
  }
  void deallocate(uint64_t Addr) override { Inner.deallocate(Addr); }
  bool owns(uint64_t Addr) const override { return Inner.owns(Addr); }
  uint64_t usableSize(uint64_t Addr) const override {
    return Inner.usableSize(Addr);
  }
  uint64_t liveBytes() const override { return Inner.liveBytes(); }
  uint64_t residentBytes() const override { return Inner.residentBytes(); }
  std::string name() const override { return "short-class"; }

  SizeClassAllocator Inner;
};

/// A planted bug: every block shifted four bytes off its alignment.
class MisalignedAllocator final : public Allocator {
public:
  uint64_t allocate(const AllocRequest &Request) override {
    return Inner.allocate(Request) + 4;
  }
  void deallocate(uint64_t Addr) override { Inner.deallocate(Addr - 4); }
  bool owns(uint64_t Addr) const override { return Inner.owns(Addr - 4); }
  uint64_t usableSize(uint64_t Addr) const override {
    return Inner.usableSize(Addr - 4);
  }
  uint64_t liveBytes() const override { return Inner.liveBytes(); }
  uint64_t residentBytes() const override { return Inner.residentBytes(); }
  std::string name() const override { return "misaligned"; }

  SizeClassAllocator Inner;
};

/// A planted bug: blocks carved as usual but handed out 1 TiB past where
/// the arena reserved them, as if offset from another arena's base.
class StrayAllocator final : public Allocator {
public:
  static constexpr uint64_t Stray = uint64_t(1) << 40;
  uint64_t allocate(const AllocRequest &Request) override {
    return Inner.allocate(Request) + Stray;
  }
  void deallocate(uint64_t Addr) override { Inner.deallocate(Addr - Stray); }
  bool owns(uint64_t Addr) const override { return Inner.owns(Addr - Stray); }
  uint64_t usableSize(uint64_t Addr) const override {
    return Inner.usableSize(Addr - Stray);
  }
  uint64_t liveBytes() const override { return Inner.liveBytes(); }
  uint64_t residentBytes() const override { return Inner.residentBytes(); }
  std::string name() const override { return "stray"; }

  SizeClassAllocator Inner;
};

/// Runs health at test scale on \p Alloc, whose blocks must lie in
/// \p Arena, with a checker attached.
AllocationChecker checkHealthOn(Allocator &Alloc, const VirtualArena &Arena) {
  auto W = createWorkload("health");
  Program P;
  W->build(P);
  AllocationChecker Checker;
  Checker.Arenas = {&Arena};
  Runtime RT(P, Alloc);
  RT.addObserver(&Checker);
  W->run(RT, Scale::Test, 7);
  return Checker;
}

} // namespace

TEST(AllocationChecker, CatchesOverlappingBlocks) {
  ShortClassAllocator Broken;
  AllocationChecker Checker = checkHealthOn(Broken, Broken.Inner.arena());
  ASSERT_GT(Checker.Count, 0u);
  EXPECT_NE(std::string::npos, Checker.Violations[0].find("overlaps"));
}

TEST(AllocationChecker, CatchesMisalignedBlocks) {
  MisalignedAllocator Broken;
  AllocationChecker Checker = checkHealthOn(Broken, Broken.Inner.arena());
  ASSERT_GT(Checker.Count, 0u);
  EXPECT_NE(std::string::npos, Checker.Violations[0].find("misaligned"));
}

TEST(AllocationChecker, CatchesBlocksOutsideTheArena) {
  StrayAllocator Broken;
  AllocationChecker Checker = checkHealthOn(Broken, Broken.Inner.arena());
  ASSERT_GT(Checker.Count, 0u);
  EXPECT_NE(std::string::npos, Checker.Violations[0].find("outside"));
}

TEST(AllocationChecker, CatchesBadFreesAndStrayAccesses) {
  VirtualArena Arena(4096);
  Arena.reserve(VirtualArena::PageSize);
  AllocationChecker Checker;
  Checker.Arenas = {&Arena};
  Checker.onAlloc(4096, 16, 0);
  Checker.onAccess(4096, 16, false); // Fine: the whole object.
  Checker.onAccess(4104, 16, true);  // Runs 8 bytes off the end.
  Checker.onAccess(8192, 8, false);  // Touches no live object.
  Checker.onFree(4096);
  Checker.onFree(4096); // Double free.
  ASSERT_EQ(Checker.Count, 3u);
  EXPECT_NE(std::string::npos, Checker.Violations[0].find("access"));
  EXPECT_NE(std::string::npos, Checker.Violations[1].find("access"));
  EXPECT_NE(std::string::npos, Checker.Violations[2].find("free"));
}
