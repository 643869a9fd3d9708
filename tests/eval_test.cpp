//===- tests/eval_test.cpp - Evaluation harness ------------------------------===//

#include "core/GroupAllocator.h"
#include "eval/Evaluation.h"
#include "eval/Report.h"
#include "mem/SizeClassAllocator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

using namespace halo;

namespace {

/// \p E's measurement of (\p Kind, \p S, \p Seed) on the default machine.
RunMetrics measured(Evaluation &E, AllocatorKind Kind, Scale S,
                    uint64_t Seed) {
  return E.measureDirect(defaultMachine(), Kind, S, Seed);
}

} // namespace

TEST(PaperSetup, OmnetppFlags) {
  BenchmarkSetup S = paperSetup("omnetpp");
  EXPECT_EQ(S.Allocator.ChunkSize, 128u * 1024u);
  EXPECT_EQ(S.Allocator.MaxSpareChunks, 0u);
  EXPECT_FALSE(S.Allocator.PurgeEmptyChunks);
}

TEST(PaperSetup, XalancFlags) {
  BenchmarkSetup S = paperSetup("xalanc");
  EXPECT_FALSE(S.Allocator.PurgeEmptyChunks);
  EXPECT_EQ(S.Allocator.ChunkSize, 1u << 20);
}

TEST(PaperSetup, RomsFlags) {
  BenchmarkSetup S = paperSetup("roms");
  EXPECT_EQ(S.Halo.Grouping.MaxGroups, 4u);
}

TEST(PaperSetup, DefaultsMatchSection51) {
  BenchmarkSetup S = paperSetup("health");
  EXPECT_EQ(S.Halo.Profile.AffinityDistance, 128u);
  EXPECT_EQ(S.Allocator.ChunkSize, 1u << 20);
  EXPECT_EQ(S.Allocator.MaxSpareChunks, 1u);
  EXPECT_EQ(S.ProfileScale, Scale::Test);
  EXPECT_EQ(&S.Machine, &defaultMachine());
  // What no setup varies.
  EXPECT_DOUBLE_EQ(HeapProfiler::NodeCoverage, 0.9);
  EXPECT_DOUBLE_EQ(MergeTolerance, 0.05);
  EXPECT_EQ(MaxGroupedSize, 4096u);
  EXPECT_EQ(GroupAllocator::SlabSize, 64u << 20);
}

TEST(PaperSetup, HaloAndHdsBothMeasureWithTheSetupsAllocator) {
  // Hot-data-stream co-allocation shares HALO's specialised allocator and
  // its settings (Section 5.1): the one Allocator option moves what both
  // kinds measure, on the same bundles.
  Evaluation Paper(paperSetup("xalanc"));
  BenchmarkSetup Small = paperSetup("xalanc");
  Small.Allocator.ChunkSize = 16 * 1024;
  Evaluation Changed(std::move(Small));
  Changed.setHaloArtifacts(Paper.haloArtifacts());
  Changed.setHdsArtifacts(Paper.hdsArtifacts());
  for (AllocatorKind Kind : {AllocatorKind::Halo, AllocatorKind::Hds}) {
    SCOPED_TRACE(Kind == AllocatorKind::Halo ? "halo" : "hds");
    RunMetrics A = measured(Paper, Kind, Scale::Test, 1);
    RunMetrics B = measured(Changed, Kind, Scale::Test, 1);
    EXPECT_GT(A.GroupedAllocs, 0u);
    EXPECT_EQ(A.GroupedAllocs, B.GroupedAllocs);
    EXPECT_NE(A.Frag.wastedBytes(), B.Frag.wastedBytes());
  }
}

TEST(PaperSetup, MaxGroupsCapBindsInTheHaloArtifacts) {
  // Appendix A.8: roms runs with --max-groups 4. Its own profile never
  // grows that many groups (the artefact flag is a safety cap), so hold
  // the roms invariant and additionally prove the plumbing binds by
  // tightening the same knob below health's natural group count.
  Evaluation Roms(paperSetup("roms"));
  EXPECT_LE(Roms.haloArtifacts().Groups.size(), 4u);
  EXPECT_GT(Roms.haloArtifacts().Groups.size(), 0u);

  Evaluation Natural(paperSetup("health"));
  ASSERT_GT(Natural.haloArtifacts().Groups.size(), 1u);
  BenchmarkSetup Tight = paperSetup("health");
  Tight.Halo.Grouping.MaxGroups = 1;
  Evaluation Capped(std::move(Tight));
  EXPECT_EQ(Capped.haloArtifacts().Groups.size(), 1u);
}

TEST(PaperSetup, OmnetppChunkConfigurationChangesTheMeasurement) {
  // Appendix A.8: omnetpp uses 128 KiB chunks and always-reuse. Reverting
  // to the global allocator defaults must change what a ref-scale HALO
  // run measures -- chunk granularity is the allocator's resident unit.
  Evaluation Paper(paperSetup("omnetpp"));
  BenchmarkSetup Reverted = paperSetup("omnetpp");
  Reverted.Allocator = GroupAllocatorOptions();
  Evaluation Defaults(std::move(Reverted));

  RunMetrics A = measured(Paper, AllocatorKind::Halo, Scale::Ref, 1);
  RunMetrics B = measured(Defaults, AllocatorKind::Halo, Scale::Ref, 1);
  // Same allocation stream either way...
  EXPECT_EQ(A.Events.Allocs, B.Events.Allocs);
  EXPECT_EQ(A.GroupedAllocs, B.GroupedAllocs);
  // ...but 128 KiB chunks bound the grouped heap's resident footprint
  // well below 1 MiB chunks, and the layout shift moves the caches.
  EXPECT_LT(A.Frag.PeakResident, B.Frag.PeakResident);
  EXPECT_NE(A.Mem.L1Misses, B.Mem.L1Misses);
}

namespace {

/// Everything small lands in one group: the simplest policy that drives
/// chunks through the fill -> empty -> retire cycle.
struct SingleGroupPolicy : GroupPolicy {
  int32_t selectGroup(const AllocRequest &) const override { return 0; }
  uint32_t numGroups() const override { return 1; }
};

/// Fills three chunks' worth of grouped regions, frees them all, and
/// reports what the allocator kept: (spare chunks, resident bytes).
std::pair<uint64_t, uint64_t>
churnChunks(const GroupAllocatorOptions &Options) {
  SizeClassAllocator Backing(0x7000000000ull);
  SingleGroupPolicy Policy;
  GroupAllocator GA(Backing, Policy, Options);
  const uint64_t RegionSize = 256;
  const uint64_t PerChunk =
      (Options.ChunkSize - GroupAllocator::ChunkHeaderSize) / RegionSize;
  std::vector<uint64_t> Regions;
  for (uint64_t I = 0; I < 3 * PerChunk; ++I)
    Regions.push_back(GA.allocate(AllocRequest{RegionSize, 1}));
  for (uint64_t Addr : Regions)
    GA.deallocate(Addr);
  return {GA.spareChunkCount(), GA.residentBytes()};
}

} // namespace

TEST(PaperSetup, XalancAlwaysReuseKeepsDirtyChunksResident) {
  // Appendix A.8: xalanc always reuses empty chunks instead of purging
  // them. Drive the group allocator with xalanc's exact configuration
  // (MaxSpareChunks 0, PurgeEmptyChunks off): every emptied chunk must
  // stay resident as a dirty spare, while the global defaults keep one
  // spare and purge the rest.
  auto [PaperSpares, PaperResident] =
      churnChunks(paperSetup("xalanc").Allocator);
  auto [DefaultSpares, DefaultResident] =
      churnChunks(GroupAllocatorOptions());
  EXPECT_GT(PaperSpares, DefaultSpares);
  EXPECT_GT(PaperResident, DefaultResident);
}

TEST(Evaluation, UnknownBenchmarkThrowsInvalidArgument) {
  // The one place benchmark names are validated: every caller (buildPlan,
  // the serve daemon) relies on this throwing, in every build type.
  EXPECT_THROW(Evaluation(paperSetup("gcc")), std::invalid_argument);
}

TEST(Evaluation, BaselineMetricsPopulated) {
  Evaluation E(paperSetup("ft"));
  RunMetrics M = measured(E, AllocatorKind::Jemalloc, Scale::Test, 1);
  EXPECT_GT(M.Seconds, 0.0);
  EXPECT_GT(M.Cycles, 0u);
  EXPECT_GT(M.Mem.Accesses, 0u);
  EXPECT_GT(M.Mem.L1Misses, 0u);
  EXPECT_GT(M.Events.Allocs, 0u);
  EXPECT_EQ(M.InstrumentationOps, 0u);
}

TEST(Evaluation, HaloRunGroupsAllocations) {
  Evaluation E(paperSetup("health"));
  RunMetrics M = measured(E, AllocatorKind::Halo, Scale::Test, 1);
  EXPECT_GT(M.GroupedAllocs, 0u);
  EXPECT_GT(M.ForwardedAllocs, 0u);
  EXPECT_GT(M.InstrumentationOps, 0u);
  EXPECT_GT(M.Frag.PeakResident, 0u);
}

TEST(Evaluation, HaloBeatsBaselineOnHealth) {
  // The paper's headline case, at test scale: HALO must reduce L1D misses.
  Evaluation E(paperSetup("health"));
  RunMetrics Base = measured(E, AllocatorKind::Jemalloc, Scale::Test, 1);
  RunMetrics Halo = measured(E, AllocatorKind::Halo, Scale::Test, 1);
  EXPECT_LT(Halo.Mem.L1Misses, Base.Mem.L1Misses);
}

TEST(Evaluation, InstrumentedOnlyRunCostsAlmostNothing) {
  Evaluation E(paperSetup("ft"));
  RunMetrics Base = measured(E, AllocatorKind::Jemalloc, Scale::Test, 1);
  RunMetrics Instr =
      measured(E, AllocatorKind::HaloInstrumentedOnly, Scale::Test, 1);
  EXPECT_GT(Instr.InstrumentationOps, 0u);
  // Identical memory behaviour, tiny cycle delta (Section 5.2: noise
  // dwarfs instrumentation overhead).
  EXPECT_EQ(Instr.Mem.L1Misses, Base.Mem.L1Misses);
  EXPECT_LT(Instr.Seconds, Base.Seconds * 1.01);
}

TEST(Evaluation, TrialsVaryBySeed) {
  Evaluation E(paperSetup("ft"));
  std::vector<RunMetrics> Runs;
  for (uint64_t Seed = 100; Seed < 103; ++Seed)
    Runs.push_back(measured(E, AllocatorKind::Jemalloc, Scale::Test, Seed));
  ASSERT_EQ(Runs.size(), 3u);
  EXPECT_GT(Evaluation::medianSeconds(Runs), 0.0);
  EXPECT_GT(Evaluation::medianL1Misses(Runs), 0.0);
}

TEST(Evaluation, RandomPoolsMeasurable) {
  Evaluation E(paperSetup("art"));
  RunMetrics M = measured(E, AllocatorKind::RandomPools, Scale::Test, 1);
  EXPECT_GT(M.Mem.L1Misses, 0u);
}

TEST(Evaluation, PtmallocWorseThanJemallocOnListWorkloads) {
  // Section 5.1: jemalloc universally outperforms ptmalloc2 as a baseline.
  Evaluation E(paperSetup("health"));
  RunMetrics Je = measured(E, AllocatorKind::Jemalloc, Scale::Test, 1);
  RunMetrics Pt = measured(E, AllocatorKind::Ptmalloc, Scale::Test, 1);
  EXPECT_GT(Pt.Mem.L1Misses, Je.Mem.L1Misses);
}

TEST(Report, RendersAlignedTable) {
  Report R("demo");
  R.setColumns({"bench", "value"});
  R.addRow({"health", "28.0%"});
  R.addRow({"ft", "9.5%"});
  R.addNote("a note");
  std::string Text = R.str();
  EXPECT_NE(Text.find("== demo =="), std::string::npos);
  EXPECT_NE(Text.find("bench"), std::string::npos);
  EXPECT_NE(Text.find("health  28.0%"), std::string::npos);
  EXPECT_NE(Text.find("note: a note"), std::string::npos);
}
