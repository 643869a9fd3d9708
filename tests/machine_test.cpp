//===- tests/machine_test.cpp - Machine model / preset tests -----------------===//
//
// The MachineConfig contract: every preset validates, round-trips through
// the registry, and drives Tlb/Cache/TimingModel soundly; the default
// preset is field-for-field the struct defaults (so machine-less code keeps
// measuring exactly what it always did); distinct presets produce distinct
// measurements from one machine-independent trace; and comparison rows
// reduced from a plan are bit-identical at any jobs count.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiment.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

#include <set>

using namespace halo;

namespace {

class MachinePresetTest : public ::testing::TestWithParam<std::string> {
protected:
  const MachineConfig &machine() const { return *findMachine(GetParam()); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(MachineRegistry, HasTheFourBuiltinPresets) {
  const std::vector<std::string> &Names = machineNames();
  ASSERT_GE(Names.size(), 4u);
  for (const char *Expected :
       {"xeon-w2195", "skylake-desktop", "mobile", "server"})
    EXPECT_NE(std::find(Names.begin(), Names.end(), Expected), Names.end())
        << "missing preset " << Expected;
  // Names are unique (the registry is keyed by them).
  EXPECT_EQ(std::set<std::string>(Names.begin(), Names.end()).size(),
            Names.size());
}

TEST(MachineRegistry, RoundTripsEveryPresetByName) {
  for (const MachineConfig &M : machinePresets()) {
    const MachineConfig *Found = findMachine(M.Name);
    ASSERT_NE(Found, nullptr) << M.Name;
    EXPECT_EQ(Found, &M); // Same registry object, not a copy.
    EXPECT_EQ(Found->Name, M.Name);
  }
}

TEST(MachineRegistry, UnknownNamesReturnNull) {
  EXPECT_EQ(findMachine(""), nullptr);
  EXPECT_EQ(findMachine("xeon"), nullptr);
  EXPECT_EQ(findMachine("XEON-W2195"), nullptr); // Names are exact.
}

TEST(MachineRegistry, DefaultMachineIsTheStructDefaults) {
  const MachineConfig &M = defaultMachine();
  EXPECT_EQ(M.Name, "xeon-w2195");

  // Field-for-field identity with the default-constructed structs: this is
  // what keeps machine-less code (and the pre-machine golden JSON)
  // bit-identical.
  HierarchyConfig Default;
  EXPECT_EQ(M.Hierarchy.L1.SizeBytes, Default.L1.SizeBytes);
  EXPECT_EQ(M.Hierarchy.L1.Ways, Default.L1.Ways);
  EXPECT_EQ(M.Hierarchy.L1.LineSize, Default.L1.LineSize);
  EXPECT_EQ(M.Hierarchy.L2.SizeBytes, Default.L2.SizeBytes);
  EXPECT_EQ(M.Hierarchy.L2.Ways, Default.L2.Ways);
  EXPECT_EQ(M.Hierarchy.L3.SizeBytes, Default.L3.SizeBytes);
  EXPECT_EQ(M.Hierarchy.L3.Ways, Default.L3.Ways);
  EXPECT_EQ(M.Hierarchy.TlbEntries, Default.TlbEntries);
  EXPECT_EQ(M.Hierarchy.TlbWays, Default.TlbWays);
  EXPECT_EQ(M.Hierarchy.Latency.L1Hit, Default.Latency.L1Hit);
  EXPECT_EQ(M.Hierarchy.Latency.L2Hit, Default.Latency.L2Hit);
  EXPECT_EQ(M.Hierarchy.Latency.L3Hit, Default.Latency.L3Hit);
  EXPECT_EQ(M.Hierarchy.Latency.Memory, Default.Latency.Memory);
  EXPECT_EQ(M.Hierarchy.Latency.TlbMiss, Default.Latency.TlbMiss);

  CostModel DefaultCosts;
  EXPECT_EQ(M.Costs.AllocCall, DefaultCosts.AllocCall);
  EXPECT_EQ(M.Costs.InstrumentationOp, DefaultCosts.InstrumentationOp);
  EXPECT_DOUBLE_EQ(M.Costs.CyclesPerSecond, DefaultCosts.CyclesPerSecond);
}

TEST(MachineRegistry, PresetGeometriesAreDistinct) {
  std::set<std::string> Summaries;
  for (const MachineConfig &M : machinePresets())
    Summaries.insert(M.summary());
  EXPECT_EQ(Summaries.size(), machinePresets().size());
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

TEST(MachineValidation, RejectsBrokenGeometries) {
  MachineConfig M = defaultMachine();
  EXPECT_EQ(M.validate(), "");

  MachineConfig NoName = M;
  NoName.Name.clear();
  EXPECT_NE(NoName.validate(), "");

  MachineConfig OddLine = M;
  OddLine.Hierarchy.L1.LineSize = 48; // Not a power of two.
  EXPECT_NE(OddLine.validate(), "");

  MachineConfig ZeroWays = M;
  ZeroWays.Hierarchy.L2.Ways = 0;
  EXPECT_NE(ZeroWays.validate(), "");

  MachineConfig TooManyWays = M;
  TooManyWays.Hierarchy.L3.Ways = 512; // Past the 256-way scan bound.
  TooManyWays.Hierarchy.L3.SizeBytes = 512 * 64 * 8;
  EXPECT_NE(TooManyWays.validate(), "");

  MachineConfig RaggedSize = M;
  RaggedSize.Hierarchy.L1.SizeBytes = 1000; // Not a way-span multiple.
  EXPECT_NE(RaggedSize.validate(), "");

  MachineConfig MixedLines = M;
  MixedLines.Hierarchy.L2.LineSize = 128;
  MixedLines.Hierarchy.L2.SizeBytes = 1024 * 1024;
  EXPECT_NE(MixedLines.validate(), "");

  MachineConfig RaggedTlb = M;
  RaggedTlb.Hierarchy.TlbEntries = 63; // Not divisible by 4 ways.
  EXPECT_NE(RaggedTlb.validate(), "");

  MachineConfig InvertedLat = M;
  InvertedLat.Hierarchy.Latency.L2Hit = 2; // Faster than L1.
  EXPECT_NE(InvertedLat.validate(), "");

  MachineConfig NoClock = M;
  NoClock.Costs.CyclesPerSecond = 0.0;
  EXPECT_NE(NoClock.validate(), "");
}

//===----------------------------------------------------------------------===//
// Per-preset hardware invariants (Tlb / Cache / TimingModel)
//===----------------------------------------------------------------------===//

TEST_P(MachinePresetTest, ValidatesCleanlyAndSummarises) {
  const MachineConfig &M = machine();
  EXPECT_EQ(M.validate(), "");
  EXPECT_FALSE(M.Description.empty());
  EXPECT_NE(M.summary().find("L1D"), std::string::npos);
}

TEST_P(MachinePresetTest, CacheLevelsHavePowerOfTwoLinesAndExactSets) {
  const MachineConfig &M = machine();
  for (const CacheConfig *Level :
       {&M.Hierarchy.L1, &M.Hierarchy.L2, &M.Hierarchy.L3}) {
    Cache C(*Level);
    // Line size is a power of two.
    EXPECT_EQ(Level->LineSize & (Level->LineSize - 1), 0u);
    // The geometry divides exactly into sets.
    EXPECT_EQ(uint64_t(C.numSets()) * Level->Ways * Level->LineSize,
              Level->SizeBytes);
    EXPECT_GT(C.numSets(), 0u);
  }
}

TEST_P(MachinePresetTest, CacheCountersAreSane) {
  const MachineConfig &M = machine();
  Cache C(M.Hierarchy.L1);
  EXPECT_FALSE(C.access(0));   // Cold miss.
  EXPECT_TRUE(C.access(0));    // Repeat hit (MRU path).
  EXPECT_TRUE(C.contains(0));
  EXPECT_EQ(C.hits(), 1u);
  EXPECT_EQ(C.misses(), 1u);
  EXPECT_EQ(C.accesses(), 2u);
  C.reset();
  EXPECT_EQ(C.accesses(), 0u);
  EXPECT_FALSE(C.contains(0));
}

TEST_P(MachinePresetTest, TlbEvictsAtItsConfiguredCapacity) {
  const MachineConfig &M = machine();
  const uint32_t Entries = M.Hierarchy.TlbEntries;
  Tlb T(Entries, M.Hierarchy.TlbWays);
  // Touch pages that all land in TLB set 0 until the set overflows: way
  // count + 1 distinct pages must evict the first one.
  const uint32_t Sets = Entries / M.Hierarchy.TlbWays;
  for (uint64_t P = 0; P <= M.Hierarchy.TlbWays; ++P)
    T.access(P * Sets * 4096);
  EXPECT_FALSE(T.access(0)); // Evicted.
  EXPECT_GT(T.misses(), uint64_t(M.Hierarchy.TlbWays));
}

TEST_P(MachinePresetTest, TimingModelUsesThePresetCosts) {
  const MachineConfig &M = machine();
  TimingModel T(M.Costs);
  T.addCompute(100);
  T.addAllocatorCall();
  T.addInstrumentationOp();
  EXPECT_EQ(T.totalCycles(),
            100 + M.Costs.AllocCall + M.Costs.InstrumentationOp);
  EXPECT_DOUBLE_EQ(T.seconds(), static_cast<double>(T.totalCycles()) /
                                    M.Costs.CyclesPerSecond);
}

TEST_P(MachinePresetTest, HierarchyChargesThePresetLatencies) {
  const MachineConfig &M = machine();
  MemoryHierarchy Mem(M.Hierarchy);
  const LatencyModel &Lat = M.Hierarchy.Latency;
  // Cold access: TLB miss + memory fill; hot repeat: L1 hit.
  Mem.access(0, 8);
  uint64_t Cold = Mem.counters().StallCycles;
  EXPECT_EQ(Cold, Lat.TlbMiss + Lat.Memory);
  Mem.access(0, 8);
  MemoryCounters C = Mem.counters();
  EXPECT_EQ(C.StallCycles - Cold, Lat.L1Hit);
  EXPECT_EQ(C.Accesses, 2u);
  EXPECT_EQ(C.L1Misses, 1u);
  EXPECT_EQ(C.TlbMisses, 1u);
  EXPECT_EQ(C.StallCycles, Lat.TlbMiss + Lat.Memory + Lat.L1Hit);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, MachinePresetTest,
                         ::testing::ValuesIn(machineNames()),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

//===----------------------------------------------------------------------===//
// Cross-machine measurement
//===----------------------------------------------------------------------===//

TEST(MachineMeasurement, OneTraceReplaysUnderEveryMachine) {
  Evaluation Eval(paperSetup("health"));
  const EventTrace &Recorded = Eval.trace(Scale::Test, 7);

  std::set<uint64_t> StallCycles;
  for (const MachineConfig &M : machinePresets()) {
    RunMetrics R = Eval.measure(M, AllocatorKind::Jemalloc, Scale::Test, 7);
    // The trace is machine-independent: one recording, no re-recording.
    EXPECT_EQ(&Eval.trace(Scale::Test, 7), &Recorded);
    // The event stream is identical on every machine...
    RunMetrics Default = Eval.measure(defaultMachine(), AllocatorKind::Jemalloc,
                                      Scale::Test, 7);
    EXPECT_EQ(R.Events.Allocs, Default.Events.Allocs) << M.Name;
    EXPECT_EQ(R.Events.Loads, Default.Events.Loads) << M.Name;
    EXPECT_EQ(R.Events.Stores, Default.Events.Stores) << M.Name;
    EXPECT_EQ(R.Mem.Accesses, Default.Mem.Accesses) << M.Name;
    // ...and the counters are sane.
    EXPECT_GT(R.Mem.L1Misses, 0u) << M.Name;
    EXPECT_LE(R.Mem.L2Misses, R.Mem.L1Misses) << M.Name;
    EXPECT_LE(R.Mem.L3Misses, R.Mem.L2Misses) << M.Name;
    EXPECT_GT(R.Cycles, 0u) << M.Name;
    StallCycles.insert(R.Mem.StallCycles);
  }
  // ...but the machines themselves are distinguishable: no two presets
  // charge the same stall total for this workload.
  EXPECT_EQ(StallCycles.size(), machinePresets().size());
}

//===----------------------------------------------------------------------===//
// Cross-benchmark comparisons (halo_cli plot's backing store): one plan,
// reduced per benchmark by comparisonRow.
//===----------------------------------------------------------------------===//

namespace {

/// jemalloc/HDS/HALO on \p Benchmarks at test scale, two trials each.
ExperimentSpec comparisonSpec(std::vector<std::string> Benchmarks,
                              std::vector<const MachineConfig *> Machines) {
  ExperimentSpec Spec;
  Spec.Benchmarks = std::move(Benchmarks);
  Spec.Machines = std::move(Machines);
  Spec.S = Scale::Test;
  Spec.Trials = 2;
  return Spec;
}

} // namespace

TEST(CompareAcrossBenchmarks, ShardedRowsMatchSerialRows) {
  const std::vector<std::string> Names = {"ft", "health"};
  const MachineConfig &M = defaultMachine();
  ExperimentPlan SerialPlan = buildPlan({comparisonSpec(Names, {&M})});
  ResultSet Serial = runPlan(SerialPlan, /*Jobs=*/1);
  ExperimentPlan ParallelPlan = buildPlan({comparisonSpec(Names, {&M})});
  ResultSet Parallel = runPlan(ParallelPlan, /*Jobs=*/2);
  for (const std::string &Name : Names) {
    SCOPED_TRACE(Name);
    ComparisonRow A = comparisonRow(Serial, Name, M.Name, Scale::Test);
    ComparisonRow B = comparisonRow(Parallel, Name, M.Name, Scale::Test);
    EXPECT_EQ(A.Benchmark, Name);
    EXPECT_EQ(B.Benchmark, Name);
    EXPECT_DOUBLE_EQ(A.HaloMissReduction, B.HaloMissReduction);
    EXPECT_DOUBLE_EQ(A.HdsMissReduction, B.HdsMissReduction);
    EXPECT_DOUBLE_EQ(A.HaloSpeedup, B.HaloSpeedup);
    EXPECT_DOUBLE_EQ(A.HdsSpeedup, B.HdsSpeedup);
  }
}

TEST(CompareAcrossBenchmarks, HonoursTheMachineArgument) {
  const MachineConfig &Mobile = *findMachine("mobile");
  const MachineConfig &Default = defaultMachine();
  ExperimentPlan Plan =
      buildPlan({comparisonSpec({"health"}, {&Mobile, &Default})});
  ResultSet Results = runPlan(Plan, /*Jobs=*/1);
  ComparisonRow OnMobile =
      comparisonRow(Results, "health", Mobile.Name, Scale::Test);
  ComparisonRow OnDefault =
      comparisonRow(Results, "health", Default.Name, Scale::Test);
  // Different hardware, different headline numbers (the whole point of
  // cross-machine sweeps).
  EXPECT_NE(OnMobile.HaloSpeedup, OnDefault.HaloSpeedup);
}
