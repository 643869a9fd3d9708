//===- bench/fig12_affinity_distance.cpp - Figure 12 --------------------------===//
//
// Regenerates Figure 12: "Time taken by omnetpp at various affinity
// distances", with the unmodified-jemalloc median as the dashed baseline.
// The paper selects A = 128 from this sweep as a good trade-off between
// gains and profiling overhead.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace halo;

int main() {
  Report R("Figure 12: omnetpp execution time vs affinity distance");
  R.setColumns({"affinity distance", "median time (sim s)", "vs baseline"});

  ResultSet Base = bench::measure({"omnetpp"}, {AllocatorKind::Jemalloc});
  double BaseTime = Evaluation::medianSeconds(
      bench::runs(Base, "omnetpp", AllocatorKind::Jemalloc));

  // A plan holds one setup per benchmark name, so each distance is a plan.
  for (int Power = 3; Power <= 17; Power += 2) {
    ResultSet Halo = bench::measure(
        {"omnetpp"}, {AllocatorKind::Halo}, [Power](const std::string &Name) {
          BenchmarkSetup Setup = paperSetup(Name);
          Setup.Halo.Profile.AffinityDistance = uint64_t(1) << Power;
          return Setup;
        });
    double Time = Evaluation::medianSeconds(
        bench::runs(Halo, "omnetpp", AllocatorKind::Halo));
    R.addRow({"2^" + std::to_string(Power), formatDouble(Time, 4),
              formatPercent(percentImprovement(BaseTime, Time))});
  }
  R.addRow({"baseline (jemalloc)", formatDouble(BaseTime, 4), "-"});
  R.addNote("the paper picks A = 128 (2^7): good gains at low profiling "
            "overhead; distances sweep 2^3..2^17 as in Figure 12");
  R.print();
  return 0;
}
