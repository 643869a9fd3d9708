//===- bench/fig14_speedup.cpp - Figure 14 ------------------------------------===//
//
// Regenerates Figure 14: "The percentage by which both HALO and hot-data-
// stream-based co-allocation [11] improve execution time across a range of
// 11 programs." Medians over repeated trials, jemalloc baseline.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace halo;

int main() {
  Report R("Figure 14: execution time improvement vs jemalloc (median of " +
           std::to_string(bench::trials()) + " trials)");
  R.setColumns({"benchmark", "Chilimbi et al.", "HALO", "paper HDS~",
                "paper HALO~"});
  ResultSet Results = bench::measure(
      workloadNames(),
      {AllocatorKind::Jemalloc, AllocatorKind::Hds, AllocatorKind::Halo});
  for (const std::string &Name : workloadNames()) {
    ComparisonRow Row = comparisonRow(Results, Name, defaultMachine().Name);
    bench::PaperRow Paper = bench::paperFigures(Name);
    R.addRow({Name, formatPercent(Row.HdsSpeedup),
              formatPercent(Row.HaloSpeedup), formatPercent(Paper.HdsSpeed, 0),
              formatPercent(Paper.HaloSpeed, 0)});
  }
  R.addNote("paper columns are approximate bar heights from Figure 14");
  R.addNote("povray and leela are compute-bound: their miss reductions do "
            "not move execution time (Section 5.2)");
  R.print();
  return 0;
}
