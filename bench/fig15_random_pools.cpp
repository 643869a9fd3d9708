//===- bench/fig15_random_pools.cpp - Figure 15 -------------------------------===//
//
// Regenerates Figure 15: execution-time change under "an allocator that
// randomly assigns small objects to one of four bump allocated pools" --
// a variant of HALO with an extremely poor grouping algorithm. Benchmarks
// hurt by it are exactly the placement-sensitive ones HALO helps.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace halo;

int main() {
  Report R("Figure 15: speedup under the random four-pool allocator "
           "(median of " +
           std::to_string(bench::trials()) + " trials)");
  R.setColumns({"benchmark", "speedup", "sensitive?"});
  ResultSet Results = bench::measure(
      workloadNames(), {AllocatorKind::Jemalloc, AllocatorKind::RandomPools});
  for (const std::string &Name : workloadNames()) {
    const auto &Base = bench::runs(Results, Name, AllocatorKind::Jemalloc);
    const auto &Random =
        bench::runs(Results, Name, AllocatorKind::RandomPools);
    double Speedup = percentImprovement(Evaluation::medianSeconds(Base),
                                        Evaluation::medianSeconds(Random));
    R.addRow({Name, formatPercent(Speedup),
              Speedup < -3.0 ? "yes" : "no"});
  }
  R.addNote("the paper reports slowdowns of up to ~60% for the placement-"
            "sensitive benchmarks and no change for the insensitive ones "
            "(roms et al.), aligning with where HALO helps");
  R.print();
  return 0;
}
