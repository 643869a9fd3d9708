//===- bench/ablation_instrumentation.cpp - Section 5.2 overhead probe --------===//
//
// Reproduces the Section 5.2 control experiment: "In examining the
// performance of a configuration in which each BOLT-instrumented binary is
// run without its specialised allocator, we find that noise from the
// surrounding system is far greater than the effects of HALO's
// instrumentation" -- i.e. the set/unset instructions are not what makes
// or breaks the optimisation.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace halo;

int main() {
  Report R("Instrumented binary without the specialised allocator");
  R.setColumns({"benchmark", "instr ops", "time overhead", "L1D misses"});
  for (const std::string &Name : workloadNames()) {
    Evaluation Eval(paperSetup(Name));
    RunMetrics Base =
        Eval.measureDirect(AllocatorKind::Jemalloc, Scale::Ref, 100);
    RunMetrics Instr =
        Eval.measureDirect(AllocatorKind::HaloInstrumentedOnly,
                           Scale::Ref, 100);
    double Overhead = -percentImprovement(Base.Seconds, Instr.Seconds);
    R.addRow({Name, std::to_string(Instr.InstrumentationOps),
              formatPercent(Overhead, 4),
              Instr.Mem.L1Misses == Base.Mem.L1Misses ? "unchanged"
                                                      : "CHANGED"});
  }
  R.addNote("instrumentation adds set/unset bit operations only; memory "
            "behaviour is identical and the cycle overhead is far below "
            "the paper's system noise floor");
  R.print();
  return 0;
}
