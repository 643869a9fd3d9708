//===- bench/ablation_constraints.cpp - Section 4.1 design choices ------------===//
//
// Ablates the affinity-queue constraints of Section 4.1 (deduplication,
// no double counting, co-allocatability) on the health and povray models:
// with a constraint disabled, how do the groups -- and the resulting
// performance -- change? The co-allocatability constraint is the paper's
// guard against groups that cannot actually be co-located at runtime.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace halo;

namespace {

double haloSpeedup(const std::string &Name, bool Dedup, bool NoDouble,
                   bool CoAlloc, uint64_t &GroupCount) {
  BenchmarkSetup Setup = paperSetup(Name);
  Setup.Halo.Profile.Dedup = Dedup;
  Setup.Halo.Profile.NoDoubleCount = NoDouble;
  Setup.Halo.Profile.CoAllocatability = CoAlloc;
  Evaluation Eval(Setup);
  GroupCount = Eval.haloArtifacts().Groups.size();
  RunMetrics Base =
      Eval.measureDirect(AllocatorKind::Jemalloc, Scale::Ref, 100);
  RunMetrics Halo = Eval.measureDirect(AllocatorKind::Halo, Scale::Ref, 100);
  return percentImprovement(Base.Seconds, Halo.Seconds);
}

} // namespace

int main() {
  for (const std::string &Name : {std::string("health"), std::string("omnetpp"),
                                  std::string("roms")}) {
    Report R("Affinity constraint ablation: " + Name);
    R.setColumns({"configuration", "groups", "HALO speedup"});
    struct Config {
      const char *Label;
      bool Dedup, NoDouble, CoAlloc;
    };
    const Config Configs[] = {
        {"all constraints (paper)", true, true, true},
        {"no deduplication", false, true, true},
        {"no double-count guard", true, false, true},
        {"no co-allocatability", true, true, false},
    };
    for (const Config &C : Configs) {
      uint64_t Groups = 0;
      double Speedup = haloSpeedup(Name, C.Dedup, C.NoDouble, C.CoAlloc,
                                   Groups);
      R.addRow({C.Label, std::to_string(Groups), formatPercent(Speedup)});
    }
    R.addNote("dropping co-allocatability admits groups whose members "
              "cannot actually be placed together (e.g. randomly-accessed "
              "persistent pools), diluting or reversing gains");
    R.print();
    std::printf("\n");
  }
  return 0;
}
