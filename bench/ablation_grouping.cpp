//===- bench/ablation_grouping.cpp - Section 4.2 design choice ----------------===//
//
// Compares the paper's density-guided greedy grouping (Figures 6-8)
// against a naive connectivity-based clusterer (connected components of
// the thresholded graph, mechanically split), standing in for the
// "standard modularity, HCS, or cut-based clustering techniques" the
// paper found less amenable to region-based co-allocation.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "mem/SizeClassAllocator.h"

using namespace halo;

namespace {

/// Measures HALO with an externally chosen set of groups.
double speedupWithGroups(Evaluation &Eval, const std::vector<Group> &Groups) {
  const HaloArtifacts &Base = Eval.haloArtifacts();
  IdentificationResult Ident = identifyGroups(Groups, Base.Contexts);
  InstrumentationPlan Plan(Eval.program(), Ident.Sites);
  std::vector<CompiledSelector> Compiled;
  for (const Selector &Sel : Ident.Selectors)
    Compiled.push_back(compileSelector(Sel, Plan));

  MemoryHierarchy Mem;
  SizeClassAllocator Backing;
  Runtime RT(Eval.program(), Backing);
  RT.setInstrumentation(&Plan);
  SelectorGroupPolicy Policy(RT.groupState(), Compiled);
  GroupAllocator GA(Backing, Policy, Eval.setup().Halo.Allocator);
  RT.setAllocator(GA);
  RT.setMemory(&Mem);
  Eval.workload().run(RT, Scale::Ref, 100);
  double HaloSeconds = RT.timing().seconds();

  RunMetrics BaseRun =
      Eval.measureDirect(AllocatorKind::Jemalloc, Scale::Ref, 100);
  return percentImprovement(BaseRun.Seconds, HaloSeconds);
}

} // namespace

int main() {
  Report R("Grouping algorithm ablation (HALO speedup vs jemalloc)");
  R.setColumns({"benchmark", "density greedy (paper)", "groups",
                "connected components", "groups"});
  for (const std::string &Name :
       {std::string("health"), std::string("povray"), std::string("xalanc"),
        std::string("omnetpp")}) {
    Evaluation Eval(paperSetup(Name));
    const HaloArtifacts &Art = Eval.haloArtifacts();
    double Paper = speedupWithGroups(Eval, Art.Groups);
    std::vector<Group> Naive =
        buildComponentGroups(Art.Graph, Eval.setup().Halo.Grouping);
    double Components = speedupWithGroups(Eval, Naive);
    R.addRow({Name, formatPercent(Paper), std::to_string(Art.Groups.size()),
              formatPercent(Components), std::to_string(Naive.size())});
  }
  R.addNote("connected components lump weakly related contexts together, "
            "so pools mix hot and lukewarm data; the paper's density "
            "objective builds tighter groups");
  R.print();
  return 0;
}
