//===- examples/povray_motivation.cpp - The paper's Figures 2 and 3 -----------===//
//
// Walks through the paper's motivating example (Section 3): a token-driven
// loop allocates objects of types A, B, and C through a pov_malloc-style
// wrapper; the access loop later touches only A and B. Prints the two heap
// layouts of Figure 3 -- the size-segregated baseline scattering C between
// A and B, and the group allocator's segregated pools -- plus the
// resulting cache behaviour.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "eval/Evaluation.h"
#include "mem/SizeClassAllocator.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <map>

using namespace halo;

int main() {
  // The povray benchmark model *is* the motivating pattern; run its
  // pipeline on the test input.
  Evaluation Eval(paperSetup("povray"));
  const HaloArtifacts &Art = Eval.haloArtifacts();

  std::printf("contexts seen while profiling povray (test input):\n");
  for (ContextId C = 0; C < Art.Contexts.size(); ++C)
    std::printf("  ctx %u: %s (%llu allocations)\n", C,
                Art.Contexts.describe(C, Eval.program()).c_str(),
                (unsigned long long)Art.Contexts.info(C).Allocations);

  std::printf("\ngroups (the paper groups Copy_Plane with Copy_CSG):\n");
  for (size_t G = 0; G < Art.Groups.size(); ++G) {
    std::printf("  group %zu:", G);
    for (GraphNodeId M : Art.Groups[G].Members)
      std::printf(" [%s]", Art.Contexts.describe(M, Eval.program()).c_str());
    std::printf("\n    selector: %s\n",
                Art.Identification.Selectors[G].describe(Eval.program()).c_str());
  }

  // Render the first few objects of each layout like Figure 3: letters by
  // allocation order, positions by address.
  auto Layout = [&](AllocatorKind Kind) {
    // Tag addresses via a fresh profiled run under the chosen allocator.
    // For illustration we re-run the first 24 allocations manually.
    MemoryHierarchy Mem;
    SizeClassAllocator Backing;
    Runtime RT(Eval.program(), Backing);
    std::unique_ptr<SelectorGroupPolicy> Policy;
    std::unique_ptr<GroupAllocator> GA;
    if (Kind == AllocatorKind::Halo) {
      RT.setInstrumentation(&Art.Plan);
      Policy = std::make_unique<SelectorGroupPolicy>(RT.groupState(),
                                                     Art.CompiledSelectors);
      GA = std::make_unique<GroupAllocator>(Backing, *Policy);
      RT.setAllocator(*GA);
    }
    // A B C A B C ... as in Figure 2's token loop.
    const Program &P = Eval.program();
    CallSiteId SMainParse = 0, SPlane = 1, SCsg = 2, STexture = 3,
               SPlanePov = 4, SCsgPov = 5, STexturePov = 6, SPovMalloc = 7;
    std::map<uint64_t, char> ByAddr;
    Runtime::Scope Parse(RT, SMainParse);
    for (int I = 0; I < 8; ++I) {
      {
        Runtime::Scope C(RT, SPlane);
        Runtime::Scope W(RT, SPlanePov);
        ByAddr[RT.malloc(32, SPovMalloc)] = 'A';
      }
      {
        Runtime::Scope C(RT, SCsg);
        Runtime::Scope W(RT, SCsgPov);
        ByAddr[RT.malloc(32, SPovMalloc)] = 'B';
      }
      {
        Runtime::Scope C(RT, STexture);
        Runtime::Scope W(RT, STexturePov);
        ByAddr[RT.malloc(32, SPovMalloc)] = 'C';
      }
    }
    (void)P;
    std::string Picture;
    for (auto &[Addr, Letter] : ByAddr)
      Picture.push_back(Letter);
    return Picture;
  };

  std::printf("\nFigure 3 layouts (objects in address order):\n");
  std::printf("  (a) size-segregated baseline: %s\n",
              Layout(AllocatorKind::Jemalloc).c_str());
  std::printf("  (b) HALO group allocator:     %s\n",
              Layout(AllocatorKind::Halo).c_str());

  // And the measured consequence on the ref input.
  const MachineConfig &M = defaultMachine();
  RunMetrics Base =
      Eval.measureDirect(M, AllocatorKind::Jemalloc, Scale::Ref, 1);
  RunMetrics Halo = Eval.measureDirect(M, AllocatorKind::Halo, Scale::Ref, 1);
  std::printf("\nref input: baseline %llu L1D misses, HALO %llu "
              "(%.1f%% reduction); time %+.1f%%\n",
              (unsigned long long)Base.Mem.L1Misses,
              (unsigned long long)Halo.Mem.L1Misses,
              100.0 * (1.0 - double(Halo.Mem.L1Misses) /
                                 double(Base.Mem.L1Misses)),
              100.0 * (Base.Seconds / Halo.Seconds - 1.0));
  std::printf("povray is compute-bound: misses drop, time barely moves "
              "(Section 5.2).\n");
  return 0;
}
