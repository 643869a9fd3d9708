//===- bench/ablation_chunk_size.cpp - Appendix A.8 flags ---------------------===//
//
// Sweeps the specialised allocator's chunk size and spare-chunk policy on
// omnetpp, the benchmark whose artefact configuration deviates from the
// defaults (--chunk-size 131072 --max-spare-chunks 0, always-reused
// chunks). Shows the trade-off the flags resolve: big chunks fragment
// under churn, purging costs re-touch traffic.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace halo;

int main() {
  Report R("Chunk-size / spare-chunk sweep on omnetpp (HALO vs jemalloc)");
  R.setColumns({"chunk size", "spares", "purge", "speedup", "frag %",
                "frag bytes"});
  struct Config {
    uint64_t Chunk;
    uint32_t Spares;
    bool Purge;
  };
  const Config Configs[] = {
      {64 * 1024, 0, false},  {128 * 1024, 0, false}, // Paper's omnetpp flags.
      {128 * 1024, 1, true},  {512 * 1024, 0, false},
      {1024 * 1024, 0, false}, {1024 * 1024, 1, true}, // Global defaults.
  };
  for (const Config &C : Configs) {
    BenchmarkSetup Setup = paperSetup("omnetpp");
    Setup.Halo.Allocator.ChunkSize = C.Chunk;
    Setup.Halo.Allocator.MaxSpareChunks = C.Spares;
    Setup.Halo.Allocator.PurgeEmptyChunks = C.Purge;
    Evaluation Eval(Setup);
    RunMetrics Base =
        Eval.measureDirect(AllocatorKind::Jemalloc, Scale::Ref, 100);
    RunMetrics Halo = Eval.measureDirect(AllocatorKind::Halo, Scale::Ref, 100);
    R.addRow({formatBytes(double(C.Chunk)), std::to_string(C.Spares),
              C.Purge ? "yes" : "no",
              formatPercent(percentImprovement(Base.Seconds, Halo.Seconds)),
              formatPercent(Halo.Frag.wastedPercent()),
              formatBytes(double(Halo.Frag.wastedBytes()))});
  }
  R.addNote("smaller chunks recycle faster under omnetpp's event churn; "
            "always-reuse avoids repeatedly faulting purged pages back in "
            "(the artefact's omnetpp/xalanc quirk)");
  R.print();
  return 0;
}
