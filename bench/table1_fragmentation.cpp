//===- bench/table1_fragmentation.cpp - Table 1 -------------------------------===//
//
// Regenerates Table 1: "Fragmentation behaviour of grouped objects at peak
// memory usage" -- the relationship between live and resident data in the
// specialised allocator, per benchmark.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace halo;

int main() {
  Report R("Table 1: fragmentation of grouped objects at peak usage");
  R.setColumns({"benchmark", "frag (%)", "frag (bytes)", "paper (%)",
                "paper (bytes)"});
  // The paper lists the nine benchmarks "where it could be easily
  // examined", sorted by fragmentation percentage; we print the same set
  // in the same order, with measured values alongside.
  for (const bench::PaperFragRow &Paper : bench::paperTable1()) {
    Evaluation Eval(paperSetup(Paper.Benchmark));
    RunMetrics M = Eval.measureDirect(AllocatorKind::Halo, Scale::Ref, 100);
    R.addRow({Paper.Benchmark, formatPercent(M.Frag.wastedPercent()),
              formatBytes(static_cast<double>(M.Frag.wastedBytes())),
              formatPercent(Paper.Percent), Paper.Bytes});
  }
  R.addNote("percentages can be large while absolute waste stays small: "
            "grouped objects are a small fraction of all allocations");
  R.print();
  return 0;
}
