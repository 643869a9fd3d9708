//===- sim/TimingModel.h - Execution time accounting -----------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Accumulates an execution-time estimate for a workload run: explicit
/// compute cycles (the part of the program that is not memory-bound),
/// memory access cycles read from the cache hierarchy, small fixed costs for
/// allocator calls, and the cost of the set/unset instructions HALO's BOLT
/// pass inserts (so the ablation_instrumentation row of bench/figures can
/// measure their overhead, which the paper finds to be below system
/// noise).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SIM_TIMINGMODEL_H
#define HALO_SIM_TIMINGMODEL_H

#include <cstdint>

namespace halo {

/// Fixed per-event costs in cycles.
struct CostModel {
  uint32_t AllocCall = 20;      ///< malloc/free book-keeping cost.
  uint32_t InstrumentationOp = 1; ///< One inserted set/unset instruction.
  double CyclesPerSecond = 3.3e9; ///< W-2195 nominal clock.
};

class MemoryHierarchy;

/// Cycle accumulator for one simulated run. Memory cycles are not counted
/// here: the attached hierarchy owns them (its StallCycles), and every
/// reader of memoryCycles(), totalCycles() or seconds() drains it first.
class TimingModel {
public:
  explicit TimingModel(const CostModel &Costs = CostModel()) : Costs(Costs) {}

  /// Attaches the hierarchy whose stall cycles are this run's memory
  /// cycles (null: none). It must outlive every later read.
  void setMemory(MemoryHierarchy *Hierarchy) { Memory = Hierarchy; }

  void addCompute(uint64_t Cycles) { ComputeCycles += Cycles; }
  void addAllocatorCall() { AllocatorCycles += Costs.AllocCall; }
  void addInstrumentationOp() {
    InstrumentationCycles += Costs.InstrumentationOp;
    ++InstrumentationOps;
  }

  uint64_t computeCycles() const { return ComputeCycles; }
  uint64_t memoryCycles() const;
  uint64_t instrumentationOps() const { return InstrumentationOps; }

  uint64_t totalCycles() const {
    return ComputeCycles + memoryCycles() + AllocatorCycles +
           InstrumentationCycles;
  }

  /// Estimated wall-clock seconds at the configured frequency.
  double seconds() const {
    return static_cast<double>(totalCycles()) / Costs.CyclesPerSecond;
  }

  /// Clears this model's own buckets; the attached hierarchy keeps its
  /// cycles (reset it separately).
  void reset() {
    ComputeCycles = AllocatorCycles = InstrumentationCycles =
        InstrumentationOps = 0;
  }

private:
  CostModel Costs;
  MemoryHierarchy *Memory = nullptr;
  uint64_t ComputeCycles = 0;
  uint64_t AllocatorCycles = 0;
  uint64_t InstrumentationCycles = 0;
  uint64_t InstrumentationOps = 0;
};

} // namespace halo

#endif // HALO_SIM_TIMINGMODEL_H
