//===- sim/TimingModel.cpp - Execution time accounting ---------------------===//

#include "sim/TimingModel.h"

#include "sim/MemoryHierarchy.h"

using namespace halo;

uint64_t TimingModel::memoryCycles() const {
  return Memory ? Memory->counters().StallCycles : 0;
}
