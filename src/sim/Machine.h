//===- sim/Machine.h - First-class machine models ---------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named, validated hardware models. A MachineConfig bundles everything the
/// simulator needs to impersonate one machine — cache/TLB geometry
/// (HierarchyConfig), per-level latencies (LatencyModel), and fixed event
/// costs plus clock (CostModel) — so the hardware stops being scattered
/// struct defaults and becomes a first-class, sweepable input: layout
/// decisions that only pay off on one cache geometry are exactly the kind
/// of overfitting a post-link optimiser deployed across a heterogeneous
/// fleet must avoid (cf. BOLT).
///
/// A small registry of presets covers the paper's evaluation machine
/// (`xeon-w2195`, the defaults everything else in the tree inherits — kept
/// bit-identical) plus desktop-, mobile-, and server-class geometries for
/// cross-machine sweeps (`halo_cli sweep`, BENCH_machines.json).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SIM_MACHINE_H
#define HALO_SIM_MACHINE_H

#include "sim/MemoryHierarchy.h"
#include "sim/TimingModel.h"

#include <string>
#include <vector>

namespace halo {

/// One complete hardware model: geometry + latencies + event costs.
struct MachineConfig {
  std::string Name;        ///< Registry key, e.g. "xeon-w2195".
  std::string Description; ///< Human-readable provenance.
  HierarchyConfig Hierarchy;
  CostModel Costs;

  /// Checks every invariant the simulator relies on (power-of-two line and
  /// page sizes, way spans dividing the level size, at most 256 ways per
  /// set, a TLB whose entries split evenly into ways, positive
  /// latencies and clock). Returns an empty string when the config is sane,
  /// else a description of the first violation.
  std::string validate() const;

  /// One-line geometry summary, e.g.
  /// "L1D 32KiB/8w, L2 1MiB/16w, L3 24.75MiB/11w, dTLB 64e/4w, 3.3GHz".
  std::string summary() const;
};

/// All built-in presets, in listing order. The first entry is the default
/// machine (`xeon-w2195`); every preset validates cleanly.
const std::vector<MachineConfig> &machinePresets();

/// Names of the built-in presets, in listing order.
const std::vector<std::string> &machineNames();

/// Looks up a preset by name; returns nullptr for unknown names.
const MachineConfig *findMachine(const std::string &Name);

/// The paper's evaluation machine (Xeon W-2195). Its hierarchy and costs
/// are field-for-field the HierarchyConfig/CostModel defaults, so code that
/// never mentions a machine keeps measuring exactly what it always did.
const MachineConfig &defaultMachine();

} // namespace halo

#endif // HALO_SIM_MACHINE_H
