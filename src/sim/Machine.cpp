//===- sim/Machine.cpp - First-class machine models -------------------------===//

#include "sim/Machine.h"

#include "support/Bits.h"

#include <cassert>
#include <cstdio>

using namespace halo;

namespace {

/// Validates one cache level against everything Cache's constructor and hot
/// path assume.
std::string checkLevel(const char *Level, const CacheConfig &C) {
  std::string Where(Level);
  if (C.LineSize == 0 || !isPowerOfTwo(C.LineSize))
    return Where + ": line size must be a non-zero power of two";
  if (C.Ways == 0)
    return Where + ": needs at least one way";
  // Every access past a set's MRU way scans and shifts the set's
  // recency-ordered tags, so its cost grows with the way count; 256 ways
  // (2 KiB of tags per set) is far beyond any modelled part.
  if (C.Ways > 256)
    return Where + ": way count must be at most 256";
  if (C.SizeBytes == 0 ||
      C.SizeBytes % (uint64_t(C.Ways) * C.LineSize) != 0)
    return Where + ": size must be a non-zero multiple of ways * line size";
  return "";
}

/// "32KiB", "1.25MiB" — presets use exact binary sizes, so %g is clean.
std::string fmtSize(uint64_t Bytes) {
  char Buf[32];
  if (Bytes >= 1024 * 1024)
    std::snprintf(Buf, sizeof(Buf), "%gMiB",
                  static_cast<double>(Bytes) / (1024.0 * 1024.0));
  else
    std::snprintf(Buf, sizeof(Buf), "%gKiB",
                  static_cast<double>(Bytes) / 1024.0);
  return Buf;
}

} // namespace

std::string MachineConfig::validate() const {
  if (Name.empty())
    return "machine needs a name";
  if (std::string Err = checkLevel("L1D", Hierarchy.L1); !Err.empty())
    return Err;
  if (std::string Err = checkLevel("L2", Hierarchy.L2); !Err.empty())
    return Err;
  if (std::string Err = checkLevel("L3", Hierarchy.L3); !Err.empty())
    return Err;
  // The hierarchy splits accesses at L1-line granularity and feeds the
  // resulting line addresses to every level; mixed line sizes would silently
  // alias lines in the outer levels.
  if (Hierarchy.L2.LineSize != Hierarchy.L1.LineSize ||
      Hierarchy.L3.LineSize != Hierarchy.L1.LineSize)
    return "all cache levels must share the L1 line size";
  if (Hierarchy.TlbWays == 0 || Hierarchy.TlbWays > 256)
    return "dTLB way count must be in [1, 256]";
  if (Hierarchy.TlbEntries == 0 ||
      Hierarchy.TlbEntries % Hierarchy.TlbWays != 0)
    return "dTLB entries must be a non-zero multiple of its ways";
  const LatencyModel &Lat = Hierarchy.Latency;
  if (Lat.L1Hit == 0 || Lat.L2Hit == 0 || Lat.L3Hit == 0 ||
      Lat.Memory == 0 || Lat.TlbMiss == 0)
    return "per-level latencies must be positive";
  if (!(Lat.L1Hit <= Lat.L2Hit && Lat.L2Hit <= Lat.L3Hit &&
        Lat.L3Hit <= Lat.Memory))
    return "latencies must not shrink outward (L1 <= L2 <= L3 <= memory)";
  if (Costs.CyclesPerSecond <= 0.0)
    return "clock frequency must be positive";
  return "";
}

std::string MachineConfig::summary() const {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "L1D %s/%uw, L2 %s/%uw, L3 %s/%uw, dTLB %ue/%uw, %gGHz",
                fmtSize(Hierarchy.L1.SizeBytes).c_str(), Hierarchy.L1.Ways,
                fmtSize(Hierarchy.L2.SizeBytes).c_str(), Hierarchy.L2.Ways,
                fmtSize(Hierarchy.L3.SizeBytes).c_str(), Hierarchy.L3.Ways,
                Hierarchy.TlbEntries, Hierarchy.TlbWays,
                Costs.CyclesPerSecond / 1e9);
  return Buf;
}

const std::vector<MachineConfig> &halo::machinePresets() {
  static const std::vector<MachineConfig> Presets = [] {
    std::vector<MachineConfig> M;

    {
      // The paper's Section 5 evaluation machine. Hierarchy and Costs stay
      // the struct defaults on purpose: this preset IS the default machine,
      // and code that never names a machine must keep producing bit-
      // identical results.
      MachineConfig C;
      C.Name = "xeon-w2195";
      C.Description = "Intel Xeon W-2195 (Skylake-SP workstation, the "
                      "paper's evaluation machine)";
      M.push_back(std::move(C));
    }

    {
      // Client Skylake: same L1, a quarter of the per-core L2, a shared
      // 8 MiB L3 that is both smaller and faster than the W-2195's mesh
      // L3, and a higher clock.
      MachineConfig C;
      C.Name = "skylake-desktop";
      C.Description = "Skylake desktop (i7-6700K class)";
      C.Hierarchy.L2 = CacheConfig{256 * 1024, 4, 64};
      C.Hierarchy.L3 = CacheConfig{8 * 1024 * 1024, 16, 64};
      C.Hierarchy.Latency = LatencyModel{4, 12, 42, 190, 22};
      C.Costs.CyclesPerSecond = 4.0e9;
      M.push_back(std::move(C));
    }

    {
      // Low-power mobile class: halved L1 associativity, 2 MiB last-level
      // cache, a 32-entry dTLB, short absolute latencies but a 2 GHz
      // clock. The small TLB is what punishes page-scattered layouts here.
      MachineConfig C;
      C.Name = "mobile";
      C.Description = "Low-power mobile SoC class";
      C.Hierarchy.L1 = CacheConfig{32 * 1024, 4, 64};
      C.Hierarchy.L2 = CacheConfig{512 * 1024, 8, 64};
      C.Hierarchy.L3 = CacheConfig{2 * 1024 * 1024, 8, 64};
      C.Hierarchy.TlbEntries = 32;
      C.Hierarchy.Latency = LatencyModel{3, 10, 28, 150, 20};
      C.Costs = CostModel{22, 1, 2.0e9};
      M.push_back(std::move(C));
    }

    {
      // Big-core server class (Ice-Lake-SP like): 48 KiB 12-way L1D,
      // 1.25 MiB L2, a 36 MiB L3 whose 49152 sets are not a power of two
      // (exercising the modulo set-index path, like the W-2195's L3), a
      // 128-entry dTLB, and slower far memory.
      MachineConfig C;
      C.Name = "server";
      C.Description = "Big-core server class (Ice-Lake-SP like)";
      C.Hierarchy.L1 = CacheConfig{48 * 1024, 12, 64};
      C.Hierarchy.L2 = CacheConfig{1280 * 1024, 20, 64};
      C.Hierarchy.L3 = CacheConfig{36 * 1024 * 1024, 12, 64};
      C.Hierarchy.TlbEntries = 128;
      C.Hierarchy.TlbWays = 8;
      C.Hierarchy.Latency = LatencyModel{5, 16, 80, 260, 30};
      C.Costs = CostModel{18, 1, 2.6e9};
      M.push_back(std::move(C));
    }

    for (const MachineConfig &C : M) {
      std::string Err = C.validate();
      (void)Err;
      assert(Err.empty() && "broken built-in machine preset");
    }
    return M;
  }();
  return Presets;
}

const std::vector<std::string> &halo::machineNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const MachineConfig &C : machinePresets())
      N.push_back(C.Name);
    return N;
  }();
  return Names;
}

const MachineConfig *halo::findMachine(const std::string &Name) {
  for (const MachineConfig &C : machinePresets())
    if (C.Name == Name)
      return &C;
  return nullptr;
}

const MachineConfig &halo::defaultMachine() { return machinePresets().front(); }
