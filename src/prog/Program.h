//===- prog/Program.h - Synthetic binary model ------------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An explicit model of the target "binary": its functions and call sites.
/// This stands in for the x86-64 executables the paper instruments with Pin
/// and rewrites with BOLT. Functions are flagged as part of the main binary
/// or external (library code); external functions can additionally be
/// *traceable* (the paper's "handful of externally traceable routines like
/// malloc or free"). The shadow stack (trace/ShadowStack.h) consumes these
/// flags to decide which frames to record, and the BOLT-style rewriter
/// (prog/Instrumentation.h) targets call sites in the main binary.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PROG_PROGRAM_H
#define HALO_PROG_PROGRAM_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace halo {

using FunctionId = uint32_t;
using CallSiteId = uint32_t;
inline constexpr uint32_t InvalidId = ~0u;

/// One function of the modelled binary.
struct FunctionInfo {
  std::string Name;
  bool IsExternal = false;  ///< Lives outside the main binary.
  bool IsTraceable = false; ///< External but traceable (malloc family).
};

/// One static call site: an instruction in \c Caller that calls \c Callee.
struct CallSiteInfo {
  std::string Label;
  FunctionId Caller = InvalidId;
  FunctionId Callee = InvalidId;
};

/// The modelled target binary.
class Program {
public:
  Program();

  /// Adds a function. \p IsTraceable may only be set for external functions.
  FunctionId addFunction(std::string Name, bool IsExternal = false,
                         bool IsTraceable = false);

  /// Adds a call site in \p Caller invoking \p Callee.
  CallSiteId addCallSite(FunctionId Caller, FunctionId Callee,
                         std::string Label);

  /// Convenience: adds a call site invoking the built-in malloc function;
  /// workloads create one of these per distinct allocation location.
  CallSiteId addMallocSite(FunctionId Caller, std::string Label);

  const FunctionInfo &function(FunctionId Id) const {
    assert(Id < Functions.size() && "bad function id");
    return Functions[Id];
  }
  const CallSiteInfo &callSite(CallSiteId Id) const {
    assert(Id < CallSites.size() && "bad call site id");
    return CallSites[Id];
  }

  uint32_t numCallSites() const { return CallSites.size(); }

  /// The built-in external, traceable allocation routine every malloc call
  /// site targets.
  FunctionId mallocFunction() const { return MallocFunction; }

  /// True if \p Site calls the built-in malloc function.
  bool isMallocSite(CallSiteId Site) const {
    return callSite(Site).Callee == MallocFunction;
  }

private:
  std::vector<FunctionInfo> Functions;
  std::vector<CallSiteInfo> CallSites;
  FunctionId MallocFunction;
};

} // namespace halo

#endif // HALO_PROG_PROGRAM_H
