//===- hds/HotStreams.h - Hot data stream extraction ------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hot data streams (Chilimbi [8], as used by Chilimbi & Shaham [11]): a
/// data reference trace is compressed with SEQUITUR, and grammar rules
/// whose expansions recur frequently become *streams*. Following the
/// paper's replication setup (Section 5.1), minimal streams of 2..20
/// elements are detected with the stream threshold set so the selected hot
/// streams account for 90% of all heap accesses.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_HDS_HOTSTREAMS_H
#define HALO_HDS_HOTSTREAMS_H

#include "hds/Sequitur.h"

#include <cstdint>
#include <vector>

namespace halo {

/// One hot data stream: a recurring object access sequence.
struct HotStream {
  std::vector<uint32_t> Elements; ///< Object ids, in access order.
  uint64_t Frequency = 0;         ///< Occurrences in the trace.
  uint64_t Heat = 0;              ///< Frequency * Elements.size().
};

/// The length band of a stream, in elements (the paper's replication
/// setup).
inline constexpr uint32_t MinStreamLength = 2;
inline constexpr uint32_t MaxStreamLength = 20;
/// Streams are selected hottest-first until they cover this fraction of
/// the trace ("the stream threshold set to account for 90% of all heap
/// accesses").
inline constexpr double StreamCoverage = 0.9;

/// Result of extraction, including diagnostics the evaluation reports
/// (Section 5.2 contrasts roms' >150,000 streams with HALO's 31 nodes).
struct HotStreamAnalysis {
  std::vector<HotStream> Streams; ///< Hot streams, hottest first.
  uint64_t TraceLength = 0;
  uint64_t GrammarRules = 0;
  uint64_t CandidateStreams = 0;
};

/// Compresses \p Trace with SEQUITUR and extracts hot data streams.
HotStreamAnalysis findHotStreams(const std::vector<uint32_t> &Trace);

} // namespace halo

#endif // HALO_HDS_HOTSTREAMS_H
