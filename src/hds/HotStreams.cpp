//===- hds/HotStreams.cpp - Hot data stream extraction ----------------------===//

#include "hds/HotStreams.h"

#include <algorithm>

using namespace halo;

HotStreamAnalysis halo::findHotStreams(const std::vector<uint32_t> &Trace) {
  HotStreamAnalysis Out;
  Out.TraceLength = Trace.size();
  if (Trace.empty())
    return Out;

  Sequitur Grammar;
  for (uint32_t Ref : Trace)
    Grammar.append(Ref);

  std::vector<Sequitur::ExtractedRule> Rules = Grammar.extractRules();
  Out.GrammarRules = Rules.size();

  // Candidate streams: every non-start rule whose expansion fits the length
  // band. Rules longer than MaxStreamLength contribute their leading
  // MaxStreamLength elements (the stream the grammar repeats verbatim
  // begins there); their sub-rules cover interior regularity.
  std::vector<HotStream> Candidates;
  for (uint32_t R = 1; R < Rules.size(); ++R) {
    const Sequitur::ExtractedRule &Rule = Rules[R];
    if (Rule.ExpansionLength < MinStreamLength || Rule.Frequency < 2)
      continue;
    HotStream Stream;
    Stream.Elements = Sequitur::expandRule(Rules, R, MaxStreamLength);
    if (Stream.Elements.size() < MinStreamLength)
      continue;
    Stream.Frequency = Rule.Frequency;
    Stream.Heat = Stream.Frequency * Stream.Elements.size();
    Candidates.push_back(std::move(Stream));
  }
  Out.CandidateStreams = Candidates.size();

  // Hottest-first; minimality is served by preferring shorter streams on
  // heat ties (a sub-stream explains the same accesses more tightly).
  std::sort(Candidates.begin(), Candidates.end(),
            [](const HotStream &A, const HotStream &B) {
              if (A.Heat != B.Heat)
                return A.Heat > B.Heat;
              if (A.Elements.size() != B.Elements.size())
                return A.Elements.size() < B.Elements.size();
              return A.Elements < B.Elements;
            });

  // Select until the chosen streams account for the coverage fraction of
  // the trace.
  uint64_t Target = static_cast<uint64_t>(
      StreamCoverage * static_cast<double>(Out.TraceLength));
  uint64_t Covered = 0;
  for (HotStream &Stream : Candidates) {
    if (Covered >= Target)
      break;
    Covered += Stream.Heat;
    Out.Streams.push_back(std::move(Stream));
  }
  return Out;
}
