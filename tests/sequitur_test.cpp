//===- tests/sequitur_test.cpp - SEQUITUR grammar inference -------------------===//

#include "hds/Sequitur.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>

using namespace halo;

namespace {

/// Feeds a string (one terminal per char) and extracts the rules.
std::vector<Sequitur::ExtractedRule> infer(const std::string &Input) {
  Sequitur S;
  for (char C : Input)
    S.append(static_cast<uint32_t>(C));
  return S.extractRules();
}

/// Fully expands the start rule.
std::string expandAll(const std::vector<Sequitur::ExtractedRule> &Rules) {
  std::vector<uint32_t> Terminals =
      Sequitur::expandRule(Rules, 0, 1 << 20);
  std::string Out;
  for (uint32_t T : Terminals)
    Out.push_back(static_cast<char>(T));
  return Out;
}

/// Checks the digram-uniqueness invariant over the extracted grammar: no
/// adjacent symbol pair occurs twice, except for *overlapping* occurrences
/// (e.g. X X X), which SEQUITUR deliberately leaves alone.
void expectDigramUniqueness(const std::vector<Sequitur::ExtractedRule> &Rules) {
  std::map<std::pair<uint64_t, uint64_t>, std::pair<size_t, size_t>> Last;
  for (size_t RI = 0; RI < Rules.size(); ++RI) {
    const Sequitur::ExtractedRule &R = Rules[RI];
    for (size_t I = 0; I + 1 < R.Body.size(); ++I) {
      uint64_t A = (uint64_t(R.Body[I].IsRule) << 32) | R.Body[I].Value;
      uint64_t B =
          (uint64_t(R.Body[I + 1].IsRule) << 32) | R.Body[I + 1].Value;
      auto [It, New] = Last.emplace(std::make_pair(A, B),
                                    std::make_pair(RI, I));
      if (!New) {
        auto [PrevRule, PrevPos] = It->second;
        bool Overlapping = PrevRule == RI && I == PrevPos + 1;
        EXPECT_TRUE(Overlapping)
            << "repeated non-overlapping digram in rule " << RI;
        It->second = {RI, I};
      }
    }
  }
}

} // namespace

TEST(Sequitur, RoundTripsShortStrings) {
  for (const std::string In :
       {"a", "ab", "abab", "abcabc", "aaaa", "abcdbc", "mississippi"}) {
    auto Rules = infer(In);
    EXPECT_EQ(expandAll(Rules), In) << "input: " << In;
  }
}

TEST(Sequitur, AbabCreatesOneRule) {
  auto Rules = infer("abab");
  // Start rule = R1 R1, R1 = ab.
  ASSERT_EQ(Rules.size(), 2u);
  EXPECT_EQ(Rules[0].Body.size(), 2u);
  EXPECT_TRUE(Rules[0].Body[0].IsRule);
  EXPECT_EQ(Rules[1].Body.size(), 2u);
  EXPECT_FALSE(Rules[1].Body[0].IsRule);
}

TEST(Sequitur, RuleUtilityInlinesSingleUseRules) {
  // The classic example: abcdbcabcdbc creates nested rules, and every
  // surviving rule is used at least twice.
  auto Rules = infer("abcdbcabcdbc");
  EXPECT_EQ(expandAll(Rules), "abcdbcabcdbc");
  // Count rule references.
  std::map<uint32_t, int> Uses;
  for (const auto &R : Rules)
    for (const auto &B : R.Body)
      if (B.IsRule)
        ++Uses[B.Value];
  for (const auto &[Rule, Count] : Uses)
    EXPECT_GE(Count, 2) << "rule " << Rule << " used once";
}

TEST(Sequitur, DigramUniquenessHolds) {
  expectDigramUniqueness(infer("abcdbcabcdbcaaaabbbb"));
  expectDigramUniqueness(infer("xyxyxyxyxy"));
  expectDigramUniqueness(infer("aabbaabbaabb"));
}

TEST(Sequitur, FrequenciesPropagate) {
  // "ababab": S = R R R (or similar); R = ab occurs three times.
  auto Rules = infer("ababab");
  bool FoundAb = false;
  for (uint32_t R = 1; R < Rules.size(); ++R) {
    auto Expansion = Sequitur::expandRule(Rules, R, 10);
    if (Expansion == std::vector<uint32_t>{'a', 'b'}) {
      FoundAb = true;
      EXPECT_EQ(Rules[R].Frequency, 3u);
      EXPECT_EQ(Rules[R].ExpansionLength, 2u);
    }
  }
  EXPECT_TRUE(FoundAb);
}

TEST(Sequitur, NestedRuleFrequencies) {
  // "abcabcabcabc": rule(abc) appears 4 times, possibly nested under
  // rule(abcabc) appearing twice.
  auto Rules = infer("abcabcabcabc");
  for (uint32_t R = 1; R < Rules.size(); ++R) {
    auto Expansion = Sequitur::expandRule(Rules, R, 16);
    if (Expansion == std::vector<uint32_t>{'a', 'b', 'c'}) {
      EXPECT_EQ(Rules[R].Frequency, 4u);
    }
    if (Expansion.size() == 6) {
      EXPECT_EQ(Rules[R].Frequency, 2u);
    }
  }
}

TEST(Sequitur, ExpansionLengthSaturatesAtCap) {
  auto Rules = infer("abcabcabcabc");
  auto Capped = Sequitur::expandRule(Rules, 0, 5);
  EXPECT_EQ(Capped.size(), 5u);
  EXPECT_EQ(Capped, (std::vector<uint32_t>{'a', 'b', 'c', 'a', 'b'}));
}

TEST(Sequitur, StartRuleFrequencyIsOne) {
  auto Rules = infer("abcabc");
  EXPECT_EQ(Rules[0].Frequency, 1u);
  EXPECT_EQ(Rules[0].ExpansionLength, 6u);
}

TEST(Sequitur, LongRandomishInputRoundTrips) {
  std::string In;
  uint64_t X = 12345;
  for (int I = 0; I < 5000; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    In.push_back('a' + (X >> 60) % 4);
  }
  auto Rules = infer(In);
  EXPECT_EQ(expandAll(Rules), In);
  expectDigramUniqueness(Rules);
  // Compression actually happened.
  EXPECT_LT(Rules[0].Body.size(), In.size());
}

TEST(Sequitur, RepetitiveInputCompressesHard) {
  std::string In;
  for (int I = 0; I < 256; ++I)
    In += "abcd";
  auto Rules = infer(In);
  EXPECT_EQ(expandAll(Rules), In);
  // The grammar for (abcd)^256 is logarithmic in the input.
  EXPECT_LE(Rules.size(), 12u);
}

TEST(Sequitur, NumRulesMatchesExtraction) {
  Sequitur S;
  for (char C : std::string("abcdbcabcdbc"))
    S.append(C);
  EXPECT_EQ(S.numRules(), S.extractRules().size());
}

TEST(Sequitur, LargeTerminalsRoundTrip) {
  // Terminals at and above 2^31 must stay distinct from the small ones
  // they equal modulo 2^31: 2147483648 5 is a different digram from 0 5.
  const std::vector<uint32_t> In{0, 5, 2147483648u, 5};
  Sequitur S;
  for (uint32_t T : In)
    S.append(T);
  auto Rules = S.extractRules();
  EXPECT_EQ(Sequitur::expandRule(Rules, 0, 100), In);
  EXPECT_EQ(Rules.size(), 1u); // No digram repeats: nothing to factor.
}

TEST(Sequitur, RandomInputsKeepTheGrammarInvariants) {
  // Oracle for the digram table and the symbol pool: on seeded random
  // inputs the start rule must expand back to the input, no digram may
  // occur twice (overlapping runs aside), and every other rule must be
  // used at least twice. Small alphabets make deep, heavily rewritten
  // grammars; the large ones put every terminal at or above 2^31, up to
  // the top of uint32_t.
  const std::vector<std::vector<uint32_t>> Alphabets{
      {1, 2},
      {1, 2, 3, 4, 5},
      {2147483649u, 2147483650u},
      {2147483648u, 2147483659u, 3000000000u, 4294967295u},
  };
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    const std::vector<uint32_t> &Alphabet =
        Alphabets[Seed % Alphabets.size()];
    Rng R(Seed);
    std::vector<uint32_t> In;
    size_t Length = 200 + R.nextBelow(4000);
    while (In.size() < Length) {
      // Bursts of one repeated phrase give the grammar real structure.
      if (In.size() >= 16 && R.nextBool(0.3)) {
        size_t From = R.nextBelow(In.size() - 8);
        for (size_t I = 0, N = 2 + R.nextBelow(7); I < N; ++I)
          In.push_back(In[From + I]);
      } else {
        In.push_back(Alphabet[R.nextBelow(Alphabet.size())]);
      }
    }
    Sequitur S;
    for (uint32_t T : In)
      S.append(T);
    auto Rules = S.extractRules();
    ASSERT_EQ(Sequitur::expandRule(Rules, 0, In.size() + 1), In)
        << "seed " << Seed;
    EXPECT_EQ(Rules[0].ExpansionLength, In.size()) << "seed " << Seed;
    expectDigramUniqueness(Rules);
    std::vector<uint32_t> Uses(Rules.size(), 0);
    for (const auto &Rule : Rules)
      for (const auto &B : Rule.Body)
        if (B.IsRule)
          ++Uses[B.Value];
    for (uint32_t Rule = 1; Rule < Rules.size(); ++Rule)
      EXPECT_GE(Uses[Rule], 2u) << "seed " << Seed << ": rule " << Rule;
  }
}

namespace {

/// FNV-1a over every field extractRules() reports, in order: rule ids,
/// bodies (kind and value of each symbol), frequencies and expansion
/// lengths. Any change to a single rule, or to the dense order the live
/// rules are numbered in, moves it.
uint64_t grammarDigest(const std::vector<Sequitur::ExtractedRule> &Rules) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  auto Mix = [&](uint64_t Value) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (Value >> (8 * Byte)) & 0xFF;
      Hash *= 0x100000001b3ull;
    }
  };
  Mix(Rules.size());
  for (const Sequitur::ExtractedRule &Rule : Rules) {
    Mix(Rule.Id);
    Mix(Rule.Body.size());
    for (const Sequitur::BodySymbol &B : Rule.Body) {
      Mix(B.IsRule);
      Mix(B.Value);
    }
    Mix(Rule.Frequency);
    Mix(Rule.ExpansionLength);
  }
  return Hash;
}

/// \p Length symbols drawn from \p Alphabet, with bursts that repeat a
/// phrase from earlier in the input so that rules nest and die.
std::vector<uint32_t> burstyInput(uint64_t Seed, size_t Length,
                                  const std::vector<uint32_t> &Alphabet) {
  Rng R(Seed);
  std::vector<uint32_t> In;
  while (In.size() < Length) {
    if (In.size() >= 16 && R.nextBool(0.3)) {
      size_t From = R.nextBelow(In.size() - 8);
      for (size_t I = 0, N = 2 + R.nextBelow(7); I < N; ++I)
        In.push_back(In[From + I]);
    } else {
      In.push_back(Alphabet[R.nextBelow(Alphabet.size())]);
    }
  }
  In.resize(Length);
  return In;
}

std::vector<uint32_t> range(uint32_t From, uint32_t Count) {
  std::vector<uint32_t> Values(Count);
  for (uint32_t I = 0; I < Count; ++I)
    Values[I] = From + I;
  return Values;
}

struct DigestCase {
  const char *Name;
  std::vector<uint32_t> Input;
  size_t Rules;    ///< extractRules().size()
  uint64_t Digest; ///< grammarDigest(extractRules())
};

} // namespace

TEST(Sequitur, GrammarDigestsArePinned) {
  // The expected values were taken from the pointer-linked implementation
  // this grammar replaced. The comment on each case names planted bugs it
  // was seen to catch.
  const std::vector<DigestCase> Cases{
      // Two terminals: deep, heavily rewritten grammars in which most
      // rules die. Catches a dead rule's slot (and so its id) reused, a
      // check() that factors overlapping digrams, and a grow() that
      // rehashes under the old mask.
      {"two-symbol alphabet", burstyInput(1, 6000, {1, 2}), 199,
       0x1005d9220fc5faa7ull},
      // 4,096 terminals: the digram index grows from 1,024 to 65,536
      // slots. Catches erasing a digram recorded by another occurrence,
      // and a digram key that drops the second symbol's kind bit.
      {"large alphabet", burstyInput(2, 30000, range(0, 4096)), 3334,
       0x68c0719e3b47e0d3ull},
      // Terminals equal modulo 2^31, up to the top of uint32_t. Catches a
      // digram key that keeps only 31 bits of a value; no other case does.
      {"terminals at and above 2^31",
       burstyInput(3, 8000,
                   {5, 7, 9, 2147483653u, 2147483655u, 2147483657u,
                    4294967295u}),
       560, 0xa93e01918aaf959bull},
      // Terminals 1..12 while rules 1..12 are live: a terminal and a
      // nonterminal share every value. Catches a digram key that drops
      // the second symbol's kind bit, which the two-symbol case misses.
      {"terminals equal to live rule indices",
       burstyInput(4, 8000, range(1, 12)), 688,
       0x2168a21ca02afd46ull},
      // Runs of one symbol up to 200 long: few distinct digrams, so the
      // index stays at 1,024 slots and erases often near its end. Catches
      // a backward shift that ignores probe chains wrapping past the last
      // slot; no other case does.
      {"long runs of one symbol",
       [] {
         Rng R(5);
         std::vector<uint32_t> In;
         while (In.size() < 8000)
           In.insert(In.end(), 1 + R.nextBelow(200),
                     static_cast<uint32_t>(R.nextBelow(3)));
         return In;
       }(),
       147, 0xa0dad6082ad87dbdull},
  };
  for (const DigestCase &Case : Cases) {
    Sequitur S;
    for (uint32_t T : Case.Input)
      S.append(T);
    std::vector<Sequitur::ExtractedRule> Rules = S.extractRules();
    // Every case runs, so a failure names each case that catches a bug.
    EXPECT_TRUE(Sequitur::expandRule(Rules, 0, Case.Input.size() + 1) ==
                Case.Input)
        << Case.Name << ": the start rule does not expand to the input";
    EXPECT_EQ(Rules.size(), Case.Rules) << Case.Name;
    EXPECT_EQ(grammarDigest(Rules), Case.Digest)
        << Case.Name << ": 0x" << std::hex << grammarDigest(Rules);
  }
}
