//===- hds/Sequitur.h - SEQUITUR grammar inference --------------*- C++ -*-===//
//
// Part of the HALO reproduction. Distributed under the BSD 3-clause licence.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear-time incremental grammar inference (Nevill-Manning & Witten [25]),
/// used by the hot-data-streams comparison technique [11] to compress the
/// object-level data reference trace. The algorithm maintains two
/// invariants: *digram uniqueness* (no pair of adjacent symbols appears
/// more than once in the grammar) and *rule utility* (every rule is used at
/// least twice). Repeated access sequences therefore condense into rules,
/// whose expansions are the candidate hot data streams.
///
/// Appending is the HDS pipeline's hot loop (one call per reference-trace
/// entry), and on a cold plan the grammar is the largest allocation in the
/// process, so it lives in three flat arrays addressed by 32-bit indices:
///  - symbols, 16 bytes each (links, value, kind); index 0 is null and
///    freed symbols are threaded through their Next link;
///  - rules in creation order, 12 bytes each (guard symbol, use count,
///    dead flag); a dead rule keeps its slot, so the dense order
///    extractRules() numbers live rules in never moves;
///  - the digram index, an open-addressed table of 12-byte slots keyed on
///    both symbols exactly (first value, second value, and the
///    occurrence's index with both kind bits packed under it).
/// Packing two kind bits under a symbol index bounds a grammar to
/// MaxSymbols live symbols; append() throws std::length_error, in every
/// build, rather than outgrow it.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_HDS_SEQUITUR_H
#define HALO_HDS_SEQUITUR_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace halo {

/// Incremental SEQUITUR grammar over uint32_t terminals.
class Sequitur {
public:
  /// One extracted rule: symbols are terminals (Terminal >= 0 slot) or
  /// references to other rules.
  struct BodySymbol {
    bool IsRule;
    uint32_t Value; ///< Terminal value, or rule index.
  };
  struct ExtractedRule {
    uint32_t Id;
    std::vector<BodySymbol> Body;
    /// How often this rule's expansion occurs in the input sequence.
    uint64_t Frequency = 0;
    /// Total expansion length in terminals (saturating).
    uint64_t ExpansionLength = 0;
  };

  /// Symbols a grammar can hold at once, the null index included:
  /// terminals, nonterminals and one guard per rule ever created (freed
  /// symbols are reused first).
  static constexpr uint32_t MaxSymbols = 1u << 30;

  Sequitur();
  Sequitur(const Sequitur &) = delete;
  Sequitur &operator=(const Sequitur &) = delete;

  /// Appends one terminal to the input sequence. Throws std::length_error
  /// if the grammar would need more than MaxSymbols symbols.
  void append(uint32_t Terminal);

  /// Number of live rules, including the start rule.
  uint32_t numRules() const;

  /// Extracts all live rules. Index 0 is the start rule (Frequency 1);
  /// frequencies and expansion lengths are fully propagated. Rule indices
  /// inside bodies refer to positions in the returned vector.
  std::vector<ExtractedRule> extractRules() const;

  /// Expands rule \p RuleIndex (as returned by extractRules) to at most
  /// \p MaxLen terminals.
  static std::vector<uint32_t>
  expandRule(const std::vector<ExtractedRule> &Rules, uint32_t RuleIndex,
             uint64_t MaxLen);

private:
  enum class Kind : uint8_t { Terminal, NonTerminal, Guard };

  /// A grammar symbol: a node of a doubly linked, guard-terminated ring.
  struct Symbol {
    uint32_t Next = 0;
    uint32_t Prev = 0;
    /// A terminal's value, a nonterminal's rule, or a guard's own rule.
    uint32_t Value = 0;
    Kind K = Kind::Terminal;
  };

  /// A grammar rule: its body is the ring through its guard symbol.
  struct Rule {
    uint32_t Guard = 0;
    uint32_t UseCount = 0;
    bool Dead = false;
  };
  static_assert(sizeof(Symbol) == 16 && sizeof(Rule) == 12,
                "the flat layout's record sizes");

  /// A digram's exact identity: both symbols' values, and their kinds as
  /// two bits (2: the first is a nonterminal, 1: the second is).
  struct DigramKey {
    uint32_t First;
    uint32_t Second;
    uint32_t Kinds;
  };

  // Core algorithm steps (see Sequitur.cpp for the invariant machinery).
  // A uint32_t named R is a rule index; every other one is a symbol index.
  void join(uint32_t Left, uint32_t Right);
  void insertAfter(uint32_t Pos, uint32_t Sym);
  void deleteSymbol(uint32_t Sym);
  void removeDigram(uint32_t First);
  bool check(uint32_t First);
  void match(uint32_t New, uint32_t Found);
  void substitute(uint32_t First, uint32_t R);
  void expandSoleUse(uint32_t NonTerminal);

  bool isGuard(uint32_t Sym) const;
  bool isNonTerminal(uint32_t Sym) const;
  uint32_t first(uint32_t R) const;
  uint32_t last(uint32_t R) const;
  /// The digram starting at \p First (neither symbol a guard).
  DigramKey digram(uint32_t First) const;

  /// The digram index: key -> the occurrence on record (the index of its
  /// first symbol). Linear probing over a power-of-two array with
  /// backward-shift deletion, so no tombstones.
  class DigramTable {
  public:
    DigramTable();
    /// The occurrence recorded for \p Key; if there is none, records
    /// \p Occurrence and returns 0.
    uint32_t recordIfAbsent(DigramKey Key, uint32_t Occurrence);
    /// Records \p Occurrence for \p Key, replacing any on record.
    void record(DigramKey Key, uint32_t Occurrence);
    /// Drops \p Key when \p Occurrence is its occurrence on record.
    void eraseIfRecorded(DigramKey Key, uint32_t Occurrence);

  private:
    struct Slot {
      uint32_t First;
      uint32_t Second;
      /// Occurrence << 2 | Kinds; 0: empty slot (no occurrence is 0).
      uint32_t Tagged;
    };
    size_t home(uint32_t First, uint32_t Second, uint32_t Kinds) const;
    /// The slot holding the key, or the empty slot ending its probe chain.
    size_t find(DigramKey Key) const;
    /// The slot for \p Key, after growing if one more key would pass the
    /// load factor.
    Slot &slotFor(DigramKey Key);
    void grow();

    std::vector<Slot> Slots;
    size_t Mask = 0;
    size_t Count = 0;
  };

  uint32_t newSymbol(Kind K, uint32_t Value);
  void freeSymbol(uint32_t Sym);
  /// A new symbol of \p Of's kind and value (a nonterminal adds a use).
  uint32_t newCopy(uint32_t Of);
  uint32_t newNonTerminal(uint32_t R);
  uint32_t newRule();

  /// Every symbol, index 0 the null one.
  std::vector<Symbol> Symbols;
  /// Head of the free symbols, chained through Next; 0: none.
  uint32_t FreeSymbols = 0;
  /// Every rule ever created, dead ones included; rule 0 is the start.
  std::vector<Rule> Rules;
  DigramTable Digrams;
};

} // namespace halo

#endif // HALO_HDS_SEQUITUR_H
