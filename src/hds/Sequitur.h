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
/// entry), so the digram index is a flat open-addressed table keyed on
/// both symbols exactly, and symbols come from a free-listed pool rather
/// than one heap allocation each.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_HDS_SEQUITUR_H
#define HALO_HDS_SEQUITUR_H

#include <cstddef>
#include <cstdint>
#include <memory>
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

  Sequitur();
  ~Sequitur();
  Sequitur(const Sequitur &) = delete;
  Sequitur &operator=(const Sequitur &) = delete;

  /// Appends one terminal to the input sequence.
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
  struct Symbol;
  struct Rule;

  // Core algorithm steps (see Sequitur.cpp for the invariant machinery).
  void join(Symbol *Left, Symbol *Right);
  void insertAfter(Symbol *Pos, Symbol *Sym);
  void deleteSymbol(Symbol *Sym);
  void removeDigram(Symbol *First);
  bool check(Symbol *First);
  void match(Symbol *New, Symbol *Found);
  void substitute(Symbol *First, Rule *R);
  void expandSoleUse(Symbol *NonTerminal);

  static uint64_t encode(const Symbol *Sym);

  /// The digram index: (encoding of the first symbol, encoding of the
  /// second) -> the occurrence on record. Linear probing over a
  /// power-of-two array with backward-shift deletion, so no tombstones.
  class DigramTable {
  public:
    DigramTable();
    /// The occurrence recorded for the digram starting at \p Sym,
    /// inserting an empty (nullptr) entry when there is none --
    /// operator[] semantics. The reference is valid until the next call.
    Symbol *&at(const Symbol *Sym);
    /// Drops the digram starting at \p Sym when \p Sym is its occurrence
    /// on record.
    void eraseIfRecorded(const Symbol *Sym);

  private:
    struct Slot {
      uint64_t First;
      uint64_t Second;
      Symbol *Sym; ///< nullptr: empty slot.
    };
    size_t home(uint64_t First, uint64_t Second) const;
    /// The slot holding the key, or the empty slot ending its probe chain.
    size_t find(uint64_t First, uint64_t Second) const;
    void grow();

    std::vector<Slot> Slots;
    size_t Mask = 0;
    size_t Count = 0;
  };

  Symbol *newSymbol();
  void freeSymbol(Symbol *Sym);
  Symbol *newTerminal(uint32_t Terminal);
  Symbol *newNonTerminal(Rule *R);
  Rule *newRule();

  std::vector<std::unique_ptr<Rule>> Rules;
  DigramTable Digrams;
  Rule *Start = nullptr;
  /// Symbol pool: fixed-size blocks carved in order; freed symbols are
  /// chained through Next and reused first.
  std::vector<std::unique_ptr<Symbol[]>> SymbolBlocks;
  size_t BlockUsed = 0;
  Symbol *FreeSymbols = nullptr;
};

} // namespace halo

#endif // HALO_HDS_SEQUITUR_H
