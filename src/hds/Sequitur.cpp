//===- hds/Sequitur.cpp - SEQUITUR grammar inference ------------------------===//
//
// The implementation follows the canonical algorithm of Nevill-Manning &
// Witten: a start rule grows by appending terminals; whenever a digram
// (pair of adjacent symbols) occurs twice, the occurrences are replaced by
// a nonterminal (reusing an existing rule when the digram is exactly its
// body); whenever a rule's use count drops to one, the rule is inlined.
//
//===----------------------------------------------------------------------===//

#include "hds/Sequitur.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

using namespace halo;

// An occurrence's index shares its word with the two kind bits.
static_assert((uint64_t(Sequitur::MaxSymbols - 1) << 2 | 3) <= UINT32_MAX,
              "symbol indices leave two bits for the kinds");

//===----------------------------------------------------------------------===//
// Digram table
//===----------------------------------------------------------------------===//

Sequitur::DigramTable::DigramTable() : Slots(1024, Slot{0, 0, 0}) {
  Mask = Slots.size() - 1;
}

size_t Sequitur::DigramTable::home(uint32_t First, uint32_t Second,
                                   uint32_t Kinds) const {
  // Terminals are dense object ids and rule ids are sequential: mix both
  // symbols (value << 1 | is-nonterminal) through a multiply-xorshift
  // before masking.
  uint64_t A = uint64_t(First) << 1 | Kinds >> 1;
  uint64_t B = uint64_t(Second) << 1 | (Kinds & 1);
  uint64_t H = (A * 0x9E3779B97F4A7C15ull) ^ B;
  H ^= H >> 32;
  H *= 0xD6E8FEB86659FD93ull;
  H ^= H >> 32;
  return static_cast<size_t>(H) & Mask;
}

size_t Sequitur::DigramTable::find(DigramKey Key) const {
  size_t I = home(Key.First, Key.Second, Key.Kinds);
  while (Slots[I].Tagged &&
         (Slots[I].First != Key.First || Slots[I].Second != Key.Second ||
          (Slots[I].Tagged & 3) != Key.Kinds))
    I = (I + 1) & Mask;
  return I;
}

Sequitur::DigramTable::Slot &Sequitur::DigramTable::slotFor(DigramKey Key) {
  if ((Count + 1) * 2 > Slots.size()) // Load factor at most 1/2.
    grow();
  return Slots[find(Key)];
}

uint32_t Sequitur::DigramTable::recordIfAbsent(DigramKey Key,
                                               uint32_t Occurrence) {
  Slot &S = slotFor(Key);
  if (S.Tagged)
    return S.Tagged >> 2;
  S = Slot{Key.First, Key.Second, Occurrence << 2 | Key.Kinds};
  ++Count;
  return 0;
}

void Sequitur::DigramTable::record(DigramKey Key, uint32_t Occurrence) {
  Slot &S = slotFor(Key);
  if (!S.Tagged)
    ++Count;
  S = Slot{Key.First, Key.Second, Occurrence << 2 | Key.Kinds};
}

void Sequitur::DigramTable::eraseIfRecorded(DigramKey Key,
                                            uint32_t Occurrence) {
  size_t Hole = find(Key);
  if (Slots[Hole].Tagged >> 2 != Occurrence)
    return;
  for (size_t Probe = Hole;;) {
    Probe = (Probe + 1) & Mask;
    const Slot &S = Slots[Probe];
    if (!S.Tagged)
      break;
    size_t Home = home(S.First, S.Second, S.Tagged & 3);
    // Move the probed entry into the hole unless its home lies in the
    // cyclic interval (Hole, Probe] (then it is still reachable).
    bool Reachable = Hole < Probe ? (Home > Hole && Home <= Probe)
                                  : (Home > Hole || Home <= Probe);
    if (!Reachable) {
      Slots[Hole] = S;
      Hole = Probe;
    }
  }
  Slots[Hole].Tagged = 0;
  --Count;
}

void Sequitur::DigramTable::grow() {
  std::vector<Slot> Old(Slots.size() * 2, Slot{0, 0, 0});
  Old.swap(Slots);
  Mask = Slots.size() - 1;
  for (const Slot &S : Old)
    if (S.Tagged)
      Slots[find(DigramKey{S.First, S.Second, S.Tagged & 3})] = S;
}

//===----------------------------------------------------------------------===//
// Grammar
//===----------------------------------------------------------------------===//

Sequitur::Sequitur() : Symbols(1) { // Symbol 0 is null.
  newRule();                        // Rule 0 is the start rule.
}

bool Sequitur::isGuard(uint32_t Sym) const {
  return Symbols[Sym].K == Kind::Guard;
}

bool Sequitur::isNonTerminal(uint32_t Sym) const {
  return Symbols[Sym].K == Kind::NonTerminal;
}

uint32_t Sequitur::first(uint32_t R) const {
  return Symbols[Rules[R].Guard].Next;
}

uint32_t Sequitur::last(uint32_t R) const {
  return Symbols[Rules[R].Guard].Prev;
}

Sequitur::DigramKey Sequitur::digram(uint32_t First) const {
  const Symbol &A = Symbols[First];
  const Symbol &B = Symbols[A.Next];
  assert(A.K != Kind::Guard && B.K != Kind::Guard &&
         "guards have no digram value");
  return DigramKey{A.Value, B.Value,
                   uint32_t(A.K == Kind::NonTerminal) << 1 |
                       uint32_t(B.K == Kind::NonTerminal)};
}

uint32_t Sequitur::newSymbol(Kind K, uint32_t Value) {
  uint32_t Sym = FreeSymbols;
  if (Sym) {
    FreeSymbols = Symbols[Sym].Next;
  } else {
    if (Symbols.size() == MaxSymbols)
      throw std::length_error("sequitur: the grammar needs more than " +
                              std::to_string(MaxSymbols) + " symbols");
    Sym = static_cast<uint32_t>(Symbols.size());
    Symbols.emplace_back();
  }
  Symbols[Sym] = Symbol{0, 0, Value, K};
  return Sym;
}

void Sequitur::freeSymbol(uint32_t Sym) {
  Symbols[Sym].Next = FreeSymbols;
  FreeSymbols = Sym;
}

uint32_t Sequitur::newRule() {
  uint32_t R = static_cast<uint32_t>(Rules.size());
  uint32_t Guard = newSymbol(Kind::Guard, R);
  Symbols[Guard].Next = Symbols[Guard].Prev = Guard;
  Rules.push_back(Rule{Guard, 0, false});
  return R;
}

uint32_t Sequitur::newNonTerminal(uint32_t R) {
  uint32_t Sym = newSymbol(Kind::NonTerminal, R);
  ++Rules[R].UseCount;
  return Sym;
}

uint32_t Sequitur::newCopy(uint32_t Of) {
  const Symbol S = Symbols[Of]; // newSymbol may move Symbols.
  return S.K == Kind::NonTerminal ? newNonTerminal(S.Value)
                                  : newSymbol(Kind::Terminal, S.Value);
}

void Sequitur::removeDigram(uint32_t First) {
  if (isGuard(First) || isGuard(Symbols[First].Next))
    return;
  Digrams.eraseIfRecorded(digram(First), First);
}

void Sequitur::join(uint32_t Left, uint32_t Right) {
  if (Symbols[Left].Next)
    removeDigram(Left);
  Symbols[Left].Next = Right;
  Symbols[Right].Prev = Left;
}

void Sequitur::insertAfter(uint32_t Pos, uint32_t Sym) {
  join(Sym, Symbols[Pos].Next);
  join(Pos, Sym);
}

void Sequitur::deleteSymbol(uint32_t Sym) {
  assert(!isGuard(Sym) && "cannot delete a guard");
  join(Symbols[Sym].Prev, Symbols[Sym].Next);
  removeDigram(Sym);
  if (isNonTerminal(Sym)) {
    assert(Rules[Symbols[Sym].Value].UseCount > 0 && "use count underflow");
    --Rules[Symbols[Sym].Value].UseCount;
  }
  freeSymbol(Sym);
}

void Sequitur::append(uint32_t Terminal) {
  uint32_t Sym = newSymbol(Kind::Terminal, Terminal);
  insertAfter(last(0), Sym);
  if (Symbols[Sym].Prev != Rules[0].Guard)
    check(Symbols[Sym].Prev);
}

bool Sequitur::check(uint32_t First) {
  if (isGuard(First) || isGuard(Symbols[First].Next))
    return false;
  uint32_t Found = Digrams.recordIfAbsent(digram(First), First);
  if (!Found)
    return false;
  if (Symbols[Found].Next != First) // Non-overlapping: enforce uniqueness.
    match(First, Found);
  return true;
}

void Sequitur::match(uint32_t New, uint32_t Found) {
  uint32_t R;
  uint32_t FoundPrev = Symbols[Found].Prev;
  if (isGuard(FoundPrev) && isGuard(Symbols[Symbols[Found].Next].Next)) {
    // The found occurrence is exactly an existing rule's body; reuse it.
    R = Symbols[FoundPrev].Value;
    substitute(New, R);
  } else {
    // Create a new rule for the repeated digram.
    R = newRule();
    uint32_t A = newCopy(New);
    uint32_t B = newCopy(Symbols[New].Next);
    insertAfter(last(R), A);
    insertAfter(last(R), B);
    substitute(Found, R);
    substitute(New, R);
    Digrams.record(digram(first(R)), first(R));
  }
  // Rule utility: if the rule's first symbol is a nonterminal whose rule is
  // now used only once, inline it.
  uint32_t Head = first(R);
  if (isNonTerminal(Head) && Rules[Symbols[Head].Value].UseCount == 1)
    expandSoleUse(Head);
}

void Sequitur::substitute(uint32_t First, uint32_t R) {
  uint32_t Prev = Symbols[First].Prev;
  deleteSymbol(Symbols[First].Next);
  deleteSymbol(First);
  uint32_t NonTerm = newNonTerminal(R);
  insertAfter(Prev, NonTerm);
  if (!check(Prev))
    check(NonTerm);
}

void Sequitur::expandSoleUse(uint32_t NonTerminal) {
  // Only ever called on the first symbol of a rule body (see match()), so
  // the left neighbour is that rule's guard and forms no digram.
  uint32_t R = Symbols[NonTerminal].Value;
  assert(Rules[R].UseCount == 1 && "expanding a shared rule");
  uint32_t Left = Symbols[NonTerminal].Prev;
  uint32_t Right = Symbols[NonTerminal].Next;
  uint32_t First = first(R);
  uint32_t Last = last(R);
  assert(isGuard(Left) && "sole-use expansion away from a rule head");
  assert(!isGuard(First) && "expanding an empty rule");

  // Unlink the nonterminal without touching the rule's body.
  removeDigram(NonTerminal);
  --Rules[R].UseCount;
  freeSymbol(NonTerminal);

  Symbols[Left].Next = First;
  Symbols[First].Prev = Left;
  Symbols[Last].Next = Right;
  Symbols[Right].Prev = Last;

  if (!isGuard(Right))
    Digrams.record(digram(Last), Last);

  // The rule keeps its slot (and its guard), so the ids of the rules
  // after it never move.
  Rules[R].Dead = true;
  uint32_t Guard = Rules[R].Guard;
  Symbols[Guard].Next = Symbols[Guard].Prev = Guard;
}

uint32_t Sequitur::numRules() const {
  return static_cast<uint32_t>(
      std::count_if(Rules.begin(), Rules.end(),
                    [](const Rule &R) { return !R.Dead; }));
}

std::vector<Sequitur::ExtractedRule> Sequitur::extractRules() const {
  // Compact live rules to dense indices; the start rule becomes index 0.
  std::vector<uint32_t> Live;
  std::vector<uint32_t> DenseIndex(Rules.size(), ~0u);
  for (uint32_t R = 0; R < Rules.size(); ++R) {
    if (Rules[R].Dead)
      continue;
    DenseIndex[R] = static_cast<uint32_t>(Live.size());
    Live.push_back(R);
  }

  std::vector<ExtractedRule> Out(Live.size());
  for (size_t I = 0; I < Live.size(); ++I) {
    Out[I].Id = static_cast<uint32_t>(I);
    for (uint32_t Sym = first(Live[I]); !isGuard(Sym);
         Sym = Symbols[Sym].Next) {
      if (isNonTerminal(Sym))
        Out[I].Body.push_back(
            BodySymbol{true, DenseIndex[Symbols[Sym].Value]});
      else
        Out[I].Body.push_back(BodySymbol{false, Symbols[Sym].Value});
    }
  }

  // Expansion lengths, children first (bodies only reference other live
  // rules; the reference graph is acyclic).
  std::vector<int> State(Out.size(), 0); // 0 new, 1 visiting, 2 done
  std::vector<uint32_t> Stack;
  for (uint32_t Root = 0; Root < Out.size(); ++Root) {
    if (State[Root] == 2)
      continue;
    Stack.push_back(Root);
    while (!Stack.empty()) {
      uint32_t R = Stack.back();
      if (State[R] == 2) {
        Stack.pop_back();
        continue;
      }
      if (State[R] == 0) {
        State[R] = 1;
        for (const BodySymbol &B : Out[R].Body)
          if (B.IsRule && State[B.Value] == 0)
            Stack.push_back(B.Value);
        continue;
      }
      // All children done: compute.
      uint64_t Len = 0;
      for (const BodySymbol &B : Out[R].Body)
        Len += B.IsRule ? Out[B.Value].ExpansionLength : 1;
      Out[R].ExpansionLength = Len;
      State[R] = 2;
      Stack.pop_back();
    }
  }

  // Frequencies, parents first: freq(start) = 1; every reference to a rule
  // contributes the parent's frequency.
  std::vector<uint32_t> Order; // reverse postorder from the start rule.
  {
    std::vector<int> Seen(Out.size(), 0);
    std::vector<std::pair<uint32_t, size_t>> Dfs{{0u, size_t(0)}};
    std::vector<uint32_t> Post;
    Seen[0] = 1;
    while (!Dfs.empty()) {
      auto &[R, Idx] = Dfs.back();
      if (Idx == Out[R].Body.size()) {
        Post.push_back(R);
        Dfs.pop_back();
        continue;
      }
      const BodySymbol &B = Out[R].Body[Idx++];
      if (B.IsRule && !Seen[B.Value]) {
        Seen[B.Value] = 1;
        Dfs.emplace_back(B.Value, 0);
      }
    }
    Order.assign(Post.rbegin(), Post.rend());
  }
  if (!Out.empty())
    Out[0].Frequency = 1;
  for (uint32_t R : Order)
    for (const BodySymbol &B : Out[R].Body)
      if (B.IsRule)
        Out[B.Value].Frequency += Out[R].Frequency;

  return Out;
}

std::vector<uint32_t>
Sequitur::expandRule(const std::vector<ExtractedRule> &Rules,
                     uint32_t RuleIndex, uint64_t MaxLen) {
  std::vector<uint32_t> Result;
  std::vector<std::pair<uint32_t, size_t>> Stack{{RuleIndex, size_t(0)}};
  while (!Stack.empty() && Result.size() < MaxLen) {
    auto &[R, Idx] = Stack.back();
    if (Idx == Rules[R].Body.size()) {
      Stack.pop_back();
      continue;
    }
    const BodySymbol &B = Rules[R].Body[Idx++];
    if (B.IsRule)
      Stack.emplace_back(B.Value, 0);
    else
      Result.push_back(B.Value);
  }
  return Result;
}
