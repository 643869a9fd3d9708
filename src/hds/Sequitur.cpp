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

using namespace halo;

/// Grammar symbol: a node of a doubly linked, guard-terminated ring.
struct Sequitur::Symbol {
  Symbol *Next = nullptr;
  Symbol *Prev = nullptr;
  Rule *Ref = nullptr;    ///< Non-null: nonterminal referencing Ref.
  Rule *Owner = nullptr;  ///< Non-null: this is the guard of Owner.
  uint32_t Terminal = 0;  ///< Valid for plain terminals.

  bool isGuard() const { return Owner != nullptr; }
  bool isNonTerminal() const { return Ref != nullptr; }
};

/// Grammar rule with an embedded guard node.
struct Sequitur::Rule {
  Symbol Guard;
  uint32_t Id = 0;
  uint32_t UseCount = 0;
  bool Dead = false;

  Symbol *first() const { return Guard.Next; }
  Symbol *last() const { return Guard.Prev; }
};

//===----------------------------------------------------------------------===//
// Digram table
//===----------------------------------------------------------------------===//

Sequitur::DigramTable::DigramTable() : Slots(1024, Slot{0, 0, nullptr}) {
  Mask = Slots.size() - 1;
}

size_t Sequitur::DigramTable::home(uint64_t First, uint64_t Second) const {
  // Terminals are dense object ids and rule ids are sequential: mix both
  // halves through a multiply-xorshift before masking.
  uint64_t H = (First * 0x9E3779B97F4A7C15ull) ^ Second;
  H ^= H >> 32;
  H *= 0xD6E8FEB86659FD93ull;
  H ^= H >> 32;
  return static_cast<size_t>(H) & Mask;
}

size_t Sequitur::DigramTable::find(uint64_t First, uint64_t Second) const {
  size_t I = home(First, Second);
  while (Slots[I].Sym &&
         (Slots[I].First != First || Slots[I].Second != Second))
    I = (I + 1) & Mask;
  return I;
}

Sequitur::Symbol *&Sequitur::DigramTable::at(const Symbol *Sym) {
  if ((Count + 1) * 2 > Slots.size()) // Load factor at most 1/2.
    grow();
  uint64_t First = encode(Sym), Second = encode(Sym->Next);
  Slot &S = Slots[find(First, Second)];
  if (!S.Sym) {
    S.First = First;
    S.Second = Second;
    ++Count;
  }
  return S.Sym;
}

void Sequitur::DigramTable::eraseIfRecorded(const Symbol *Sym) {
  size_t Hole = find(encode(Sym), encode(Sym->Next));
  if (Slots[Hole].Sym != Sym)
    return;
  for (size_t Probe = Hole;;) {
    Probe = (Probe + 1) & Mask;
    if (!Slots[Probe].Sym)
      break;
    size_t Home = home(Slots[Probe].First, Slots[Probe].Second);
    // Move the probed entry into the hole unless its home lies in the
    // cyclic interval (Hole, Probe] (then it is still reachable).
    bool Reachable = Hole < Probe ? (Home > Hole && Home <= Probe)
                                  : (Home > Hole || Home <= Probe);
    if (!Reachable) {
      Slots[Hole] = Slots[Probe];
      Hole = Probe;
    }
  }
  Slots[Hole].Sym = nullptr;
  --Count;
}

void Sequitur::DigramTable::grow() {
  std::vector<Slot> Old(Slots.size() * 2, Slot{0, 0, nullptr});
  Old.swap(Slots);
  Mask = Slots.size() - 1;
  for (const Slot &S : Old)
    if (S.Sym)
      Slots[find(S.First, S.Second)] = S;
}

//===----------------------------------------------------------------------===//
// Grammar
//===----------------------------------------------------------------------===//

Sequitur::Sequitur() {
  Start = newRule();
}

// Symbols live in SymbolBlocks and rules in Rules: both free themselves.
Sequitur::~Sequitur() = default;

Sequitur::Rule *Sequitur::newRule() {
  auto R = std::make_unique<Rule>();
  R->Id = static_cast<uint32_t>(Rules.size());
  R->Guard.Owner = R.get();
  R->Guard.Next = &R->Guard;
  R->Guard.Prev = &R->Guard;
  Rules.push_back(std::move(R));
  return Rules.back().get();
}

Sequitur::Symbol *Sequitur::newSymbol() {
  constexpr size_t BlockSize = 4096;
  Symbol *Sym;
  if (FreeSymbols) {
    Sym = FreeSymbols;
    FreeSymbols = Sym->Next;
  } else {
    if (SymbolBlocks.empty() || BlockUsed == BlockSize) {
      SymbolBlocks.push_back(std::make_unique<Symbol[]>(BlockSize));
      BlockUsed = 0;
    }
    Sym = &SymbolBlocks.back()[BlockUsed++];
  }
  *Sym = Symbol();
  return Sym;
}

void Sequitur::freeSymbol(Symbol *Sym) {
  Sym->Next = FreeSymbols;
  FreeSymbols = Sym;
}

Sequitur::Symbol *Sequitur::newTerminal(uint32_t Terminal) {
  Symbol *Sym = newSymbol();
  Sym->Terminal = Terminal;
  return Sym;
}

Sequitur::Symbol *Sequitur::newNonTerminal(Rule *R) {
  Symbol *Sym = newSymbol();
  Sym->Ref = R;
  ++R->UseCount;
  return Sym;
}

uint64_t Sequitur::encode(const Symbol *Sym) {
  assert(!Sym->isGuard() && "guards have no digram value");
  if (Sym->isNonTerminal())
    return (uint64_t(Sym->Ref->Id) << 1) | 1;
  return uint64_t(Sym->Terminal) << 1;
}

void Sequitur::removeDigram(Symbol *First) {
  if (First->isGuard() || First->Next->isGuard())
    return;
  Digrams.eraseIfRecorded(First);
}

void Sequitur::join(Symbol *Left, Symbol *Right) {
  if (Left->Next)
    removeDigram(Left);
  Left->Next = Right;
  Right->Prev = Left;
}

void Sequitur::insertAfter(Symbol *Pos, Symbol *Sym) {
  join(Sym, Pos->Next);
  join(Pos, Sym);
}

void Sequitur::deleteSymbol(Symbol *Sym) {
  assert(!Sym->isGuard() && "cannot delete a guard");
  join(Sym->Prev, Sym->Next);
  removeDigram(Sym);
  if (Sym->isNonTerminal()) {
    assert(Sym->Ref->UseCount > 0 && "use count underflow");
    --Sym->Ref->UseCount;
  }
  freeSymbol(Sym);
}

void Sequitur::append(uint32_t Terminal) {
  Symbol *Sym = newTerminal(Terminal);
  insertAfter(Start->last(), Sym);
  if (Sym->Prev != &Start->Guard)
    check(Sym->Prev);
}

bool Sequitur::check(Symbol *First) {
  if (First->isGuard() || First->Next->isGuard())
    return false;
  Symbol *&Recorded = Digrams.at(First);
  if (!Recorded) {
    Recorded = First;
    return false;
  }
  Symbol *Found = Recorded;
  if (Found->Next != First) // Non-overlapping occurrence: enforce uniqueness.
    match(First, Found);
  return true;
}

void Sequitur::match(Symbol *New, Symbol *Found) {
  Rule *R;
  if (Found->Prev->isGuard() && Found->Next->Next->isGuard()) {
    // The found occurrence is exactly an existing rule's body; reuse it.
    R = Found->Prev->Owner;
    substitute(New, R);
  } else {
    // Create a new rule for the repeated digram.
    R = newRule();
    Symbol *A = New->isNonTerminal() ? newNonTerminal(New->Ref)
                                     : newTerminal(New->Terminal);
    Symbol *B = New->Next->isNonTerminal() ? newNonTerminal(New->Next->Ref)
                                           : newTerminal(New->Next->Terminal);
    insertAfter(R->last(), A);
    insertAfter(R->last(), B);
    substitute(Found, R);
    substitute(New, R);
    Digrams.at(R->first()) = R->first();
  }
  // Rule utility: if the rule's first symbol is a nonterminal whose rule is
  // now used only once, inline it.
  if (R->first()->isNonTerminal() && R->first()->Ref->UseCount == 1)
    expandSoleUse(R->first());
}

void Sequitur::substitute(Symbol *First, Rule *R) {
  Symbol *Prev = First->Prev;
  deleteSymbol(First->Next);
  deleteSymbol(First);
  Symbol *NonTerm = newNonTerminal(R);
  insertAfter(Prev, NonTerm);
  if (!check(Prev))
    check(NonTerm);
}

void Sequitur::expandSoleUse(Symbol *NonTerminal) {
  // Only ever called on the first symbol of a rule body (see match()), so
  // the left neighbour is that rule's guard and forms no digram.
  Rule *R = NonTerminal->Ref;
  assert(R->UseCount == 1 && "expanding a shared rule");
  Symbol *Left = NonTerminal->Prev;
  Symbol *Right = NonTerminal->Next;
  Symbol *First = R->first();
  Symbol *Last = R->last();
  assert(Left->isGuard() && "sole-use expansion away from a rule head");
  assert(!First->isGuard() && "expanding an empty rule");

  // Unlink the nonterminal without touching the rule's body.
  removeDigram(NonTerminal);
  --R->UseCount;
  freeSymbol(NonTerminal);

  Left->Next = First;
  First->Prev = Left;
  Last->Next = Right;
  Right->Prev = Last;

  if (!Right->isGuard())
    Digrams.at(Last) = Last;

  R->Dead = true;
  R->Guard.Next = &R->Guard;
  R->Guard.Prev = &R->Guard;
}

uint32_t Sequitur::numRules() const {
  uint32_t Count = 0;
  for (const std::unique_ptr<Rule> &R : Rules)
    if (!R->Dead)
      ++Count;
  return Count;
}

std::vector<Sequitur::ExtractedRule> Sequitur::extractRules() const {
  // Compact live rules to dense indices; the start rule becomes index 0.
  std::vector<const Rule *> Live;
  std::vector<uint32_t> DenseIndex(Rules.size(), ~0u);
  for (const std::unique_ptr<Rule> &R : Rules) {
    if (R->Dead)
      continue;
    DenseIndex[R->Id] = static_cast<uint32_t>(Live.size());
    Live.push_back(R.get());
  }

  std::vector<ExtractedRule> Out(Live.size());
  for (size_t I = 0; I < Live.size(); ++I) {
    Out[I].Id = static_cast<uint32_t>(I);
    for (const Symbol *Sym = Live[I]->first(); !Sym->isGuard();
         Sym = Sym->Next) {
      if (Sym->isNonTerminal())
        Out[I].Body.push_back(BodySymbol{true, DenseIndex[Sym->Ref->Id]});
      else
        Out[I].Body.push_back(BodySymbol{false, Sym->Terminal});
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
