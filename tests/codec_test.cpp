//===- tests/codec_test.cpp - Serve payloads and bundle layouts -------------===//
//
// Every serve payload with a body, and the HDS, groups, identification and
// context-table bundle layouts, are each one layout that
// support/BinaryIO.h's Encoder and Decoder both walk. The HALO envelope
// (saveHaloArtifacts/loadHaloArtifacts) nests the last three and the
// affinity graph behind its own header, with post-load checks against its
// workload's Program.
//
// Wire pins: a fixed instance of every payload (multi-byte varints, every
// enumerator, non-empty lists) encodes to committed bytes, and those bytes
// decode and re-encode to themselves. A layout change fails here first and
// must bump ServeProtocolVersion; golden_bundles pins the bundle bytes.
//
// Properties over small random instances (support/Rng, fixed seeds):
// re-encoding a decoded value gives the same bytes; every strict prefix,
// and a trailing byte, throws the layout's typed error (ProtocolError for
// payloads, SerializationError for bundles); every single-byte flip throws
// that error or decodes, and throws nothing else; the last in-domain value
// of each enumeration, bounded and id field decodes and the first value
// past it throws. The HALO envelope runs the first three properties
// against health's, povray's and xalanc's programs, over their real
// test-scale bundles and random bundles whose ids are in range, and a
// decoded envelope must keep every promise of the post-load checks.
//
// The same properties over the two hand-written decoders outside the
// walkers: frames (readFrame over a socketpair: every strict prefix is a
// ProtocolError except the empty one, a clean close; every flip of the
// header is a ProtocolError or decodes as the flipped header says) and the
// store entry header (decodeEntry through ArtifactStore::get and the
// listing: every prefix and flip of an entry file reads as absent through
// get, and lists as invalid unless the flip falls in the label's text,
// which no checksum covers: that lists as valid under the flipped label).
//
// HALO_CODEC_ITERATIONS sets the random instances per layout (default 32;
// the flip properties run a quarter as many); scripts/ci.sh raises it for
// a soak in the sanitized build.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "eval/Evaluation.h"
#include "group/Grouping.h"
#include "hds/HdsPipeline.h"
#include "identify/Identify.h"
#include "serve/Protocol.h"
#include "store/ArtifactStore.h"
#include "support/BinaryIO.h"
#include "support/Rng.h"
#include "support/Socket.h"
#include "trace/Context.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

using namespace halo;

namespace {

using Bytes = std::vector<uint8_t>;

std::string hex(const Bytes &B) {
  static const char Digits[] = "0123456789abcdef";
  std::string Text;
  for (uint8_t V : B) {
    Text += Digits[V >> 4];
    Text += Digits[V & 15];
  }
  return Text;
}

Bytes unhex(const std::string &Text) {
  Bytes B;
  for (size_t I = 0; I + 1 < Text.size(); I += 2)
    B.push_back(static_cast<uint8_t>(std::stoul(Text.substr(I, 2), nullptr, 16)));
  return B;
}

//===----------------------------------------------------------------------===//
// Wire pins
//===----------------------------------------------------------------------===//

/// Every integer field of \p M that crosses the wire.
std::vector<uint64_t *> counters(RunMetrics &M) {
  return {&M.Cycles,          &M.Mem.Accesses,       &M.Mem.L1Misses,
          &M.Mem.L2Misses,    &M.Mem.L3Misses,       &M.Mem.TlbMisses,
          &M.Mem.StallCycles, &M.Events.Calls,       &M.Events.Allocs,
          &M.Events.Frees,    &M.Events.Loads,       &M.Events.Stores,
          &M.InstrumentationOps, &M.Frag.PeakResident, &M.Frag.LiveAtPeak,
          &M.GroupedAllocs,   &M.ForwardedAllocs};
}

/// Every field distinct, so a reordered or dropped field moves the bytes.
RunMetrics pinnedMetrics(uint64_t Base) {
  RunMetrics M;
  M.Seconds = 1.5 * static_cast<double>(Base);
  uint64_t Next = Base << 8;
  for (uint64_t *Field : counters(M))
    *Field = ++Next;
  return M;
}

PlanRequest pinnedPlanRequest() {
  PlanRequest R;
  R.Benchmarks = {"health", "xalanc"};
  R.Machines = {"mobile", "xeon-w2195"};
  R.Kinds = allAllocatorKinds();
  R.S = Scale::Ref;
  R.Trials = 300; // A two-byte varint.
  R.SeedBase = 0x0123456789abcdefull;
  return R;
}

CellResultMsg pinnedCellResult() {
  CellResultMsg M;
  M.PlanId = 0x1122334455667788ull;
  M.CellIndex = 300;
  M.Key = {"povray", "server", AllocatorKind::HaloInstrumentedOnly,
           Scale::Test, 1000, 200};
  M.Runs = {pinnedMetrics(1), pinnedMetrics(2)};
  return M;
}

DaemonStats pinnedStats() {
  DaemonStats S;
  S.ActiveSessions = 1;
  S.SessionsServed = 2;
  S.PlansSubmitted = 3;
  S.PlansCompleted = 4;
  S.PlansCancelled = 5;
  S.PlansFailed = 6;
  S.CellsStreamed = 70000;
  S.TasksExecuted = 80000;
  S.Workers = 9;
  S.WarmBenchmarks = 10;
  S.HasStore = true;
  return S;
}

/// One pinned payload: its encoding, and a decode-then-encode of bytes.
struct Pin {
  const char *Name;
  Bytes Encoded;
  std::function<Bytes(const Bytes &)> Reencode;
  const char *Hex;
};

template <class EncodeT, class DecodeT>
std::function<Bytes(const Bytes &)> reencoder(EncodeT Encode, DecodeT Decode) {
  return [=](const Bytes &B) { return Encode(Decode(B)); };
}

std::vector<Pin> pins() {
  return {
      {"Hello", encodeHello(0x01020304), reencoder(encodeHello, decodeHello),
       "04030201"},
      {"HelloAck", encodeHelloAck({0x01020304, 300, true}),
       reencoder(encodeHelloAck, decodeHelloAck),
       "040302012c0100000000000001"},
      {"SubmitPlan", encodePlanRequest(pinnedPlanRequest()),
       reencoder(encodePlanRequest, decodePlanRequest),
       "02066865616c74680678616c616e6302066d6f62696c650a78656f6e2d773231"
       "39350600010203040501ac02efcdab8967452301"},
      {"PlanQueued", encodePlanQueued({42, 300, 70000}),
       reencoder(encodePlanQueued, decodePlanQueued),
       "2a00000000000000ac02f0a204"},
      {"CellResult", encodeCellResult(pinnedCellResult()),
       reencoder(encodeCellResult, decodeCellResult),
       "88776655443322112c0100000000000006706f76726179067365727665720500"
       "e803000000000000c80102000000000000f83f01010000000000000201000000"
       "0000000301000000000000040100000000000005010000000000000601000000"
       "0000000701000000000000080100000000000009010000000000000a01000000"
       "0000000b010000000000000c010000000000000d010000000000000e01000000"
       "0000000f01000000000000100100000000000011010000000000000000000000"
       "0008400102000000000000020200000000000003020000000000000402000000"
       "0000000502000000000000060200000000000007020000000000000802000000"
       "00000009020000000000000a020000000000000b020000000000000c02000000"
       "0000000d020000000000000e020000000000000f020000000000001002000000"
       "0000001102000000000000"},
      {"PlanDoneOk", encodePlanDone({7, PlanStatus::Ok, ""}),
       reencoder(encodePlanDone, decodePlanDone), "07000000000000000000"},
      {"PlanDoneCancelled", encodePlanDone({8, PlanStatus::Cancelled, ""}),
       reencoder(encodePlanDone, decodePlanDone), "08000000000000000100"},
      {"PlanDoneFailed",
       encodePlanDone({9, PlanStatus::Failed, "task threw: boom"}),
       reencoder(encodePlanDone, decodePlanDone),
       "090000000000000002107461736b2074687265773a20626f6f6d"},
      {"Cancel", encodeCancel(0x0102030405060708ull),
       reencoder(encodeCancel, decodeCancel),
       "0807060504030201"},
      {"StatsReply", encodeStatsReply(pinnedStats()),
       reencoder(encodeStatsReply, decodeStatsReply),
       "0100000000000000020000000000000003000000000000000400000000000000"
       "0500000000000000060000000000000070110100000000008038010000000000"
       "09000000000000000a0000000000000001"},
      {"Error", encodeError({3, "protocol error: bad"}),
       reencoder(encodeError, decodeError),
       "03000000000000001370726f746f636f6c206572726f723a20626164"},
  };
}

TEST(ServeWirePins, EveryPayloadEncodesToItsCommittedBytes) {
  for (const Pin &P : pins()) {
    SCOPED_TRACE(P.Name);
    EXPECT_EQ(P.Hex, hex(P.Encoded))
        << "The " << P.Name << " payload's layout changed. A layout change "
        << "must bump ServeProtocolVersion (serve/Protocol.h) and then "
        << "replace this pin with the hex above.";
    // The committed bytes decode, and re-encode to themselves.
    EXPECT_EQ(P.Hex, hex(P.Reencode(unhex(P.Hex))));
  }
}

//===----------------------------------------------------------------------===//
// Random instances
//===----------------------------------------------------------------------===//

/// A value of any varint width, from one byte to ten.
uint64_t randomU64(Rng &R) { return R.next() >> R.nextBelow(64); }

/// An id of any width up to 32 bits.
uint32_t randomId(Rng &R) { return static_cast<uint32_t>(randomU64(R) >> 32); }

double randomDouble(Rng &R) {
  return (R.nextDouble() - 0.5) * static_cast<double>(randomU64(R));
}

std::string randomString(Rng &R) {
  std::string S(R.nextBelow(9), '\0');
  for (char &C : S)
    C = static_cast<char>(R.next());
  return S;
}

template <class T, class FnT> std::vector<T> randomList(Rng &R, FnT Fn) {
  std::vector<T> V(R.nextBelow(4));
  for (T &E : V)
    E = Fn(R);
  return V;
}

std::vector<uint32_t> randomIds(Rng &R) {
  return randomList<uint32_t>(R, randomId);
}

AllocatorKind randomKind(Rng &R) {
  return static_cast<AllocatorKind>(
      R.nextBelow(static_cast<uint64_t>(AllocatorKind::HaloInstrumentedOnly) +
                  1));
}

Scale randomScale(Rng &R) { return R.nextBool(0.5) ? Scale::Ref : Scale::Test; }

RunMetrics randomMetrics(Rng &R) {
  RunMetrics M;
  M.Seconds = randomDouble(R);
  for (uint64_t *Field : counters(M))
    *Field = randomU64(R);
  return M;
}

PlanRequest randomPlanRequest(Rng &R) {
  PlanRequest Q;
  Q.Benchmarks = randomList<std::string>(R, randomString);
  Q.Machines = randomList<std::string>(R, randomString);
  Q.Kinds = randomList<AllocatorKind>(R, randomKind);
  Q.S = randomScale(R);
  Q.Trials = static_cast<int>(R.nextInRange(1, 1u << 16));
  Q.SeedBase = randomU64(R);
  return Q;
}

CellResultMsg randomCellResult(Rng &R) {
  CellResultMsg M;
  M.PlanId = R.next();
  M.CellIndex = randomU64(R);
  M.Key = {randomString(R), randomString(R), randomKind(R), randomScale(R),
           R.next(), static_cast<int>(R.nextInRange(0, 1u << 16))};
  M.Runs = randomList<RunMetrics>(R, randomMetrics);
  return M;
}

DaemonStats randomStats(Rng &R) {
  DaemonStats S;
  for (uint64_t *Field :
       {&S.ActiveSessions, &S.SessionsServed, &S.PlansSubmitted,
        &S.PlansCompleted, &S.PlansCancelled, &S.PlansFailed,
        &S.CellsStreamed, &S.TasksExecuted, &S.Workers, &S.WarmBenchmarks})
    *Field = randomU64(R);
  S.HasStore = R.nextBool(0.5);
  return S;
}

HdsArtifacts randomHds(Rng &R) {
  HdsArtifacts A;
  A.Analysis.Streams.resize(R.nextBelow(4));
  for (HotStream &S : A.Analysis.Streams) {
    S.Elements = randomIds(R);
    S.Frequency = randomU64(R);
    S.Heat = randomU64(R);
  }
  A.Analysis.TraceLength = randomU64(R);
  A.Analysis.GrammarRules = randomU64(R);
  A.Analysis.CandidateStreams = randomU64(R);
  A.Groups.resize(R.nextBelow(4));
  for (CoAllocationSet &G : A.Groups) {
    G.Sites = randomIds(R);
    G.Benefit = randomDouble(R);
  }
  return A;
}

std::vector<Group> randomGroups(Rng &R) {
  std::vector<Group> Groups(R.nextBelow(4));
  for (Group &G : Groups) {
    G.Members = randomIds(R);
    G.Weight = randomU64(R);
    G.Accesses = randomU64(R);
  }
  return Groups;
}

IdentificationResult randomIdentification(Rng &R) {
  IdentificationResult Id;
  Id.Selectors.resize(R.nextBelow(4));
  for (Selector &Sel : Id.Selectors) {
    Sel.Terms.resize(R.nextBelow(3));
    for (Conjunction &Term : Sel.Terms)
      Term.Sites = randomIds(R);
  }
  Id.Sites = randomIds(R);
  return Id;
}

ContextTable randomContexts(Rng &R) {
  ContextTable Table;
  for (uint64_t I = 0, N = R.nextBelow(5); I < N; ++I) {
    Context Frames(R.nextBelow(4));
    for (CallFrame &F : Frames) {
      F.Function = randomId(R);
      F.Site = randomId(R);
    }
    Table.info(Table.intern(Frames)).Allocations = randomU64(R);
  }
  return Table;
}

//===----------------------------------------------------------------------===//
// Properties
//===----------------------------------------------------------------------===//

/// One layout as the properties drive it.
struct Layout {
  std::string Name;
  bool Protocol; ///< Throws ProtocolError (a payload), else SerializationError.
  std::function<Bytes(Rng &)> Random; ///< Encodes a random instance.
  std::function<Bytes(const Bytes &)> Reencode; ///< Decodes, then encodes.
};

void PrintTo(const Layout &L, std::ostream *OS) { *OS << L.Name; }

template <class T, class EncodeT, class DecodeT>
Layout payload(const char *Name, T (*Random)(Rng &), EncodeT Encode,
               DecodeT Decode) {
  return {Name, true, [=](Rng &R) { return Encode(Random(R)); },
          reencoder(Encode, Decode)};
}

template <class T, class SaveT, class LoadT>
Layout bundle(const char *Name, T (*Random)(Rng &), SaveT Save, LoadT Load) {
  auto Encode = [=](const T &V) {
    BinaryWriter W;
    Save(V, W);
    return W.take();
  };
  return {Name, false, [=](Rng &R) { return Encode(Random(R)); },
          [=](const Bytes &B) {
            BinaryReader R(B);
            T V = Load(R);
            R.expectEnd(Name);
            return Encode(V);
          }};
}

/// A workload's evaluation (its program) and the bytes of its real
/// test-scale HALO bundle, built once per workload on first use.
struct HaloFixture {
  Evaluation Eval;
  Bytes Real;
  explicit HaloFixture(const std::string &Name) : Eval(paperSetup(Name)) {
    BinaryWriter W;
    saveHaloArtifacts(Eval.haloArtifacts(), W);
    Real = W.take();
  }
};

const HaloFixture &haloFixture(const std::string &Name) {
  static std::map<std::string, std::unique_ptr<HaloFixture>> Fixtures;
  std::unique_ptr<HaloFixture> &F = Fixtures[Name];
  if (!F)
    F = std::make_unique<HaloFixture>(Name);
  return *F;
}

/// A random HALO bundle whose ids are in range for \p Prog: group members
/// index its own context table, identified sites are \p Prog's call
/// sites, and every selector site is identified.
HaloArtifacts randomHalo(Rng &R, const Program &Prog) {
  HaloArtifacts A;
  A.Contexts = randomContexts(R);
  for (uint64_t I = 0, N = R.nextBelow(5); I < N; ++I)
    A.Graph.addAccesses(randomId(R), R.nextBelow(1000));
  for (uint64_t I = 0, N = R.nextBelow(5); I < N; ++I)
    A.Graph.addEdgeWeight(randomId(R), randomId(R), 1 + R.nextBelow(1000));
  A.Groups = randomGroups(R);
  for (Group &G : A.Groups) {
    if (A.Contexts.size() == 0)
      G.Members.clear();
    for (uint32_t &Member : G.Members)
      Member = static_cast<uint32_t>(R.nextBelow(A.Contexts.size()));
  }
  for (CallSiteId Site = 0; Site < Prog.numCallSites(); ++Site)
    if (R.nextBool(0.3))
      A.Identification.Sites.push_back(Site);
  const std::vector<CallSiteId> &Sites = A.Identification.Sites;
  if (!Sites.empty()) {
    A.Identification.Selectors.resize(R.nextBelow(4));
    for (Selector &Sel : A.Identification.Selectors) {
      Sel.Terms.resize(R.nextBelow(3));
      for (Conjunction &Term : Sel.Terms)
        for (uint64_t I = 0, N = R.nextBelow(4); I < N; ++I)
          Term.Sites.push_back(Sites[R.nextBelow(Sites.size())]);
    }
  }
  A.ProfiledAccesses = randomU64(R);
  return A;
}

/// Throws std::logic_error unless \p Art keeps loadHaloArtifacts'
/// promises against \p Prog (the properties' oracle for its post-load
/// checks): identified sites are \p Prog's, selector sites are
/// identified, group members index the context table, and the derived
/// selectors were rebuilt.
void expectLoadable(const HaloArtifacts &Art, const Program &Prog) {
  std::vector<bool> Identified(Prog.numCallSites(), false);
  for (CallSiteId Site : Art.Identification.Sites) {
    if (Site >= Prog.numCallSites())
      throw std::logic_error("loaded an identified site past the program");
    Identified[Site] = true;
  }
  for (const Selector &Sel : Art.Identification.Selectors)
    for (const Conjunction &Term : Sel.Terms)
      for (CallSiteId Site : Term.Sites)
        if (Site >= Prog.numCallSites() || !Identified[Site])
          throw std::logic_error("loaded an unidentified selector site");
  for (const Group &G : Art.Groups)
    for (GraphNodeId Member : G.Members)
      if (Member >= Art.Contexts.size())
        throw std::logic_error("loaded a group member past the contexts");
  if (Art.CompiledSelectors.size() != Art.Identification.Selectors.size())
    throw std::logic_error("loaded without rebuilding the selectors");
}

/// The HALO envelope against \p Workload's program: a quarter of the
/// instances are its real test-scale bundle, the rest random in-range
/// bundles.
Layout haloEnvelope(const std::string &Workload) {
  auto Encode = [](const HaloArtifacts &Art) {
    BinaryWriter W;
    saveHaloArtifacts(Art, W);
    return W.take();
  };
  return {"Halo_" + Workload, false,
          [=](Rng &R) {
            const HaloFixture &F = haloFixture(Workload);
            return R.nextBelow(4) == 0 ? F.Real
                                       : Encode(randomHalo(R, F.Eval.program()));
          },
          [=](const Bytes &B) {
            const Program &Prog = haloFixture(Workload).Eval.program();
            BinaryReader R(B);
            HaloArtifacts Art = loadHaloArtifacts(R, Prog);
            R.expectEnd("halo artifacts");
            expectLoadable(Art, Prog);
            return Encode(Art);
          }};
}

uint32_t randomHello(Rng &R) { return static_cast<uint32_t>(R.next()); }
uint64_t randomPlanId(Rng &R) { return R.next(); }
HelloAckMsg randomHelloAck(Rng &R) {
  return {static_cast<uint32_t>(R.next()), randomU64(R), R.nextBool(0.5)};
}
PlanQueuedMsg randomPlanQueued(Rng &R) {
  return {R.next(), randomU64(R), randomU64(R)};
}
PlanDoneMsg randomPlanDone(Rng &R) {
  return {R.next(), static_cast<PlanStatus>(R.nextBelow(3)), randomString(R)};
}
ErrorMsg randomError(Rng &R) { return {R.next(), randomString(R)}; }

std::vector<Layout> layouts() {
  return {
      payload("Hello", randomHello, encodeHello, decodeHello),
      payload("HelloAck", randomHelloAck, encodeHelloAck, decodeHelloAck),
      payload("SubmitPlan", randomPlanRequest, encodePlanRequest,
              decodePlanRequest),
      payload("PlanQueued", randomPlanQueued, encodePlanQueued,
              decodePlanQueued),
      payload("CellResult", randomCellResult, encodeCellResult,
              decodeCellResult),
      payload("PlanDone", randomPlanDone, encodePlanDone, decodePlanDone),
      payload("Cancel", randomPlanId, encodeCancel, decodeCancel),
      payload("StatsReply", randomStats, encodeStatsReply, decodeStatsReply),
      payload("Error", randomError, encodeError, decodeError),
      bundle("Hds", randomHds, saveHdsArtifacts, loadHdsArtifacts),
      bundle("Groups", randomGroups, saveGroups, loadGroups),
      bundle("Identification", randomIdentification, saveIdentification,
             loadIdentification),
      bundle(
          "ContextTable", randomContexts,
          [](const ContextTable &T, BinaryWriter &W) { T.save(W); },
          ContextTable::load),
      haloEnvelope("health"),
      haloEnvelope("povray"),
      haloEnvelope("xalanc"),
  };
}

/// Decodes and re-encodes \p B; nullopt if that threw the layout's typed
/// error. Any other exception, or the other typed error, fails the test.
std::optional<Bytes> tryReencode(const Layout &L, const Bytes &B) {
  try {
    return L.Reencode(B);
  } catch (const ProtocolError &E) {
    EXPECT_TRUE(L.Protocol) << L.Name << " threw ProtocolError: " << E.what();
  } catch (const SerializationError &E) {
    EXPECT_FALSE(L.Protocol) << L.Name << " let a SerializationError "
                             << "escape: " << E.what();
  } catch (const std::exception &E) {
    ADD_FAILURE() << L.Name << " threw " << typeid(E).name() << ": "
                  << E.what();
  }
  return std::nullopt;
}

constexpr uint64_t PropertySeed = 0xC0DEC5EEDull;

/// Random instances per layout: $HALO_CODEC_ITERATIONS, an integer in
/// [1, 2^20], else 32. Throws std::invalid_argument (failing the test) for
/// any other setting, so a mistyped soak never runs the default quietly.
int instances() {
  const char *Env = std::getenv("HALO_CODEC_ITERATIONS");
  if (!Env)
    return 32;
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(Env, &End, 10);
  if (End == Env || *End != '\0' || errno != 0 || N < 1 || N > (1 << 20))
    throw std::invalid_argument("HALO_CODEC_ITERATIONS must be an integer "
                                "in [1, 2^20], not '" + std::string(Env) +
                                "'");
  return static_cast<int>(N);
}

/// Flips cost a decode per (position, mask), so a quarter as many.
int flippedInstances() { return std::max(1, instances() / 4); }

/// Every single-byte flip applies each one-bit mask and 0xFF.
constexpr uint8_t FlipMasks[] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                 0x20, 0x40, 0x80, 0xFF};

class CodecProperties : public ::testing::TestWithParam<Layout> {};

TEST_P(CodecProperties, ReencodingADecodedValueGivesTheSameBytes) {
  const Layout &L = GetParam();
  Rng R(PropertySeed);
  for (int I = 0, N = instances(); I < N; ++I) {
    Bytes B = L.Random(R);
    std::optional<Bytes> Again = tryReencode(L, B);
    ASSERT_TRUE(Again) << "instance " << I << ": " << hex(B);
    EXPECT_EQ(hex(B), hex(*Again)) << "instance " << I;
  }
}

TEST_P(CodecProperties, EveryStrictPrefixAndATrailingByteThrow) {
  const Layout &L = GetParam();
  Rng R(PropertySeed + 1);
  for (int I = 0, N = instances(); I < N; ++I) {
    Bytes B = L.Random(R);
    for (size_t N = 0; N < B.size(); ++N)
      EXPECT_FALSE(tryReencode(L, Bytes(B.begin(), B.begin() + N)))
          << "instance " << I << " cut to " << N << " of " << B.size()
          << " bytes decoded: " << hex(B);
    Bytes Longer = B;
    Longer.push_back(0);
    EXPECT_FALSE(tryReencode(L, Longer))
        << "instance " << I << " decoded with a trailing byte";
  }
}

TEST_P(CodecProperties, EveryByteFlipThrowsTheTypedErrorOrDecodes) {
  const Layout &L = GetParam();
  Rng R(PropertySeed + 2);
  for (int I = 0, N = flippedInstances(); I < N; ++I) {
    Bytes B = L.Random(R);
    for (size_t P = 0; P < B.size(); ++P)
      for (uint8_t Mask : FlipMasks) {
        Bytes Flipped = B;
        Flipped[P] ^= Mask;
        tryReencode(L, Flipped);
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, CodecProperties,
                         ::testing::ValuesIn(layouts()),
                         [](const ::testing::TestParamInfo<Layout> &Info) {
                           return Info.param.Name;
                         });

//===----------------------------------------------------------------------===//
// Frames: readFrame over a socketpair
//===----------------------------------------------------------------------===//

/// A connected stream socket pair.
struct SocketPair {
  Socket A, B;
  SocketPair() {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      throw std::runtime_error("socketpair failed");
    A = Socket(Fds[0]);
    B = Socket(Fds[1]);
  }
};

/// The bytes writeFrame puts on the wire for (\p Type, \p Payload).
Bytes wireFrame(MsgType Type, const Bytes &Payload) {
  SocketPair P;
  writeFrame(P.A, Type, Payload);
  P.A.close();
  Bytes Wire;
  uint8_t Buf[4096];
  while (size_t N = P.B.recvSome(Buf, sizeof(Buf)))
    Wire.insert(Wire.end(), Buf, Buf + N);
  return Wire;
}

/// readFrame of \p Wire sent whole, followed by the sender's close.
std::optional<Frame> readWire(const Bytes &Wire) {
  SocketPair P;
  P.A.sendAll(Wire.data(), Wire.size());
  P.A.close();
  return readFrame(P.B);
}

/// Every message type, each with a payload of 0 to 64 random bytes
/// (readFrame never looks inside a payload).
template <class FnT> void forEachRandomFrame(Rng &R, int Count, FnT Fn) {
  for (int I = 0; I < Count; ++I)
    for (uint8_t T = static_cast<uint8_t>(MsgType::Hello);
         T <= static_cast<uint8_t>(MsgType::Error); ++T) {
      Bytes Payload(R.nextBelow(65));
      for (uint8_t &B : Payload)
        B = static_cast<uint8_t>(R.next());
      Fn(static_cast<MsgType>(T), Payload);
    }
}

TEST(FrameProperties, EveryStrictPrefixThrowsAndOnlyTheEmptyOneIsACleanClose) {
  Rng R(PropertySeed + 3);
  EXPECT_FALSE(readWire({}));
  forEachRandomFrame(R, instances(), [](MsgType Type, const Bytes &Payload) {
    Bytes Wire = wireFrame(Type, Payload);
    std::optional<Frame> Whole = readWire(Wire);
    ASSERT_TRUE(Whole);
    EXPECT_EQ(Whole->Type, Type);
    EXPECT_EQ(Whole->Payload, Payload);
    for (size_t N = 1; N < Wire.size(); ++N)
      EXPECT_THROW(readWire(Bytes(Wire.begin(), Wire.begin() + N)),
                   ProtocolError)
          << "cut to " << N << " of " << Wire.size() << ": " << hex(Wire);
  });
}

TEST(FrameProperties, EveryHeaderFlipThrowsOrDecodesAsTheFlippedHeaderSays) {
  const size_t HeaderBytes = wireFrame(MsgType::Stats, {}).size();
  ASSERT_EQ(HeaderBytes, 9u);
  Rng R(PropertySeed + 4);
  forEachRandomFrame(R, flippedInstances(), [&](MsgType Type,
                                                const Bytes &Payload) {
    const Bytes Wire = wireFrame(Type, Payload);
    for (size_t P = 0; P < HeaderBytes; ++P)
      for (uint8_t Mask : FlipMasks) {
        Bytes Flipped = Wire;
        Flipped[P] ^= Mask;
        std::optional<Frame> F;
        try {
          F = readWire(Flipped);
        } catch (const ProtocolError &) {
          continue; // Anything but ProtocolError escapes and fails.
        }
        // A non-empty stream never reads as a clean close, and a frame
        // that decodes is the flipped bytes, re-encoded: its type and
        // length are the flipped header's, its payload the bytes after.
        ASSERT_TRUE(F) << "flip " << int(Mask) << " at " << P;
        ASSERT_LE(HeaderBytes + F->Payload.size(), Flipped.size());
        EXPECT_EQ(hex(wireFrame(F->Type, F->Payload)),
                  hex(Bytes(Flipped.begin(), Flipped.begin() + HeaderBytes +
                                                 F->Payload.size())))
            << "flip " << int(Mask) << " at " << P;
      }
  });
}

//===----------------------------------------------------------------------===//
// The store entry header: decodeEntry through get() and the listing
//===----------------------------------------------------------------------===//

/// A store in a fresh private temp directory, removed on destruction.
class ScratchStore {
public:
  ScratchStore() {
    char Template[] = "/tmp/halo_codec_test.XXXXXX";
    if (!::mkdtemp(Template))
      throw std::runtime_error("mkdtemp failed");
    Store.emplace(Template);
  }
  ~ScratchStore() {
    for (const ArtifactStore::Entry &E : Store->entries())
      ::unlink(path(E.File).c_str());
    ::rmdir(Store->dir().c_str());
  }
  ArtifactStore &operator*() { return *Store; }
  ArtifactStore *operator->() { return &*Store; }
  std::string path(const std::string &File) const {
    return Store->dir() + "/" + File;
  }

private:
  std::optional<ArtifactStore> Store;
};

Bytes readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(In), {});
}

void writeBytes(const std::string &Path, const Bytes &B) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(B.data()),
            static_cast<std::streamsize>(B.size()));
}

TEST(StoreEntryProperties, EveryPrefixAndFlipReadsAsAbsentThroughGet) {
  ScratchStore Store;
  const StoreKey Key =
      hdsStoreKey("health", Scale::Test, 1, HdsParameters());
  Rng R(PropertySeed + 5);
  for (int I = 0, N = flippedInstances(); I < N; ++I) {
    BinaryWriter W;
    saveHdsArtifacts(randomHds(R), W);
    const Bytes Payload = W.take();
    ASSERT_TRUE(Store->put(Key, Payload));
    std::vector<ArtifactStore::Entry> Listed = Store->entries();
    ASSERT_EQ(Listed.size(), 1u);
    ASSERT_TRUE(Listed[0].Valid) << Listed[0].Problem;
    const std::string File = Store.path(Listed[0].File);
    const Bytes Raw = readBytes(File);
    // The label's text, found by value rather than by the header layout.
    const size_t LabelAt =
        std::search(Raw.begin(), Raw.end(), Key.Label.begin(),
                    Key.Label.end()) - Raw.begin();
    ASSERT_LT(LabelAt, Raw.size());

    // Reads \p Entry back both ways: get() never returns it, and the
    // listing shows it invalid -- unless \p InLabel, a flip inside the
    // label's text, which no checksum covers: that lists as valid under
    // the flipped label.
    auto Check = [&](const Bytes &Entry, bool InLabel,
                     const std::string &What) {
      writeBytes(File, Entry);
      EXPECT_FALSE(Store->get(Key)) << What;
      Listed = Store->entries();
      ASSERT_EQ(Listed.size(), 1u) << What;
      if (!InLabel) {
        EXPECT_FALSE(Listed[0].Valid) << What;
        return;
      }
      EXPECT_TRUE(Listed[0].Valid) << What;
      EXPECT_NE(Listed[0].Label, Key.Label) << What;
    };
    for (size_t Cut = 0; Cut < Raw.size(); ++Cut)
      Check(Bytes(Raw.begin(), Raw.begin() + Cut), false,
            "cut to " + std::to_string(Cut));
    for (size_t P = 0; P < Raw.size(); ++P)
      for (uint8_t Mask : FlipMasks) {
        Bytes Flipped = Raw;
        Flipped[P] ^= Mask;
        bool InLabel = P >= LabelAt && P < LabelAt + Key.Label.size();
        Check(Flipped, InLabel,
              "flip " + std::to_string(Mask) + " at " + std::to_string(P));
      }
    writeBytes(File, Raw);
  }
}

//===----------------------------------------------------------------------===//
// Domains: the last value in, the first value out
//===----------------------------------------------------------------------===//

/// True if \p Decode accepts \p B, false if it throws \p ErrorT (anything
/// else propagates and fails the test).
template <class ErrorT, class DecodeT> bool decodes(DecodeT Decode, const Bytes &B) {
  try {
    Decode(B);
    return true;
  } catch (const ErrorT &) {
    return false;
  }
}

/// \p Make(V) encodes an instance whose field \p Field holds V.
template <class ErrorT, class DecodeT, class MakeT>
void expectDomainEnd(const char *Field, DecodeT Decode, MakeT Make,
                     uint64_t LastIn, uint64_t FirstOut) {
  EXPECT_TRUE(decodes<ErrorT>(Decode, Make(LastIn)))
      << Field << " = " << LastIn << " must decode";
  EXPECT_FALSE(decodes<ErrorT>(Decode, Make(FirstOut)))
      << Field << " = " << FirstOut << " must throw";
}

constexpr uint64_t MaxWireCount = 1u << 16;
constexpr uint64_t LastKind =
    static_cast<uint64_t>(AllocatorKind::HaloInstrumentedOnly);

TEST(CodecDomains, PayloadFieldsRejectTheFirstValuePastTheirDomain) {
  auto Request = [](auto Edit) {
    return [=](uint64_t V) {
      PlanRequest Q = pinnedPlanRequest();
      Edit(Q, V);
      return encodePlanRequest(Q);
    };
  };
  auto Decode = decodePlanRequest;
  expectDomainEnd<ProtocolError>("SubmitPlan kind", Decode,
      Request([](PlanRequest &Q, uint64_t V) {
        Q.Kinds = {static_cast<AllocatorKind>(V)};
      }), LastKind, LastKind + 1);
  expectDomainEnd<ProtocolError>("SubmitPlan scale", Decode,
      Request([](PlanRequest &Q, uint64_t V) { Q.S = static_cast<Scale>(V); }),
      1, 2);
  expectDomainEnd<ProtocolError>("SubmitPlan trials", Decode,
      Request([](PlanRequest &Q, uint64_t V) { Q.Trials = static_cast<int>(V); }),
      MaxWireCount, MaxWireCount + 1);
  // Zero trials is below the domain: the bound has two ends.
  expectDomainEnd<ProtocolError>("SubmitPlan trials (low end)", Decode,
      Request([](PlanRequest &Q, uint64_t V) { Q.Trials = static_cast<int>(V); }),
      1, 0);
  expectDomainEnd<ProtocolError>("SubmitPlan benchmark count", Decode,
      Request([](PlanRequest &Q, uint64_t V) {
        Q.Benchmarks.assign(V, std::string());
      }), MaxWireCount, MaxWireCount + 1);
  expectDomainEnd<ProtocolError>("SubmitPlan machine count", Decode,
      Request([](PlanRequest &Q, uint64_t V) {
        Q.Machines.assign(V, std::string());
      }), MaxWireCount, MaxWireCount + 1);
  expectDomainEnd<ProtocolError>("SubmitPlan kind count", Decode,
      Request([](PlanRequest &Q, uint64_t V) {
        Q.Kinds.assign(V, AllocatorKind::Jemalloc);
      }), MaxWireCount, MaxWireCount + 1);

  auto Cell = [](auto Edit) {
    return [=](uint64_t V) {
      CellResultMsg M = pinnedCellResult();
      Edit(M, V);
      return encodeCellResult(M);
    };
  };
  expectDomainEnd<ProtocolError>("CellResult kind", decodeCellResult,
      Cell([](CellResultMsg &M, uint64_t V) {
        M.Key.Kind = static_cast<AllocatorKind>(V);
      }), LastKind, LastKind + 1);
  expectDomainEnd<ProtocolError>("CellResult scale", decodeCellResult,
      Cell([](CellResultMsg &M, uint64_t V) { M.Key.S = static_cast<Scale>(V); }),
      1, 2);
  expectDomainEnd<ProtocolError>("CellResult trials", decodeCellResult,
      Cell([](CellResultMsg &M, uint64_t V) {
        M.Key.Trials = static_cast<int>(V);
      }), MaxWireCount, MaxWireCount + 1);
  expectDomainEnd<ProtocolError>("CellResult run count", decodeCellResult,
      Cell([](CellResultMsg &M, uint64_t V) {
        M.Runs.assign(V, RunMetrics());
      }), MaxWireCount, MaxWireCount + 1);

  expectDomainEnd<ProtocolError>("PlanDone status", decodePlanDone,
      [](uint64_t V) {
        return encodePlanDone({1, static_cast<PlanStatus>(V), ""});
      }, 2, 3);

  // A flag is one byte, 0 or 1, and the last byte of both payloads.
  expectDomainEnd<ProtocolError>("HelloAck store flag", decodeHelloAck,
      [](uint64_t V) {
        Bytes B = encodeHelloAck({1, 2, true});
        B.back() = static_cast<uint8_t>(V);
        return B;
      }, 1, 2);
  expectDomainEnd<ProtocolError>("StatsReply store flag", decodeStatsReply,
      [](uint64_t V) {
        Bytes B = encodeStatsReply(pinnedStats());
        B.back() = static_cast<uint8_t>(V);
        return B;
      }, 1, 2);
}

/// Saves \p V through \p Save, then, for FirstOut, rewrites the one id
/// holding 2^32 - 1 to 2^32: both are five-byte varints, so nothing else
/// moves.
template <class T, class SaveT>
std::function<Bytes(uint64_t)> idField(T V, SaveT Save) {
  return [=](uint64_t Id) {
    BinaryWriter W;
    Save(V, W);
    Bytes B = W.take();
    if (Id == UINT32_MAX)
      return B;
    const uint8_t Last[] = {0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
    const uint8_t First[] = {0x80, 0x80, 0x80, 0x80, 0x10};
    auto At = std::search(B.begin(), B.end(), Last, Last + 5);
    EXPECT_NE(At, B.end());
    EXPECT_EQ(std::search(At + 1, B.end(), Last, Last + 5), B.end())
        << "the instance holds 2^32 - 1 twice";
    if (At != B.end())
      std::copy(First, First + 5, At);
    return B;
  };
}

/// Decodes a whole bundle layout: every byte read.
template <class LoadT> auto wholly(LoadT Load) {
  return [=](const Bytes &B) {
    BinaryReader R(B);
    Load(R);
    R.expectEnd("bundle");
  };
}

TEST(CodecDomains, BundleIdsRejectTheFirstValuePastThirtyTwoBits) {
  constexpr uint32_t Max = UINT32_MAX;
  auto Hds = wholly(loadHdsArtifacts);
  HdsArtifacts Element;
  Element.Analysis.Streams = {{{1, Max, 3}, 5, 15}};
  expectDomainEnd<SerializationError>("hds stream element", Hds,
      idField(Element, saveHdsArtifacts), Max, uint64_t(Max) + 1);
  HdsArtifacts Site;
  Site.Groups = {{{2, Max}, 0.5}};
  expectDomainEnd<SerializationError>("hds site", Hds,
      idField(Site, saveHdsArtifacts), Max, uint64_t(Max) + 1);

  expectDomainEnd<SerializationError>("group member", wholly(loadGroups),
      idField(std::vector<Group>{{{4, Max}, 7, 9}}, saveGroups), Max,
      uint64_t(Max) + 1);

  IdentificationResult SelectorSite;
  SelectorSite.Selectors = {Selector{{Conjunction{{3, Max}}}}};
  expectDomainEnd<SerializationError>("selector site",
      wholly(loadIdentification), idField(SelectorSite, saveIdentification),
      Max, uint64_t(Max) + 1);
  IdentificationResult IdentifiedSite;
  IdentifiedSite.Sites = {Max, 6};
  expectDomainEnd<SerializationError>("identified site",
      wholly(loadIdentification), idField(IdentifiedSite, saveIdentification),
      Max, uint64_t(Max) + 1);

  auto SaveTable = [](const ContextTable &T, BinaryWriter &W) { T.save(W); };
  ContextTable Function, CallSite;
  Function.intern({CallFrame{Max, 1}});
  CallSite.intern({CallFrame{2, Max}});
  expectDomainEnd<SerializationError>("context frame function",
      wholly(ContextTable::load), idField(Function, SaveTable), Max,
      uint64_t(Max) + 1);
  expectDomainEnd<SerializationError>("context frame site",
      wholly(ContextTable::load), idField(CallSite, SaveTable), Max,
      uint64_t(Max) + 1);
}

TEST(CodecDomains, HdsBundleStampsMustMatch) {
  BinaryWriter W;
  saveHdsArtifacts(HdsArtifacts(), W);
  auto Hds = wholly(loadHdsArtifacts);
  EXPECT_TRUE(decodes<SerializationError>(Hds, W.buffer()));
  for (size_t Byte : {size_t(0), size_t(4)}) { // Magic, then version.
    Bytes B = W.buffer();
    ++B[Byte];
    EXPECT_FALSE(decodes<SerializationError>(Hds, B)) << "byte " << Byte;
  }
}

} // namespace
