//===- tests/depth_test.cpp - depth-free execution regression tests -------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression suite for the stack-overflow-on-deep-recursion fix: grammar
/// recursion depth must be independent of the C++ call stack in ALL
/// engines (interpreter, generated, bytecode VM). Linear self-recursive
/// rules run loop-flattened; general
/// recursion runs on the explicit act-stack machine; MaxDepth is a
/// genuine resource limit that trips as a clean hard error — at a
/// million frames, under ASan, with a 1 MiB thread stack — never as a
/// crash. Also hosts the PeakDepth interpreter-vs-generated parity
/// checks (the counter used to be hardwired to 0 for generated parsers).
///
//===----------------------------------------------------------------------===//

#include "codegen/GenEngine.h"
#include "formats/FormatRegistry.h"
#include "runtime/Engine.h"
#include "runtime/Interp.h"

#include "TreeCanonical.h"

#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace ipg;

namespace {

/// Linear self-recursion (the PDF XNum shape): exactly one self-reference
/// behind a terminal prefix. analysis/RecShape.h classifies this
/// Flattened — both engines run it as a descend/replay loop.
const char *FlattenableGrammar = R"(
  A -> "x"[0, 1] A[1, EOI] / "x"[0, 1] ;
)";

/// Two self-references: not linear, so RecShape classifies it Step and
/// it runs on the explicit act-stack machine in both engines.
const char *MachineGrammar = R"(
  T -> "a"[0, 1] T[1, EOI] / "b"[0, 1] T[1, EOI]
     / "a"[0, 1] / "b"[0, 1] ;
)";

Grammar load(const char *Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return std::move(R->G);
}

bool haveGen() { return GenModule::hostCompilerAvailable(); }

std::vector<uint8_t> runOf(char C, size_t N) {
  return std::vector<uint8_t>(N, static_cast<uint8_t>(C));
}

/// 'a'/'b' mix so the machine's alternative backtracking is exercised at
/// every level, deterministically.
std::vector<uint8_t> abMix(size_t N) {
  std::vector<uint8_t> V(N);
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (size_t I = 0; I < N; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    V[I] = (X & 1) ? 'a' : 'b';
  }
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Deep success: a million recursion levels parse fine when MaxDepth
// allows them — the levels live on engine-managed frames, not the C
// stack (the CI reduced-stack job runs this with `ulimit -s 1024`).
//===----------------------------------------------------------------------===//

TEST(DepthTest, FlattenedRuleParsesAMillionLevels) {
  Grammar G = load(FlattenableGrammar);
  EngineOptions Opts;
  Opts.MaxDepth = size_t{1} << 21;
  constexpr size_t N = 1'000'000;
  std::vector<uint8_t> In = runOf('x', N);

  auto E = makeEngine(EngineKind::Interp, G, nullptr, Opts);
  ASSERT_TRUE(E) << E.message();
  auto T = (*E)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T) << T.message();
  // One node per level, one leaf per level; PeakDepth counts the virtual
  // recursion exactly as plain recursion would have — N committed levels
  // plus the final failed descend into the empty tail slice.
  EXPECT_EQ((*E)->stats().PeakDepth, N + 1);
  EXPECT_EQ(treeSize(**T), 2 * N);
}

TEST(DepthTest, MachineRuleParsesDeepMixedInput) {
  Grammar G = load(MachineGrammar);
  EngineOptions Opts;
  Opts.MaxDepth = size_t{1} << 18;
  constexpr size_t N = 150'000;
  std::vector<uint8_t> In = abMix(N);

  auto E = makeEngine(EngineKind::Interp, G, nullptr, Opts);
  ASSERT_TRUE(E) << E.message();
  auto T = (*E)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T) << T.message();
  EXPECT_EQ((*E)->stats().PeakDepth, N + 1);
  EXPECT_EQ(treeSize(**T), 2 * N);
}

//===----------------------------------------------------------------------===//
// The bytecode VM runs the SAME three-tier strategy over the lowered IR,
// so it gets the same depth-freedom tests: a million flattened levels, a
// deep machine-tier input, and exact PeakDepth/tree parity with the
// interpreter — all in-process, no compiler needed.
//===----------------------------------------------------------------------===//

TEST(DepthTest, VmParsesAMillionLevels) {
  Grammar G = load(FlattenableGrammar);
  EngineOptions Opts;
  Opts.MaxDepth = size_t{1} << 21;
  constexpr size_t N = 1'000'000;
  std::vector<uint8_t> In = runOf('x', N);

  auto E = makeEngine(EngineKind::Vm, G, nullptr, Opts);
  ASSERT_TRUE(E) << E.message();
  auto T = (*E)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T) << T.message();
  EXPECT_EQ((*E)->stats().PeakDepth, N + 1);
  EXPECT_EQ(treeSize(**T), 2 * N);
}

TEST(DepthTest, VmMatchesInterpreterAtDepth) {
  struct Case {
    const char *Tag;
    const char *Src;
    std::vector<uint8_t> In;
  };
  const Case Cases[] = {
      {"flattened", FlattenableGrammar, runOf('x', 200'000)},
      {"machine", MachineGrammar, abMix(60'000)},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Tag);
    Grammar G = load(C.Src);
    EngineOptions Opts;
    Opts.MaxDepth = size_t{1} << 19;

    auto IE = makeEngine(EngineKind::Interp, G, nullptr, Opts);
    ASSERT_TRUE(IE) << IE.message();
    auto VE = makeEngine(EngineKind::Vm, G, nullptr, Opts);
    ASSERT_TRUE(VE) << VE.message();

    auto TI = (*IE)->parse(ByteSpan::of(C.In));
    ASSERT_TRUE(TI) << TI.message();
    auto TV = (*VE)->parse(ByteSpan::of(C.In));
    ASSERT_TRUE(TV) << TV.message();

    EXPECT_TRUE(testutil::treesEqual(TI->get(), G, TV->get(), G))
        << C.Tag << ": deep trees diverge between interpreter and VM";
    EXPECT_EQ((*IE)->stats().PeakDepth, (*VE)->stats().PeakDepth);
    EXPECT_EQ((*IE)->stats().PeakDepth, C.In.size() + 1);
    EXPECT_EQ((*IE)->stats().NodesCreated, (*VE)->stats().NodesCreated);
    EXPECT_EQ((*IE)->stats().TermsExecuted, (*VE)->stats().TermsExecuted);
    EXPECT_EQ((*IE)->stats().MemoHits, (*VE)->stats().MemoHits);
    EXPECT_EQ((*IE)->stats().MemoMisses, (*VE)->stats().MemoMisses);

    // The limit trips identically — hard, with the same diagnostic.
    EngineOptions Tight = Opts;
    Tight.MaxDepth = C.In.size() / 2;
    auto IE2 = makeEngine(EngineKind::Interp, G, nullptr, Tight);
    auto VE2 = makeEngine(EngineKind::Vm, G, nullptr, Tight);
    ASSERT_TRUE(IE2);
    ASSERT_TRUE(VE2) << VE2.message();
    auto FI = (*IE2)->parse(ByteSpan::of(C.In));
    auto FV = (*VE2)->parse(ByteSpan::of(C.In));
    ASSERT_FALSE(FI);
    ASSERT_FALSE(FV);
    EXPECT_EQ(FI.message(), FV.message());
    EXPECT_NE(FV.message().find("depth"), std::string::npos)
        << FV.message();
  }
}

//===----------------------------------------------------------------------===//
// The depth limit as a resource cap: at 10^6 frames the parse must stop
// with a clean hard error that names the limit — not overflow the stack.
//===----------------------------------------------------------------------===//

TEST(DepthTest, MaxDepthTripsCleanlyAtAMillionFrames) {
  Grammar G = load(FlattenableGrammar);
  EngineOptions Opts;
  Opts.MaxDepth = 1'000'000;
  std::vector<uint8_t> In = runOf('x', 1'200'000);

  auto E = makeEngine(EngineKind::Interp, G, nullptr, Opts);
  ASSERT_TRUE(E) << E.message();
  auto T = (*E)->parse(ByteSpan::of(In));
  ASSERT_FALSE(T) << "a 1.2M-level input must trip the 10^6 depth limit";
  EXPECT_NE(T.message().find("depth"), std::string::npos)
      << "the failure must name the depth limit, got: " << T.message();
  // A hard failure: no backtracking into the shorter alternative, which
  // would otherwise accept a prefix.
}

TEST(DepthTest, MachineMaxDepthTripsCleanly) {
  Grammar G = load(MachineGrammar);
  EngineOptions Opts;
  Opts.MaxDepth = 10'000;
  std::vector<uint8_t> In = abMix(50'000);

  auto E = makeEngine(EngineKind::Interp, G, nullptr, Opts);
  ASSERT_TRUE(E) << E.message();
  auto T = (*E)->parse(ByteSpan::of(In));
  ASSERT_FALSE(T);
  EXPECT_NE(T.message().find("depth"), std::string::npos) << T.message();
}

//===----------------------------------------------------------------------===//
// Generated engine: same depth-freedom, same limit semantics, and
// PeakDepth parity with the interpreter (the ipg_mod_stats ABI used to
// leave the counter at 0 for generated parsers).
//===----------------------------------------------------------------------===//

TEST(DepthTest, GeneratedEngineMatchesInterpreterAtDepth) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";

  struct Case {
    const char *Tag;
    const char *Src;
    std::vector<uint8_t> In;
  };
  const Case Cases[] = {
      {"flattened", FlattenableGrammar, runOf('x', 200'000)},
      {"machine", MachineGrammar, abMix(60'000)},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Tag);
    Grammar G = load(C.Src);
    EngineOptions Opts;
    Opts.MaxDepth = size_t{1} << 19;

    auto IE = makeEngine(EngineKind::Interp, G, nullptr, Opts);
    ASSERT_TRUE(IE) << IE.message();
    auto GE = makeEngine(EngineKind::Generated, G, nullptr, Opts);
    ASSERT_TRUE(GE) << GE.message();

    auto TI = (*IE)->parse(ByteSpan::of(C.In));
    ASSERT_TRUE(TI) << TI.message();
    auto TG = (*GE)->parse(ByteSpan::of(C.In));
    ASSERT_TRUE(TG) << TG.message();

    EXPECT_TRUE(testutil::treesEqual(TI->get(), G, TG->get(), G))
        << C.Tag << ": deep trees diverge between the engines";
    EXPECT_EQ((*IE)->stats().PeakDepth, (*GE)->stats().PeakDepth);
    EXPECT_EQ((*IE)->stats().PeakDepth, C.In.size() + 1);
    EXPECT_EQ((*IE)->stats().NodesCreated, (*GE)->stats().NodesCreated);
    EXPECT_EQ((*IE)->stats().MemoHits, (*GE)->stats().MemoHits);
    EXPECT_EQ((*IE)->stats().MemoMisses, (*GE)->stats().MemoMisses);

    // The limit trips identically: cleanly, and without accepting a
    // shorter parse.
    EngineOptions Tight = Opts;
    Tight.MaxDepth = C.In.size() / 2;
    auto IE2 = makeEngine(EngineKind::Interp, G, nullptr, Tight);
    auto GE2 = makeEngine(EngineKind::Generated, G, nullptr, Tight);
    ASSERT_TRUE(IE2);
    ASSERT_TRUE(GE2) << GE2.message();
    EXPECT_FALSE((*IE2)->parse(ByteSpan::of(C.In)));
    EXPECT_FALSE((*GE2)->parse(ByteSpan::of(C.In)));
  }
}

//===----------------------------------------------------------------------===//
// MaxDepth bounds work actually done. An alternative whose byte guard
// (lir::AltGuard) fails is skipped in every engine, so a dead descent
// that used to trip a tight depth limit now never starts: the parse
// finishes, with the same verdict, tree and counters in all three.
//===----------------------------------------------------------------------===//

namespace {

/// pdf's XNum shape (Flattened): the self call runs first, the digit
/// that guards it sits after it at EOI - 1.
const char *DeadFlattenedDescentGrammar = R"(
  S -> N[0, EOI] / raw[0, EOI] ;
  N -> N[0, EOI - 1] D[EOI - 1, EOI] / D[EOI - 1, EOI] ;
  D -> "0"[0, 1] / "1"[0, 1] ;
)";

/// Mutual recursion (Step): P's first alternative can only succeed with
/// an 'a' at EOI - 1, its second with a 'b' there. (Both read EOI - 1,
/// so P has no FIRST set and S's first alternative stays unguarded.)
const char *DeadMachineDescentGrammar = R"(
  S -> P[0, EOI] / raw[0, EOI] ;
  P -> Q[0, EOI - 1] "a"[EOI - 1, EOI] / "b"[EOI - 1, EOI] ;
  Q -> P[0, EOI] ;
)";

} // namespace

TEST(DepthTest, DeadAlternativesNoLongerTripMaxDepth) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";

  struct Case {
    const char *Tag;
    const char *Src;
    const char *Tail;
    size_t WantPeak;
  };
  // Each input is 300 'x' bytes and a tail; unguarded, both grammars
  // descend once per byte before failing back to S's raw alternative.
  const Case Cases[] = {
      {"flattened", DeadFlattenedDescentGrammar, "1", 3},
      {"machine", DeadMachineDescentGrammar, "a", 4},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Tag);
    Grammar G = load(C.Src);
    std::vector<uint8_t> In = runOf('x', 300);
    In.insert(In.end(), C.Tail, C.Tail + std::string(C.Tail).size());
    EngineOptions Opts;
    Opts.MaxDepth = 64;

    auto IE = makeEngine(EngineKind::Interp, G, nullptr, Opts);
    ASSERT_TRUE(IE) << IE.message();
    auto VE = makeEngine(EngineKind::Vm, G, nullptr, Opts);
    ASSERT_TRUE(VE) << VE.message();
    auto GE = makeEngine(EngineKind::Generated, G, nullptr, Opts);
    ASSERT_TRUE(GE) << GE.message();

    auto TI = (*IE)->parse(ByteSpan::of(In));
    ASSERT_TRUE(TI) << TI.message();
    auto TV = (*VE)->parse(ByteSpan::of(In));
    ASSERT_TRUE(TV) << TV.message();
    auto TG = (*GE)->parse(ByteSpan::of(In));
    ASSERT_TRUE(TG) << TG.message();

    EXPECT_EQ(testutil::renderCanonical(*TI, G),
              testutil::renderCanonical(*TV, G));
    EXPECT_TRUE(testutil::treesEqual(TI->get(), G, TG->get(), G));
    const EngineStats &SI = (*IE)->stats();
    const EngineStats &SV = (*VE)->stats();
    const EngineStats &SG = (*GE)->stats();
    EXPECT_EQ(SI.ParseVerdict, Verdict::Accept);
    EXPECT_EQ(SV.ParseVerdict, Verdict::Accept);
    EXPECT_EQ(SG.ParseVerdict, Verdict::Accept);
    EXPECT_EQ(SI.PeakDepth, C.WantPeak);
    EXPECT_EQ(SI.PeakDepth, SV.PeakDepth);
    EXPECT_EQ(SI.PeakDepth, SG.PeakDepth);
    EXPECT_EQ(SI.TermsExecuted, SV.TermsExecuted);
    EXPECT_EQ(SI.NodesCreated, SV.NodesCreated);
    EXPECT_EQ(SI.NodesCreated, SG.NodesCreated);
    EXPECT_EQ(SI.MemoHits, SV.MemoHits);
    EXPECT_EQ(SI.MemoHits, SG.MemoHits);
    EXPECT_EQ(SI.MemoMisses, SV.MemoMisses);
    EXPECT_EQ(SI.MemoMisses, SG.MemoMisses);
  }
}

//===----------------------------------------------------------------------===//
// PeakDepth parity on a real format corpus (interp vs generated): the
// satellite bugfix for stats().PeakDepth == 0 on generated engines.
//===----------------------------------------------------------------------===//

TEST(DepthTest, PeakDepthParityOnFormatCorpus) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  auto IE = formats::makeFormatEngine("dns", EngineKind::Interp);
  ASSERT_TRUE(IE) << IE.message();
  auto GE = formats::makeFormatEngine("dns", EngineKind::Generated);
  ASSERT_TRUE(GE) << GE.message();
  std::vector<uint8_t> In = formats::sampleInput("dns", 2);
  ASSERT_TRUE((*IE)->parse(ByteSpan::of(In)));
  ASSERT_TRUE((*GE)->parse(ByteSpan::of(In)));
  EXPECT_GT((*GE)->stats().PeakDepth, 0u)
      << "generated engines must report PeakDepth, not 0";
  EXPECT_EQ((*IE)->stats().PeakDepth, (*GE)->stats().PeakDepth);
}
