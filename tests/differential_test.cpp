//===- tests/differential_test.cpp - engine vs generated parsers ----------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential harness: EVERY format corpus — blackbox formats
/// included, via the ipg_rt registration hook and the bridges in
/// formats::genBlackboxBridge — is parsed by ALL THREE engines (the
/// interpreter, the generated parser loaded in-process as a GenEngine,
/// and the bytecode VM over the lowered IR), and the trees are compared
/// node-by-node — shape, node names, start/end, every attribute value,
/// leaf windows. Every engine hands back a host ParseTree, so one
/// canonical text rendering (testutil::renderCanonical) compares them
/// all, and any byte of difference is a semantic divergence between
/// runtime/ParseSkeleton.h and codegen/CppEmitter.cpp. Memoized and
/// unmemoized generated parsers are also compared against each other:
/// the memo table must never change a parse result.
///
/// Also hosts the regression tests for the divergences this harness was
/// built to catch: pre-seeded start/end sentinels (a byte-untouched
/// child's X.start must fail with partiality, not read as EOI) and the
/// literal "EOI" env entry (X.EOI of a node that defines no such
/// attribute must fail, not answer the child's window size).
///
/// Tests that need a host C++ compiler skip gracefully without one. Each
/// format's module is compiled once per run (tests/GenModuleCache.h).
/// Under -DIPG_SANITIZE=ON the modules are compiled with ASan+UBSan too
/// (GenModule matches the host build), so the CI sanitizer job proves
/// generated code sanitizer-clean.
///
//===----------------------------------------------------------------------===//

#include "codegen/GenEngine.h"

#include "CorruptCorpus.h"
#include "GenModuleCache.h"
#include "TreeCanonical.h"
#include "formats/FormatRegistry.h"
#include "formats/Pdf.h"
#include "formats/Zip.h"
#include "runtime/Interp.h"
#include "support/Casting.h"

#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace ipg;
using testutil::generatedEngine;
using testutil::renderCanonical;

namespace {

Grammar load(const char *Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return std::move(R->G);
}

/// A generated engine over a test grammar (the regression grammars below
/// are one-offs, so there is nothing to share).
std::unique_ptr<Engine> genEngine(const Grammar &G,
                                  const EngineOptions &Opts = {}) {
  auto E = makeEngine(EngineKind::Generated, G, nullptr, Opts);
  EXPECT_TRUE(E) << E.message();
  return E ? std::move(*E) : nullptr;
}

/// The canonical dump of \p E's parse of \p In, or "" when it rejects.
std::string genDump(Engine &E, const std::vector<uint8_t> &In) {
  auto R = E.parse(ByteSpan::of(In));
  return R ? renderCanonical(*R, E.grammar()) : std::string();
}

} // namespace

//===----------------------------------------------------------------------===//
// The corpus sweep: interpreter == generated == VM on EVERY format.
// Blackbox formats (zip) participate through the registration hook: the
// module compiles the same MiniZlib decoder the interpreter registers and
// binds it with Parser::registerBlackbox.
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, AllFormatCorporaAgree) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  size_t Compared = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);

    auto FE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    ASSERT_TRUE(FE) << FE.message();
    const Grammar &G = FE->Load->G;
    ASSERT_EQ(formats::genBlackboxBridge(FI.Name) != nullptr,
              FI.NeedsBlackbox);
    auto FG = generatedEngine(FI.Name);
    ASSERT_TRUE(FG) << FG.message();
    // The third engine: the bytecode VM shares the interpreter's runtime
    // core, so beyond tree equality its counters must match exactly.
    auto FV = formats::makeFormatEngine(FI.Name, EngineKind::Vm);
    ASSERT_TRUE(FV) << FV.message();

    Engine &I = **FE;
    Engine &Gen = **FG;
    Engine &V = **FV;
    // Two input sizes per format so array/loop paths differ run-to-run.
    // These scales stay small because each dump is compared as text and
    // canonical dumps indent per level; the megabyte-class sweep below
    // (MegabyteCorpusAgreeInProcess) covers deep/large inputs by
    // structural comparison instead.
    for (unsigned Scale : {1u, 2u}) {
      SCOPED_TRACE("scale: " + std::to_string(Scale));
      std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, Scale);
      ASSERT_FALSE(Bytes.empty());

      auto R = I.parse(ByteSpan::of(Bytes));
      ASSERT_TRUE(R) << FI.Name << " corpus rejected by the interpreter: "
                     << R.message();
      std::string Want = renderCanonical(*R, G);

      auto RG = Gen.parse(ByteSpan::of(Bytes));
      ASSERT_TRUE(RG) << FI.Name << " corpus rejected by the generated "
                      << "parser: " << RG.message();
      EXPECT_EQ(Want, renderCanonical(*RG, FG->Load->G))
          << FI.Name << ": interpreter and generated trees diverge";
      EXPECT_EQ(I.stats().NodesCreated, Gen.stats().NodesCreated) << FI.Name;
      EXPECT_EQ(I.stats().MemoHits, Gen.stats().MemoHits) << FI.Name;
      EXPECT_EQ(I.stats().MemoMisses, Gen.stats().MemoMisses) << FI.Name;
      EXPECT_EQ(I.stats().PeakDepth, Gen.stats().PeakDepth) << FI.Name;

      auto RV = V.parse(ByteSpan::of(Bytes));
      ASSERT_TRUE(RV) << FI.Name
                      << " corpus rejected by the VM: " << RV.message();
      EXPECT_EQ(Want, renderCanonical(*RV, FV->Load->G))
          << FI.Name << ": interpreter and VM trees diverge";
      EXPECT_EQ(I.stats().NodesCreated, V.stats().NodesCreated) << FI.Name;
      EXPECT_EQ(I.stats().TermsExecuted, V.stats().TermsExecuted) << FI.Name;
      EXPECT_EQ(I.stats().MemoHits, V.stats().MemoHits) << FI.Name;
      EXPECT_EQ(I.stats().MemoMisses, V.stats().MemoMisses) << FI.Name;
      EXPECT_EQ(I.stats().PeakDepth, V.stats().PeakDepth) << FI.Name;
      ++Compared;
    }

    // All sides must also agree on rejection: corrupt the first byte.
    std::vector<uint8_t> Bad = formats::sampleInput(FI.Name, 1);
    Bad[0] ^= 0xff;
    size_t AcceptedNodes = I.stats().NodesCreated;
    bool InterpAccepts = static_cast<bool>(I.parse(ByteSpan::of(Bad)));
    // The stats contract holds inside the harness too: after a rejected
    // parse, stats() describes the rejection, not the accepted run.
    if (!InterpAccepts) {
      EXPECT_LT(I.stats().NodesCreated, AcceptedNodes)
          << FI.Name << ": stats() still shows the previous parse";
    }
    EXPECT_EQ(InterpAccepts, static_cast<bool>(Gen.parse(ByteSpan::of(Bad))))
        << FI.Name << ": accept/reject verdicts diverge on corrupt input";
    EXPECT_EQ(InterpAccepts, static_cast<bool>(V.parse(ByteSpan::of(Bad))))
        << FI.Name << ": interpreter/VM verdicts diverge on corrupt input";
  }
  EXPECT_EQ(Compared, 2 * formats::allFormats().size());
}

//===----------------------------------------------------------------------===//
// Corrupt-at-offset sweep: the single corrupt-first-byte probe above only
// sees one failure path per format. This sweep plants the shared damage
// grid (tests/CorruptCorpus.h: flips, truncations, and zero-runs at fixed
// offsets spread across each corpus — headers, directory structures,
// payload middles, trailers) and demands verdict agreement at every
// entry; when both engines accept a corruption (damage confined to
// don't-care payload bytes), their trees must still be identical.
// The same grid feeds tests/recovery_test.cpp and bench/bench_recovery.
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, CorruptAtOffsetSweepVerdictsAgree) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  constexpr size_t ProbesPerFormat = 8;

  size_t Checked = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto FE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    ASSERT_TRUE(FE) << FE.message();
    const Grammar &G = FE->Load->G;
    Engine &I = **FE;
    // Beyond verdicts and trees, the counters: alternative guards must
    // skip the same alternatives in both engines, so memo traffic, node
    // counts and depth agree on every mutant too.
    auto GE = generatedEngine(FI.Name);
    ASSERT_TRUE(GE) << GE.message();
    const std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, 1);
    ASSERT_GE(Bytes.size(), ProbesPerFormat);

    for (const testutil::CorruptProbe &P :
         testutil::corruptProbes(Bytes.size(), ProbesPerFormat)) {
      SCOPED_TRACE(std::string(testutil::corruptKindName(P.Kind)) + " @" +
                   std::to_string(P.Off));
      std::vector<uint8_t> Bad = testutil::corruptAt(Bytes, P.Kind, P.Off);
      auto R = I.parse(ByteSpan::of(Bad));
      auto RG = (*GE)->parse(ByteSpan::of(Bad));
      EXPECT_EQ(static_cast<bool>(R), static_cast<bool>(RG))
          << "accept/reject verdicts diverge";
      if (R && RG) {
        EXPECT_EQ(renderCanonical(*R, G), renderCanonical(*RG, GE->Load->G))
            << "both accepted the corruption but built different trees";
      }
      const EngineStats &SI = I.stats();
      const EngineStats &SG = (*GE)->stats();
      EXPECT_EQ(SI.ParseVerdict, SG.ParseVerdict);
      EXPECT_EQ(SI.NodesCreated, SG.NodesCreated);
      EXPECT_EQ(SI.MemoHits, SG.MemoHits);
      EXPECT_EQ(SI.MemoMisses, SG.MemoMisses);
      EXPECT_EQ(SI.PeakDepth, SG.PeakDepth);
      ASSERT_EQ(SI.FailRule == ~0u, SG.FailRule == ~0u);
      if (SI.FailRule != ~0u) {
        EXPECT_EQ(G.interner().name(SI.FailRule),
                  GE->Load->G.interner().name(SG.FailRule));
      }
      EXPECT_EQ(SI.FailOffset, SG.FailOffset);
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 3 * ProbesPerFormat * formats::allFormats().size());
}

//===----------------------------------------------------------------------===//
// The same sweep for the bytecode VM, entirely in-process — no host
// compiler needed, so this leg runs in EVERY CI job (the TSan matrix
// included). Because the VM shares the interpreter's runtime core down to
// the frame pool, the contract is stronger than verdict agreement: on
// every probe the trees, the failure messages, the failure diagnostics
// (failing rule + absolute byte offset), and all counters (NodesCreated,
// TermsExecuted, memo traffic, PeakDepth) must be identical, success or
// failure alike. FailRule is compared by interner NAME, not raw Symbol:
// the two engines load the grammar separately and may intern in a
// different order.
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, VmMatchesInterpreterOnCorruptAtOffsetSweep) {
  constexpr size_t ProbesPerFormat = 8;

  size_t Checked = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto IE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    ASSERT_TRUE(IE) << IE.message();
    auto VE = formats::makeFormatEngine(FI.Name, EngineKind::Vm);
    ASSERT_TRUE(VE) << VE.message();

    const std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, 1);
    ASSERT_GE(Bytes.size(), ProbesPerFormat);

    for (const testutil::CorruptProbe &P :
         testutil::corruptProbes(Bytes.size(), ProbesPerFormat)) {
      SCOPED_TRACE(std::string(testutil::corruptKindName(P.Kind)) + " @" +
                   std::to_string(P.Off));
      std::vector<uint8_t> Bad = testutil::corruptAt(Bytes, P.Kind, P.Off);

      auto RI = (*IE)->parse(ByteSpan::of(Bad));
      auto RV = (*VE)->parse(ByteSpan::of(Bad));
      ASSERT_EQ(static_cast<bool>(RI), static_cast<bool>(RV))
          << "interpreter/VM verdicts diverge";
      if (RI && RV)
        EXPECT_TRUE(testutil::treesEqual(RI->get(), IE->Load->G, RV->get(),
                                         VE->Load->G))
            << "both accepted the corruption but built different trees";
      else
        EXPECT_EQ(RI.message(), RV.message())
            << "both rejected, with different diagnostics";

      const EngineStats &SI = (*IE)->stats();
      const EngineStats &SV = (*VE)->stats();
      EXPECT_EQ(SI.NodesCreated, SV.NodesCreated);
      EXPECT_EQ(SI.TermsExecuted, SV.TermsExecuted);
      EXPECT_EQ(SI.MemoHits, SV.MemoHits);
      EXPECT_EQ(SI.MemoMisses, SV.MemoMisses);
      EXPECT_EQ(SI.PeakDepth, SV.PeakDepth);
      ASSERT_EQ(SI.FailRule == ~0u, SV.FailRule == ~0u)
          << "only one engine recorded a failure location";
      if (SI.FailRule != ~0u) {
        EXPECT_EQ(IE->Load->G.interner().name(SI.FailRule),
                  VE->Load->G.interner().name(SV.FailRule))
            << "failing-rule diagnostics diverge";
      }
      EXPECT_EQ(SI.FailOffset, SV.FailOffset)
          << "failure-offset diagnostics diverge";
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 3 * ProbesPerFormat * formats::allFormats().size());
}

//===----------------------------------------------------------------------===//
// The blackbox hook under load: a zip archive with DEFLATED entries runs
// the inflate blackbox on both sides (the stored-entry corpus above never
// reaches it). The decoded output leaf, val/start/end attributes, and the
// check(count) plumbing that depends on them must agree byte for byte.
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, ZipDeflatedEntriesAgreeThroughBlackboxHook) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  auto FE = formats::makeFormatEngine("zip", EngineKind::Interp);
  ASSERT_TRUE(FE) << FE.message();
  const Grammar &G = FE->Load->G;
  auto FG = generatedEngine("zip");
  ASSERT_TRUE(FG) << FG.message();

  std::vector<uint8_t> Bytes = formats::synthesizeZip(
      formats::zipArchiveOfCopies(4, 2048, /*Compress=*/true));
  auto R = (*FE)->parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(R) << R.message();
  std::string Want = renderCanonical(*R, G);
  // The corpus really exercised the blackbox: inflate nodes are present.
  EXPECT_NE(Want.find("Node inflate"), std::string::npos);

  auto RG = (*FG)->parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(RG) << RG.message();
  EXPECT_EQ(Want, renderCanonical(*RG, FG->Load->G))
      << "interpreter and generated trees diverge on deflated zip";

  // The VM resolves `inflate` through the same registry the interpreter
  // binds (via the lowered module's blackbox site table).
  auto FV = formats::makeFormatEngine("zip", EngineKind::Vm);
  ASSERT_TRUE(FV) << FV.message();
  auto RV = (*FV)->parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(RV) << RV.message();
  EXPECT_EQ(Want, renderCanonical(*RV, FV->Load->G))
      << "interpreter and VM trees diverge on deflated zip";

  // An unregistered blackbox is a hard failure, as in the interpreter:
  // the same grammar compiled without the bridge must reject, naming the
  // blackbox as the failure site.
  auto NoBridge = genEngine(FG->Load->G);
  ASSERT_NE(NoBridge, nullptr);
  EXPECT_FALSE(NoBridge->parse(ByteSpan::of(Bytes)))
      << "a parse reaching an unregistered blackbox must fail";
  ASSERT_NE(NoBridge->stats().FailRule, InvalidSymbol);
  EXPECT_EQ(FG->Load->G.interner().name(NoBridge->stats().FailRule),
            "inflate");
}

//===----------------------------------------------------------------------===//
// Memoization parity: with the memo table on (default) and off, generated
// parsers must produce byte-identical canonical dumps — memoization is an
// optimization, never a semantic change. PDF is the adversarial corpus
// (backtracking-heavy, Fig. 12's memo-sensitive format).
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, MemoizedAndUnmemoizedGeneratedParsersAgree) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  EngineOptions Off;
  Off.UseMemo = false;
  for (const char *Name : {"pdf", "gif", "dns"}) {
    SCOPED_TRACE(Name);
    auto Memo = generatedEngine(Name);
    ASSERT_TRUE(Memo) << Memo.message();
    auto Plain = generatedEngine(Name, Off);
    ASSERT_TRUE(Plain) << Plain.message();

    for (unsigned Scale : {1u, 2u}) {
      SCOPED_TRACE("scale: " + std::to_string(Scale));
      std::vector<uint8_t> Bytes = formats::sampleInput(Name, Scale);
      std::string A = genDump(**Memo, Bytes);
      std::string B = genDump(**Plain, Bytes);
      ASSERT_FALSE(A.empty());
      EXPECT_EQ(A, B) << Name << ": memoization changed the parse result";
      // The ablation really removed the table (codegen_test checks the
      // emitted code itself).
      EXPECT_EQ((*Plain)->stats().MemoHits + (*Plain)->stats().MemoMisses,
                0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Megabyte-class corpus: PDF and ELF (a megabyte image with thousands of
// table entries) at scale 64, plus a one-object PDF whose object body is
// over a megabyte, so Scan's "literal, else advance one byte" recursion
// is a live recursion past a million virtual levels. (The scale-64 PDF's
// depth used to come from XNum's dead whole-file descent, which the
// alternative guards now cut off at the first non-digit byte.) All three
// engines must agree; they run recursion on engine-managed frames, so
// the only requirement is a MaxDepth that covers the input. Trees are
// compared structurally: canonical text dumps indent two spaces per
// level, which is O(depth^2) output at this depth.
//===----------------------------------------------------------------------===//

TEST(DifferentialTest, MegabyteCorpusAgreeInProcess) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  formats::PdfSynthSpec BigObject;
  BigObject.NumObjects = 1;
  BigObject.ObjectBodySize = (size_t{1} << 20) + 4096;
  struct Case {
    const char *Tag;
    const char *Format;
    std::vector<uint8_t> Bytes;
    size_t MinPeakDepth;
  };
  const Case Cases[] = {
      {"pdf scale 64", "pdf", formats::sampleInput("pdf", 64), 1},
      {"elf scale 64", "elf", formats::sampleInput("elf", 64), 1},
      {"pdf megabyte object", "pdf", formats::synthesizePdf(BigObject),
       (size_t{1} << 20) + 1},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Tag);
    const char *Name = C.Format;
    EngineOptions Opts;
    Opts.MaxDepth = size_t{1} << 21;
    auto IE = formats::makeFormatEngine(Name, EngineKind::Interp, Opts);
    ASSERT_TRUE(IE) << IE.message();
    auto GE = generatedEngine(Name, Opts);
    ASSERT_TRUE(GE) << GE.message();
    auto VE = formats::makeFormatEngine(Name, EngineKind::Vm, Opts);
    ASSERT_TRUE(VE) << VE.message();

    const std::vector<uint8_t> &Bytes = C.Bytes;
    ASSERT_GE(Bytes.size(), size_t{1} << 20)
        << C.Tag << ": corpus is not megabyte-class";

    auto TI = (*IE)->parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(TI) << C.Tag << " interp: " << TI.message();
    auto TG = (*GE)->parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(TG) << C.Tag << " generated: " << TG.message();
    auto TV = (*VE)->parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(TV) << C.Tag << " vm: " << TV.message();

    EXPECT_TRUE(testutil::treesEqual(TI->get(), IE->Load->G, TG->get(),
                                     GE->Load->G))
        << C.Tag << ": interpreter and generated trees diverge";
    EXPECT_TRUE(testutil::treesEqual(TI->get(), IE->Load->G, TV->get(),
                                     VE->Load->G))
        << C.Tag << ": interpreter and VM trees diverge";

    // Counter parity at depth: all engines report the same recursion
    // profile, PeakDepth included.
    const EngineStats &SI = (*IE)->stats();
    const EngineStats &SG = (*GE)->stats();
    const EngineStats &SV = (*VE)->stats();
    EXPECT_EQ(SI.NodesCreated, SG.NodesCreated) << C.Tag;
    EXPECT_EQ(SI.MemoHits, SG.MemoHits) << C.Tag;
    EXPECT_EQ(SI.MemoMisses, SG.MemoMisses) << C.Tag;
    EXPECT_EQ(SI.PeakDepth, SG.PeakDepth) << C.Tag;
    EXPECT_EQ(SI.NodesCreated, SV.NodesCreated) << C.Tag;
    EXPECT_EQ(SI.TermsExecuted, SV.TermsExecuted) << C.Tag;
    EXPECT_EQ(SI.MemoHits, SV.MemoHits) << C.Tag;
    EXPECT_EQ(SI.MemoMisses, SV.MemoMisses) << C.Tag;
    EXPECT_EQ(SI.PeakDepth, SV.PeakDepth) << C.Tag;
    EXPECT_GE(SI.PeakDepth, C.MinPeakDepth)
        << C.Tag << ": recursion shallower than the corpus demands";
  }
}

//===----------------------------------------------------------------------===//
// Regression: a byte-untouched child exposes no start/end — referencing
// X.start must fail with partiality on BOTH sides (the generated runtime
// used to pre-seed start = EOI / end = 0 sentinels and answer EOI).
//===----------------------------------------------------------------------===//

namespace {

const char *UntouchedChildGrammar = R"(
  S -> A[0, 0] {s = A.start} "x"[0, 1] ;
  A -> {v = 1} ;
)";

const char *UntouchedChildControlGrammar = R"(
  S -> A[0, 0] {s = A.v} "x"[0, 1] ;
  A -> {v = 1} ;
)";

} // namespace

TEST(DifferentialTest, UntouchedChildStartIsPartialInInterpreter) {
  Grammar G = load(UntouchedChildGrammar);
  std::vector<uint8_t> In = {'x'};
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(In)))
      << "A touches no bytes, so A.start must be a partiality failure";

  // Control: the same shape succeeds when it references a real attribute,
  // proving the rejection above comes from A.start specifically.
  Grammar C = load(UntouchedChildControlGrammar);
  auto R = Interp(C).parse(ByteSpan::of(In));
  ASSERT_TRUE(R) << R.message();
  const auto *Root = cast<NodeTree>(R->get());
  auto SV = Root->attr(C.interner().intern("s"));
  ASSERT_TRUE(SV.has_value());
  EXPECT_EQ(*SV, 1);
  // And the untouched child carries neither start nor end.
  const NodeTree *A = Root->childNode(C.interner().intern("A"));
  ASSERT_NE(A, nullptr);
  EXPECT_FALSE(A->attr(C.symStart()).has_value());
  EXPECT_FALSE(A->attr(C.symEnd()).has_value());
}

TEST(DifferentialTest, UntouchedChildStartIsPartialInGenerated) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  std::vector<uint8_t> In = {'x'};

  Grammar G = load(UntouchedChildGrammar);
  auto E = genEngine(G);
  ASSERT_NE(E, nullptr);
  EXPECT_FALSE(E->parse(ByteSpan::of(In)))
      << "generated parser must fail A.start of a byte-untouched child";

  Grammar C = load(UntouchedChildControlGrammar);
  auto CE = genEngine(C);
  ASSERT_NE(CE, nullptr);
  std::string Dump = genDump(*CE, In);
  // The generated tree shows s=1 on S and no start/end on A.
  EXPECT_NE(Dump.find("s=1"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("Node A {v=1}"), std::string::npos) << Dump;
}

//===----------------------------------------------------------------------===//
// Regression: no node env carries a runtime-stored "EOI" binding. The old
// generated runtime wrote the window size into every env under the
// literal name "EOI" (and the pre-PR interpreter did the same), so a
// grammar attribute actually named EOI silently collided with it. Now the
// only EOI a tree can carry is one the grammar itself defined, and it
// reads back unclobbered; X.EOI of a child that defines no such
// attribute is already rejected statically.
//===----------------------------------------------------------------------===//

namespace {

/// A defines its own attribute literally named EOI; the parent reads it
/// through the env. The runtime must hand back the grammar's value (5),
/// not the child's window size (1).
const char *ChildEoiGrammar = R"(
  S -> A[0, 1] {n = A.EOI} ;
  A -> "x"[0, 1] {EOI = 5} ;
)";

} // namespace

TEST(DifferentialTest, NodeEnvHasNoEoiEntryInInterpreter) {
  std::vector<uint8_t> In = {'x'};

  // Without a grammar-defined EOI on A, A.EOI does not resolve — the
  // attribute checker rejects it statically (it used to "work" by
  // reading the runtime-stored entry).
  auto Undefined = loadGrammar(R"(
    S -> A[0, 1] {n = A.EOI} ;
    A -> "x"[0, 1] ;
  )");
  ASSERT_FALSE(Undefined);
  EXPECT_NE(Undefined.message().find("EOI"), std::string::npos);

  Grammar G = load(ChildEoiGrammar);
  auto RG = Interp(G).parse(ByteSpan::of(In));
  ASSERT_TRUE(RG) << RG.message();
  const auto *SN = cast<NodeTree>(RG->get());
  EXPECT_EQ(SN->attr(G.interner().intern("n")).value_or(-1), 5)
      << "A.EOI must read the grammar-defined attribute, not the window";

  // The env of a parsed node contains exactly its grammar-defined
  // attributes plus touched start/end — no runtime-stored EOI.
  Grammar Plain = load(R"(
    S -> A[0, 1] ;
    A -> "x"[0, 1] ;
  )");
  auto R = Interp(Plain).parse(ByteSpan::of(In));
  ASSERT_TRUE(R) << R.message();
  const auto *Root = cast<NodeTree>(R->get());
  EXPECT_FALSE(Root->attr(Plain.interner().intern("EOI")).has_value());
  const NodeTree *A = Root->childNode(Plain.interner().intern("A"));
  ASSERT_NE(A, nullptr);
  EXPECT_FALSE(A->attr(Plain.interner().intern("EOI")).has_value());
  // start/end are present here — A did touch its byte.
  EXPECT_EQ(A->attr(Plain.symStart()).value_or(-1), 0);
  EXPECT_EQ(A->attr(Plain.symEnd()).value_or(-1), 1);
}

//===----------------------------------------------------------------------===//
// Regression: btoi(lo, hi) with extreme in-range operands must fail with
// partiality, not signed overflow, on both sides. The window width used
// to be computed as Hi - Lo before any validation — lo = -(2^62),
// hi = 2^62 (buildable with checked shifts alone) made the subtraction
// itself UB, aborting the ASan+UBSan jobs.
//===----------------------------------------------------------------------===//

namespace {

/// Alternative 1 evaluates the poisoned btoi and must fail cleanly;
/// alternative 2 proves the failure was partiality, not an abort.
const char *BtoiOverflowGrammar = R"(
  S -> "x"[0, 1] {a = 1 << 62} {v = btoi(0 - a, a)}
     / "x"[0, 1] {ok = btoi(0, 1)} ;
)";

} // namespace

TEST(DifferentialTest, BtoiWindowOverflowIsPartialInInterpreter) {
  Grammar G = load(BtoiOverflowGrammar);
  std::vector<uint8_t> In = {'x'};
  auto R = Interp(G).parse(ByteSpan::of(In));
  ASSERT_TRUE(R) << R.message();
  const auto *Root = cast<NodeTree>(R->get());
  EXPECT_FALSE(Root->attr(G.interner().intern("v")).has_value());
  EXPECT_EQ(Root->attr(G.interner().intern("ok")).value_or(-1), 'x');
}

TEST(DifferentialTest, BtoiWindowOverflowIsPartialInGenerated) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  Grammar G = load(BtoiOverflowGrammar);
  auto E = genEngine(G);
  ASSERT_NE(E, nullptr);
  std::string Dump = genDump(*E, {'x'});
  EXPECT_NE(Dump.find("ok=120"), std::string::npos) << Dump;
  EXPECT_EQ(Dump.find("v="), std::string::npos) << Dump;
}

//===----------------------------------------------------------------------===//
// Regression: the recursion-depth limit is a HARD failure on both sides.
// The generated runtime used to soft-fail at the limit and backtrack
// into sibling alternatives, so a fallback alternative could accept an
// input the interpreter rejects with a hard depth error.
//===----------------------------------------------------------------------===//

namespace {

/// T recurses once per leading 'a'; the raw fallback would match ANY
/// input if the depth failure were soft.
const char *DeepGrammar = R"(
  S -> T[0, EOI] / raw[0, EOI] ;
  T -> "a"[0, 1] T[1, EOI] / "a"[0, 1] ;
)";

} // namespace

TEST(DifferentialTest, DepthLimitIsAHardFailureInInterpreter) {
  Grammar G = load(DeepGrammar);
  EngineOptions Opts;
  Opts.MaxDepth = 64; // keep the recursion shallow (ASan-sized stacks)
  auto E = makeEngine(EngineKind::Interp, G, nullptr, Opts);
  ASSERT_TRUE(E) << E.message();
  std::vector<uint8_t> Shallow(10, 'a');
  EXPECT_TRUE((*E)->parse(ByteSpan::of(Shallow)));
  std::vector<uint8_t> Deep(100, 'a');
  EXPECT_FALSE((*E)->parse(ByteSpan::of(Deep)))
      << "the depth limit must abort the parse, not fall back to raw";
}

TEST(DifferentialTest, DepthLimitIsAHardFailureInGenerated) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  Grammar G = load(DeepGrammar);
  EngineOptions Opts;
  Opts.MaxDepth = 64; // the engine applies it to its module instance
  auto E = genEngine(G, Opts);
  ASSERT_NE(E, nullptr);
  std::vector<uint8_t> Shallow(10, 'a');
  EXPECT_TRUE(E->parse(ByteSpan::of(Shallow)));
  // Past MaxDepth the parse must abort hard — no raw fallback.
  std::vector<uint8_t> Deep(100, 'a');
  EXPECT_FALSE(E->parse(ByteSpan::of(Deep)))
      << "the depth limit must abort the parse, not fall back to raw";
}

TEST(DifferentialTest, NodeEnvHasNoEoiEntryInGenerated) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  std::vector<uint8_t> In = {'x'};

  Grammar G = load(ChildEoiGrammar);
  auto E = genEngine(G);
  ASSERT_NE(E, nullptr);
  std::string Collide = genDump(*E, In);
  EXPECT_NE(Collide.find("n=5"), std::string::npos)
      << "A.EOI must read the grammar-defined attribute (5), not the "
         "window size (1):\n"
      << Collide;

  // EOI inside a rule's own expressions still reads the window size.
  Grammar Own = load(R"(
    S -> A[0, 1] {n = EOI} ;
    A -> "x"[0, 1] ;
  )");
  auto OE = genEngine(Own);
  ASSERT_NE(OE, nullptr);
  std::string Dump = genDump(*OE, In);
  EXPECT_NE(Dump.find("n=1"), std::string::npos) << Dump;
  EXPECT_EQ(Dump.find("EOI="), std::string::npos)
      << "no env entry may be named EOI:\n"
      << Dump;
}
