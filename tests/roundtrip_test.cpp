//===- tests/roundtrip_test.cpp - parse∘print = id ------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serializer's property harness: on every format corpus, at scales 1
/// and 2, for the interpreter's AND the generated engine's trees,
///
///   print(parse(x)) == x                 (byte-exact reconstruction)
///   parse(print(parse(x))) == parse(x)   (the tree survives a round trip)
///
/// Every tree prints through serialize/Printer.cpp: a generated parser
/// runs in-process as a GenEngine and hands back a host ParseTree, so
/// one printer serves both engines. Blackbox formats re-encode through
/// the registry's inverse — the deflated-zip corpus proves decoded entry
/// data recompresses onto the original stream byte-for-byte.
///
/// Print-exactness is a per-format fact this suite pins down: formats
/// whose grammars leaf-cover their whole input must print strictly (zero
/// gaps); the two that do not (pe pads between headers, pdf has
/// whitespace no term touches) must fail Strict and reconstruct exactly
/// under FillFromBackground with a small, stable gap count. See
/// docs/grammar-syntax.md ("Print-exact constructs").
///
//===----------------------------------------------------------------------===//

#include "codegen/GenEngine.h"

#include "GenModuleCache.h"
#include "formats/FormatRegistry.h"
#include "formats/MiniZlib.h"
#include "formats/Zip.h"
#include "runtime/Env.h"
#include "runtime/Interp.h"
#include "serialize/Printer.h"
#include "support/Casting.h"

#include <cstdint>
#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace ipg;

namespace {

/// Formats whose parse trees leaf-cover every input byte (strict print
/// succeeds with zero gaps). The complement — pe, pdf — is asserted to
/// FAIL strict printing, so a grammar change that shifts a format across
/// this line is caught either way.
bool strictPrintExact(const std::string &Name) {
  return Name != "pe" && Name != "pdf";
}

std::string render(const TreePtr &T, const Grammar &G) {
  return T ? treeToString(*T, G.interner()) : std::string();
}

/// One round trip: parse, print (strict or background-fill), compare
/// bytes, re-parse, compare trees. Returns the print result for further
/// inspection. Takes any Engine — the printer is engine-independent.
serialize::PrintResult roundtrip(Engine &I, const Grammar &G,
                                 const BlackboxRegistry &BB,
                                 const std::vector<uint8_t> &Bytes,
                                 bool Strict) {
  auto R = I.parse(ByteSpan::of(Bytes));
  EXPECT_TRUE(R) << R.message();
  if (!R)
    return serialize::PrintResult();
  std::string Before = render(*R, G);

  serialize::PrintOptions Opts;
  if (!Strict) {
    Opts.Gaps = serialize::GapPolicy::FillFromBackground;
    Opts.Background = ByteSpan::of(Bytes);
  }
  auto P = serialize::printTree(**R, G, &BB, Opts);
  EXPECT_TRUE(P) << P.message();
  if (!P)
    return serialize::PrintResult();
  EXPECT_EQ(P->Bytes, Bytes) << "print(parse(x)) != x";

  auto R2 = I.parse(ByteSpan::of(P->Bytes));
  EXPECT_TRUE(R2) << "printed bytes rejected: " << R2.message();
  if (R2) {
    EXPECT_EQ(render(*R2, G), Before)
        << "parse(print(parse(x))) != parse(x)";
  }
  return std::move(*P);
}

} // namespace

//===----------------------------------------------------------------------===//
// Interpreter engine: every format, scales 1 and 2.
//===----------------------------------------------------------------------===//

TEST(RoundtripTest, InterpreterPrintsEveryFormatCorpusByteExact) {
  size_t Roundtripped = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto FE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    ASSERT_TRUE(FE) << FE.message();
    BlackboxRegistry BB = formats::standardBlackboxes(); // for the printer
    for (unsigned Scale : {1u, 2u}) {
      SCOPED_TRACE("scale: " + std::to_string(Scale));
      std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, Scale);
      ASSERT_FALSE(Bytes.empty());
      serialize::PrintResult P = roundtrip(
          **FE, FE->Load->G, BB, Bytes, strictPrintExact(FI.Name));
      if (strictPrintExact(FI.Name)) {
        EXPECT_EQ(P.GapBytes, 0u);
      }
      ++Roundtripped;
    }
  }
  EXPECT_EQ(Roundtripped, 2 * formats::allFormats().size());
}

TEST(RoundtripTest, StrictModeFailsExactlyForNonLeafCoveringFormats) {
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto FE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    ASSERT_TRUE(FE) << FE.message();
    BlackboxRegistry BB = formats::standardBlackboxes();
    std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, 1);
    auto R = (*FE)->parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(R) << R.message();
    auto P = serialize::printTree(**R, FE->Load->G, &BB);
    EXPECT_EQ(static_cast<bool>(P), strictPrintExact(FI.Name))
        << FI.Name << " moved across the print-exact line; update "
        << "strictPrintExact AND docs/grammar-syntax.md";
  }
}

//===----------------------------------------------------------------------===//
// Megabyte-class corpus: the printer (and the engines feeding it) must
// survive trees whose depth tracks file size. PDF at scale 64 parses
// through over a million virtual recursion levels; ELF is a megabyte
// image. The roundtripInterp helper is unusable here — it diffs
// treeToString renders, whose two-spaces-per-level indentation makes a
// megabyte-deep dump O(depth^2) bytes — so this test compares the
// re-parse by node count instead.
//===----------------------------------------------------------------------===//

TEST(RoundtripTest, MegabyteCorpusPrintsByteExact) {
  for (const char *Name : {"pdf", "elf"}) {
    SCOPED_TRACE(Name);
    EngineOptions Opts;
    Opts.MaxDepth = size_t{1} << 21;
    auto FE = formats::makeFormatEngine(Name, EngineKind::Interp, Opts);
    ASSERT_TRUE(FE) << FE.message();
    BlackboxRegistry BB = formats::standardBlackboxes();

    std::vector<uint8_t> Bytes = formats::sampleInput(Name, 64);
    ASSERT_GE(Bytes.size(), size_t{1} << 20)
        << Name << ": scale-64 corpus is not megabyte-class";

    auto R = (*FE)->parse(ByteSpan::of(Bytes));
    ASSERT_TRUE(R) << R.message();
    size_t Nodes = treeSize(**R);
    ASSERT_GT(Nodes, 0u);

    serialize::PrintOptions POpts;
    if (!strictPrintExact(Name)) {
      POpts.Gaps = serialize::GapPolicy::FillFromBackground;
      POpts.Background = ByteSpan::of(Bytes);
    }
    auto P = serialize::printTree(**R, FE->Load->G, &BB, POpts);
    ASSERT_TRUE(P) << P.message();
    EXPECT_TRUE(P->Bytes == Bytes)
        << Name << ": print(parse(x)) != x on the megabyte corpus";

    auto R2 = (*FE)->parse(ByteSpan::of(P->Bytes));
    ASSERT_TRUE(R2) << R2.message();
    EXPECT_EQ(treeSize(**R2), Nodes)
        << Name << ": re-parse of the printed image changed shape";
  }
}

//===----------------------------------------------------------------------===//
// The blackbox inverse under load: DEFLATED zip entries force the printer
// through miniZlibBlackboxInverse — decoded output leaves are re-encoded
// and must land byte-exactly on the original compressed streams.
//===----------------------------------------------------------------------===//

TEST(RoundtripTest, DeflatedZipRoundTripsThroughBlackboxInverse) {
  auto FE = formats::makeFormatEngine("zip", EngineKind::Interp);
  ASSERT_TRUE(FE) << FE.message();
  BlackboxRegistry BB = formats::standardBlackboxes();
  std::vector<uint8_t> Bytes = formats::synthesizeZip(
      formats::zipArchiveOfCopies(4, 2048, /*Compress=*/true));
  serialize::PrintResult P =
      roundtrip(**FE, FE->Load->G, BB, Bytes, /*Strict=*/true);
  EXPECT_GT(P.BlackboxBytes, 0u)
      << "the corpus never exercised the inverse";
}

TEST(RoundtripTest, MissingInverseIsAPrintErrorNotACrash) {
  auto FE = formats::makeFormatEngine("zip", EngineKind::Interp);
  ASSERT_TRUE(FE) << FE.message();
  std::vector<uint8_t> Bytes = formats::synthesizeZip(
      formats::zipArchiveOfCopies(1, 512, /*Compress=*/true));
  auto R = (*FE)->parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(R) << R.message();

  BlackboxRegistry Forward; // forward-only: no inverse registered
  Forward.add("inflate", formats::miniZlibBlackbox);
  auto P = serialize::printTree(**R, FE->Load->G, &Forward);
  ASSERT_FALSE(P);
  EXPECT_NE(P.message().find("inverse"), std::string::npos) << P.message();
}

//===----------------------------------------------------------------------===//
// Span collection: the structure-aware fuzzer's substrate. Spans must be
// well-formed (within the output, lo < hi) and cover the root.
//===----------------------------------------------------------------------===//

TEST(RoundtripTest, CollectedSpansAreWellFormed) {
  auto FE = formats::makeFormatEngine("gif", EngineKind::Interp);
  ASSERT_TRUE(FE) << FE.message();
  std::vector<uint8_t> Bytes = formats::sampleInput("gif", 1);
  auto R = (*FE)->parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(R) << R.message();
  serialize::PrintOptions Opts;
  Opts.CollectSpans = true;
  auto P = serialize::printTree(**R, FE->Load->G, nullptr, Opts);
  ASSERT_TRUE(P) << P.message();
  ASSERT_FALSE(P->Spans.empty());
  const auto &Root = P->Spans.front();
  EXPECT_EQ(Root.Depth, 0u);
  EXPECT_EQ(Root.Lo, 0);
  EXPECT_EQ(Root.Hi, static_cast<int64_t>(Bytes.size()));
  for (const serialize::PrintSpan &S : P->Spans) {
    EXPECT_LT(S.Lo, S.Hi);
    EXPECT_GE(S.Lo, 0);
    EXPECT_LE(S.Hi, static_cast<int64_t>(Bytes.size()));
  }
}

//===----------------------------------------------------------------------===//
// The printer's origin walk, on a hand-built tree: every stored leaf
// offset is 0, so only the views' shift deltas can place the bytes, and
// they must compose across three node levels.
//===----------------------------------------------------------------------===//

TEST(RoundtripTest, PrinterComposesShiftDeltasAcrossThreeLevels) {
  auto Load = loadGrammar(R"(S -> "ab"[0, 2] ;)");
  ASSERT_TRUE(Load) << Load.message();
  const Grammar &G = Load->G;
  const Symbol S = G.startSymbol(), Start = G.symStart(), End = G.symEnd();
  static const uint8_t Ab[] = {'a', 'b'}, Cd[] = {'c', 'd'},
                       Ef[] = {'e', 'f'};
  auto span = [&](int64_t Lo, int64_t Hi) {
    Env E;
    E.set(Start, Lo);
    E.set(End, Hi);
    return E;
  };

  TreeStore Store;
  // Innermost node: one leaf at local offset 0.
  uint32_t GcLeaf = Store.makeLeaf(Ef, 2, 0, false);
  uint32_t GcBase = Store.makeNode(S, 0, span(0, 2), &GcLeaf, 1);
  // Middle node: its own leaf, plus the innermost subtree re-anchored
  // two bytes in (the T-NTSucc shape).
  uint32_t MidKids[2] = {Store.makeLeaf(Cd, 2, 0, false),
                         Store.makeShifted(GcBase, 2, Start, End)};
  uint32_t MidBase = Store.makeNode(S, 0, span(0, 4), MidKids, 2);
  // Root: a leaf plus the middle subtree, itself re-anchored.
  uint32_t RootKids[2] = {Store.makeLeaf(Ab, 2, 0, false),
                          Store.makeShifted(MidBase, 2, Start, End)};
  uint32_t Root = Store.makeNode(S, 0, span(0, 6), RootKids, 2);

  // Innermost leaf at 0 (root) + 2 (mid) + 2 (gc).
  auto P = serialize::printTree(*Store.node(Root), G);
  ASSERT_TRUE(P) << P.message();
  EXPECT_EQ(std::string(P->Bytes.begin(), P->Bytes.end()), "abcdef");
  EXPECT_EQ(P->CoveredBytes, 6u);
  EXPECT_EQ(P->GapBytes, 0u);
  EXPECT_EQ(P->OverlapBytes, 0u);

  // The middle subtree through a view-of-a-view root (chained deltas
  // 1 + 2): it shifts as one rigid unit to origin 3. Strict printing
  // must then REFUSE — absolute bytes [0,3) are covered by no leaf —
  // while background fill reconstructs around it.
  uint32_t MidTwice = Store.makeShifted(
      Store.makeShifted(MidBase, 1, Start, End), 2, Start, End);
  auto Strict = serialize::printTree(*Store.node(MidTwice), G);
  ASSERT_FALSE(Strict);
  EXPECT_NE(Strict.message().find("no leaf covers"), std::string::npos)
      << Strict.message();
  static const uint8_t Bg[] = {'_', '_', '_', 'x', 'x', 'x', 'x'};
  serialize::PrintOptions Fill;
  Fill.Gaps = serialize::GapPolicy::FillFromBackground;
  Fill.Background = ByteSpan(Bg, sizeof(Bg));
  auto Filled = serialize::printTree(*Store.node(MidTwice), G, nullptr, Fill);
  ASSERT_TRUE(Filled) << Filled.message();
  EXPECT_EQ(std::string(Filled->Bytes.begin(), Filled->Bytes.end()),
            "___cdef");
  EXPECT_EQ(Filled->GapBytes, 3u);
}

//===----------------------------------------------------------------------===//
// Generated engine: the same properties on its trees, through the same
// printer. Gap counts must equal the interpreter's — the two engines
// build the same tree, so they leave the same bytes uncovered.
//===----------------------------------------------------------------------===//

TEST(RoundtripTest, GeneratedParsersPrintEveryFormatCorpusByteExact) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  BlackboxRegistry BB = formats::standardBlackboxes();
  size_t Roundtripped = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto FG = testutil::generatedEngine(FI.Name);
    ASSERT_TRUE(FG) << FG.message();
    auto FE = formats::makeFormatEngine(FI.Name, EngineKind::Interp);
    ASSERT_TRUE(FE) << FE.message();
    bool Strict = strictPrintExact(FI.Name);
    for (unsigned Scale : {1u, 2u}) {
      SCOPED_TRACE("scale: " + std::to_string(Scale));
      std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, Scale);
      serialize::PrintResult Gen =
          roundtrip(**FG, FG->Load->G, BB, Bytes, Strict);
      serialize::PrintResult Int =
          roundtrip(**FE, FE->Load->G, BB, Bytes, Strict);
      EXPECT_EQ(Gen.GapBytes, Int.GapBytes);
      EXPECT_EQ(Gen.CoveredBytes, Int.CoveredBytes);
      if (!Strict) {
        // The generated tree is no more print-exact than the
        // interpreter's: Strict must refuse it too.
        auto R = (*FG)->parse(ByteSpan::of(Bytes));
        ASSERT_TRUE(R) << R.message();
        EXPECT_FALSE(serialize::printTree(**R, FG->Load->G, &BB));
      }
      ++Roundtripped;
    }
  }
  EXPECT_EQ(Roundtripped, 2 * formats::allFormats().size());
}

TEST(RoundtripTest, GeneratedDeflatedZipRoundTripsThroughBlackboxInverse) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  auto FG = testutil::generatedEngine("zip");
  ASSERT_TRUE(FG) << FG.message();
  BlackboxRegistry BB = formats::standardBlackboxes();
  std::vector<uint8_t> Bytes = formats::synthesizeZip(
      formats::zipArchiveOfCopies(4, 2048, /*Compress=*/true));
  serialize::PrintResult P =
      roundtrip(**FG, FG->Load->G, BB, Bytes, /*Strict=*/true);
  EXPECT_GT(P.BlackboxBytes, 0u)
      << "the corpus never exercised the inverse";
}
