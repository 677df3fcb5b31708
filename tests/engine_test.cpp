//===- tests/engine_test.cpp - Engine interface & factory tests -----------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified-Engine surface: makeEngine/makeFormatEngine build both the
/// interpreter and the in-process generated engine (GenModule + GenEngine,
/// dlopen'd — not the out-of-process child harness differential_test
/// drives), the two must produce byte-identical canonical trees, honor
/// the SAME EngineOptions (depth limit, memoization), and both must obey
/// the stats contract: stats() describes the most recent parse() call,
/// even one that failed before reaching the grammar.
///
//===----------------------------------------------------------------------===//

#include "analysis/AttributeCheck.h"
#include "codegen/GenEngine.h"
#include "formats/FormatRegistry.h"
#include "formats/Pdf.h"
#include "formats/Zip.h"
#include "runtime/Engine.h"
#include "runtime/Interp.h"

#include "TreeCanonical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <unistd.h>

using namespace ipg;
using testutil::renderCanonical;

namespace {

Grammar load(const std::string &Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return std::move(R->G);
}

bool haveGen() { return GenModule::hostCompilerAvailable(); }

/// Every distinct tree object reachable from \p Root, each visited once
/// (a shared subtree is one object however many parents it has).
std::vector<const ParseTree *> distinctObjects(const ParseTree *Root) {
  std::unordered_set<const ParseTree *> Seen{Root};
  std::vector<const ParseTree *> Out, Work{Root};
  while (!Work.empty()) {
    const ParseTree *T = Work.back();
    Work.pop_back();
    Out.push_back(T);
    auto Push = [&](const ParseTree *K) {
      if (Seen.insert(K).second)
        Work.push_back(K);
    };
    if (const auto *N = dyn_cast<NodeTree>(T))
      for (TreeRef K : N->children())
        Push(K.get());
    else if (const auto *A = dyn_cast<ArrayTree>(T))
      for (TreeRef K : A->elements())
        Push(K.get());
  }
  return Out;
}

size_t countNodeTrees(const ParseTree *Root) {
  size_t N = 0;
  for (const ParseTree *T : distinctObjects(Root))
    N += isa<NodeTree>(T);
  return N;
}

std::vector<std::string> leafBytes(const ParseTree *Root) {
  std::vector<std::string> Out;
  for (const ParseTree *T : distinctObjects(Root))
    if (const auto *L = dyn_cast<LeafTree>(T))
      Out.emplace_back(L->bytes());
  return Out;
}

} // namespace

TEST(EngineFactory, KindNamesAreStable) {
  EXPECT_STREQ(engineKindName(EngineKind::Interp), "interp");
  EXPECT_STREQ(engineKindName(EngineKind::Generated), "generated");
}

TEST(EngineFactory, BuildsAnInterpreterOverACustomGrammar) {
  Grammar G = load(R"(S -> "ab"[0, 2] {v = 7} ;)");
  auto E = makeEngine(EngineKind::Interp, G);
  ASSERT_TRUE(E) << E.message();
  EXPECT_EQ((*E)->kind(), EngineKind::Interp);
  EXPECT_EQ(&(*E)->grammar(), &G);
  std::vector<uint8_t> In = {'a', 'b'};
  auto T = (*E)->parse(ByteSpan::of(In));
  ASSERT_TRUE(T) << T.message();
  EXPECT_NE(renderCanonical(*T, G).find("v=7"), std::string::npos);
}

// The heart of the api_redesign: one factory, two engines, identical
// trees — including zip, whose generated module compiles the MiniZlib
// bridge in and registers it through the epilogue hook.
TEST(EngineFactory, InterpAndGeneratedProduceIdenticalTreesInProcess) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  for (const char *Name : {"gif", "dns", "zip"}) {
    SCOPED_TRACE(Name);
    auto IE = formats::makeFormatEngine(Name, EngineKind::Interp);
    ASSERT_TRUE(IE) << IE.message();
    auto GE = formats::makeFormatEngine(Name, EngineKind::Generated);
    ASSERT_TRUE(GE) << GE.message();
    EXPECT_EQ((*GE)->kind(), EngineKind::Generated);

    for (unsigned Scale : {1u, 3u}) {
      SCOPED_TRACE(Scale);
      std::vector<uint8_t> In = formats::sampleInput(Name, Scale);
      ASSERT_FALSE(In.empty());
      auto TI = (*IE)->parse(ByteSpan::of(In));
      ASSERT_TRUE(TI) << TI.message();
      auto TG = (*GE)->parse(ByteSpan::of(In));
      ASSERT_TRUE(TG) << TG.message();
      EXPECT_EQ(renderCanonical(*TI, IE->Load->G),
                renderCanonical(*TG, GE->Load->G));
      // The engines expose the shared counters with the same meaning.
      EXPECT_EQ((*IE)->stats().NodesCreated, (*GE)->stats().NodesCreated);
      EXPECT_EQ((*IE)->stats().MemoMisses, (*GE)->stats().MemoMisses);
    }
  }
}

TEST(EngineFactory, GeneratedEngineReportsAUsefulErrorOnRejection) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  auto GE = formats::makeFormatEngine("gif", EngineKind::Generated);
  ASSERT_TRUE(GE) << GE.message();
  std::vector<uint8_t> Junk = {'n', 'o', 't', 'a', 'g', 'i', 'f'};
  auto T = (*GE)->parse(ByteSpan::of(Junk));
  ASSERT_FALSE(T);
  EXPECT_NE(T.message().find("rejected"), std::string::npos);
}

// The PR's satellite bugfix: Interp::parse used to return early on an
// unknown start nonterminal BEFORE resetting Stats, leaving the previous
// parse's numbers visible through stats(). Both failure shapes must
// describe the failing call.
TEST(EngineStatsContract, EarlyFailureResetsTheInterpreterStats) {
  Grammar G = load(R"(S -> "ab"[0, 2] {v = 7} ;)");
  Interp I(G);
  std::vector<uint8_t> In = {'a', 'b'};
  ASSERT_TRUE(I.parse(ByteSpan::of(In)));
  ASSERT_GT(I.stats().NodesCreated, 0u);
  ASSERT_GT(I.stats().TermsExecuted, 0u);

  Symbol Bogus = G.interner().intern("no_such_rule");
  ASSERT_FALSE(I.parse(ByteSpan::of(In), Bogus));
  EXPECT_EQ(I.stats().NodesCreated, 0u)
      << "stats() must describe the failed call, not the previous parse";
  EXPECT_EQ(I.stats().TermsExecuted, 0u);
  EXPECT_EQ(I.stats().MemoMisses, 0u);
  EXPECT_EQ(I.stats().PeakDepth, 0u);
}

TEST(EngineStatsContract, RejectedInputsLeaveThatParsesStats) {
  for (EngineKind Kind : {EngineKind::Interp, EngineKind::Generated}) {
    if (Kind == EngineKind::Generated && !haveGen())
      continue;
    SCOPED_TRACE(engineKindName(Kind));
    auto FE = formats::makeFormatEngine("gif", Kind);
    ASSERT_TRUE(FE) << FE.message();
    std::vector<uint8_t> Good = formats::sampleInput("gif", 3);
    ASSERT_TRUE((*FE)->parse(ByteSpan::of(Good)));
    size_t GoodNodes = (*FE)->stats().NodesCreated;
    ASSERT_GT(GoodNodes, 0u);

    // Truncate to a handful of header bytes: the parse fails early and
    // its stats must be (much) smaller than the successful run's.
    std::vector<uint8_t> Bad(Good.begin(), Good.begin() + 4);
    ASSERT_FALSE((*FE)->parse(ByteSpan::of(Bad)));
    EXPECT_LT((*FE)->stats().NodesCreated, GoodNodes);
  }
}

namespace {
/// T recurses once per leading 'a'; the raw fallback would accept ANY
/// input if the depth failure were soft (same shape differential_test
/// uses for the child-process harness).
const char *DeepGrammar = R"(
  S -> T[0, EOI] / raw[0, EOI] ;
  T -> "a"[0, 1] T[1, EOI] / "a"[0, 1] ;
)";
} // namespace

// Satellite regression: the consolidated EngineOptions::MaxDepth must
// mean the same thing to both engines — one value, one behavior.
TEST(EngineOptionsParity, BothEnginesHonorTheSameDepthLimit) {
  Grammar G = load(DeepGrammar);
  EngineOptions Opts;
  Opts.MaxDepth = 64;
  std::vector<uint8_t> Shallow(10, 'a');
  std::vector<uint8_t> Deep(100, 'a');

  for (EngineKind Kind : {EngineKind::Interp, EngineKind::Generated}) {
    if (Kind == EngineKind::Generated && !haveGen())
      continue;
    SCOPED_TRACE(engineKindName(Kind));
    auto E = makeEngine(Kind, G, nullptr, Opts);
    ASSERT_TRUE(E) << E.message();
    EXPECT_TRUE((*E)->parse(ByteSpan::of(Shallow)));
    EXPECT_FALSE((*E)->parse(ByteSpan::of(Deep)))
        << "the depth limit must abort the parse, not fall back to raw";
  }
}

// MaxDepth is a per-engine runtime knob, not a property of the compiled
// module: two generated engines over ONE module, one at MaxDepth 64 and
// one at the default, each reach the interpreter's verdict at that limit.
TEST(EngineOptionsParity, EnginesSharingOneModuleApplyTheirOwnDepthLimit) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  Grammar G = load(DeepGrammar);
  auto M = GenModule::compile(G);
  ASSERT_TRUE(M) << M.message();
  EngineOptions Tight;
  Tight.MaxDepth = 64;
  const EngineOptions Default;
  GenEngine GenTight(*M, G, Tight);
  GenEngine GenDefault(*M, G, Default);
  std::vector<uint8_t> Deep(100, 'a');

  auto InterpTight = makeEngine(EngineKind::Interp, G, nullptr, Tight);
  auto InterpDefault = makeEngine(EngineKind::Interp, G, nullptr, Default);
  ASSERT_TRUE(InterpTight && InterpDefault);
  EXPECT_FALSE((*InterpTight)->parse(ByteSpan::of(Deep)));
  EXPECT_TRUE((*InterpDefault)->parse(ByteSpan::of(Deep)));

  // Interleaved, so neither instance can inherit the other's limit.
  EXPECT_FALSE(GenTight.parse(ByteSpan::of(Deep)));
  EXPECT_TRUE(GenDefault.parse(ByteSpan::of(Deep)));
  EXPECT_FALSE(GenTight.parse(ByteSpan::of(Deep)));
  EXPECT_EQ(GenTight.stats().ParseVerdict,
            (*InterpTight)->stats().ParseVerdict);
  EXPECT_EQ(GenTight.stats().FailRule, (*InterpTight)->stats().FailRule);
  EXPECT_EQ(GenDefault.stats().ParseVerdict,
            (*InterpDefault)->stats().ParseVerdict);
}

TEST(EngineOptionsParity, UseMemoOffPreservesTreesOnBothEngines) {
  EngineOptions On;
  EngineOptions Off;
  Off.UseMemo = false;
  std::vector<uint8_t> In = formats::sampleInput("dns", 2);
  ASSERT_FALSE(In.empty());

  for (EngineKind Kind : {EngineKind::Interp, EngineKind::Generated}) {
    if (Kind == EngineKind::Generated && !haveGen())
      continue;
    SCOPED_TRACE(engineKindName(Kind));
    auto EOn = formats::makeFormatEngine("dns", Kind, On);
    auto EOff = formats::makeFormatEngine("dns", Kind, Off);
    ASSERT_TRUE(EOn) << EOn.message();
    ASSERT_TRUE(EOff) << EOff.message();
    auto TOn = (*EOn)->parse(ByteSpan::of(In));
    auto TOff = (*EOff)->parse(ByteSpan::of(In));
    ASSERT_TRUE(TOn) << TOn.message();
    ASSERT_TRUE(TOff) << TOff.message();
    EXPECT_EQ(renderCanonical(*TOn, EOn->Load->G),
              renderCanonical(*TOff, EOff->Load->G));
    EXPECT_EQ((*EOff)->stats().MemoMisses, 0u)
        << "UseMemo=false must really disable the table";
  }
}

// The generated engine rebuilds the module's tree object for object: a
// memoized subtree re-anchored by several parents (here: the objects
// every duplicate xref row re-parses) stays ONE host subtree, exactly
// as the VM shares it.
TEST(GeneratedTreeExport, KeepsTheModulesSharingOnABacktrackingPdf) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  auto VE = formats::makeFormatEngine("pdf", EngineKind::Vm);
  ASSERT_TRUE(VE) << VE.message();
  auto GE = formats::makeFormatEngine("pdf", EngineKind::Generated);
  ASSERT_TRUE(GE) << GE.message();
  formats::PdfSynthSpec Spec;
  Spec.XrefRefsPerObject = 4;
  std::vector<uint8_t> In = formats::synthesizePdf(Spec);

  auto TV = (*VE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(TV) << TV.message();
  auto TG = (*GE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(TG) << TG.message();
  EXPECT_EQ(renderCanonical(*TV, VE->Load->G),
            renderCanonical(*TG, GE->Load->G));
  EXPECT_GT((*GE)->stats().MemoHits, 0u) << "the input must share subtrees";
  EXPECT_EQ(countNodeTrees(TV->get()), countNodeTrees(TG->get()));
}

// Decoded blackbox output lives in the module's arena, which the next
// parse reuses: the host tree must own a copy.
TEST(GeneratedTreeExport, DecodedBlackboxLeavesOutliveTheNextParse) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  auto GE = formats::makeFormatEngine("zip", EngineKind::Generated);
  ASSERT_TRUE(GE) << GE.message();
  formats::ZipSynthSpec First = formats::zipArchiveOfCopies(2, 300, true, 1);
  formats::ZipSynthSpec Second = formats::zipArchiveOfCopies(2, 300, true, 2);
  ASSERT_NE(First.Entries[0].Data, Second.Entries[0].Data);
  std::vector<uint8_t> In1 = formats::synthesizeZip(First);
  std::vector<uint8_t> In2 = formats::synthesizeZip(Second);

  auto T1 = (*GE)->parse(ByteSpan::of(In1));
  ASSERT_TRUE(T1) << T1.message();
  std::vector<std::string> Before = leafBytes(T1->get());
  const std::vector<uint8_t> &Plain = First.Entries[0].Data;
  std::string Decoded(Plain.begin(), Plain.end());
  ASSERT_NE(std::find(Before.begin(), Before.end(), Decoded), Before.end())
      << "the first tree must hold the decoded payload as a leaf";

  auto T2 = (*GE)->parse(ByteSpan::of(In2)); // T1 is still alive
  ASSERT_TRUE(T2) << T2.message();
  EXPECT_EQ(leafBytes(T1->get()), Before);
}

// A TMPDIR with a space in it: the module must compile there, and its
// teardown must remove exactly its own work dir — not a sibling whose
// name is the path's prefix up to the space.
TEST(GeneratedTreeExport, WorkDirUnderATmpdirWithASpace) {
  if (!haveGen())
    GTEST_SKIP() << "no host C++ compiler";
  namespace fs = std::filesystem;
  fs::path Root = fs::path(::testing::TempDir()) /
                  ("ipg_engine_tmpdir_" + std::to_string(::getpid()));
  fs::path Spaced = Root / "tdir x";
  fs::path Canary = Root / "tdir";
  fs::create_directories(Spaced);
  fs::create_directories(Canary);
  std::ofstream(Canary / "keep") << "canary";

  const char *Old = std::getenv("TMPDIR");
  std::string Saved = Old ? Old : "";
  ::setenv("TMPDIR", Spaced.c_str(), 1);
  Grammar G = load(R"(S -> "ab"[0, 2] {v = 7} ;)");
  fs::path WorkDir;
  {
    auto M = GenModule::compile(G);
    if (Old)
      ::setenv("TMPDIR", Saved.c_str(), 1);
    else
      ::unsetenv("TMPDIR");
    ASSERT_TRUE(M) << M.message();
    WorkDir = fs::path((*M)->path()).parent_path();
    EXPECT_EQ(WorkDir.parent_path(), Spaced);
    EXPECT_TRUE(fs::is_directory(WorkDir));
    GenEngine E(*M, G, EngineOptions());
    std::vector<uint8_t> In = {'a', 'b'};
    auto T = E.parse(ByteSpan::of(In));
    ASSERT_TRUE(T) << T.message();
    EXPECT_NE(renderCanonical(*T, G).find("v=7"), std::string::npos);
  } // tree, engine, then module die: the work dir goes with the module
  EXPECT_FALSE(fs::exists(WorkDir));
  EXPECT_TRUE(fs::exists(Canary / "keep"));
  EXPECT_TRUE(fs::is_directory(Spaced));
  fs::remove_all(Root);
}
