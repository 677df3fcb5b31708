//===- tests/codegen_test.cpp - C++ parser generator tests ----------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 7 parser generator: emitted code is checked structurally
/// (one function per nonterminal, no library dependencies) and — where a
/// host compiler is available — compiled into an in-process GenModule
/// and run against the same inputs the interpreter accepts/rejects.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"
#include "codegen/GenEngine.h"

#include "TreeCanonical.h"
#include "analysis/AttributeCheck.h"
#include "formats/Elf.h"
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
using testutil::renderCanonical;

namespace {

Grammar load(const char *Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return std::move(R->G);
}

/// \p G compiled into an in-process generated engine (\p Config adds a
/// blackbox bridge), or null after a test failure.
std::unique_ptr<Engine> compileEngine(const Grammar &G,
                                      const GenModuleConfig &Config = {}) {
  auto M = GenModule::compile(G, EngineOptions(), Config);
  EXPECT_TRUE(M) << M.message();
  if (!M)
    return nullptr;
  return std::make_unique<GenEngine>(std::move(*M), G, EngineOptions());
}

std::vector<uint8_t> bytesOf(const std::string &S) {
  return std::vector<uint8_t>(S.begin(), S.end());
}

} // namespace

TEST(CodegenTest, EmitsOneFunctionPerRule) {
  Grammar G = load(R"(
    S -> A[0, 2] B[EOI - 2, EOI] ;
    A -> "aa"[0, 2] ;
    B -> "bb"[0, 2] ;
  )");
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  EXPECT_NE(Code->find("parseRule_0"), std::string::npos);
  EXPECT_NE(Code->find("parseRule_1"), std::string::npos);
  EXPECT_NE(Code->find("parseRule_2"), std::string::npos);
  EXPECT_NE(Code->find("namespace gen"), std::string::npos);
  EXPECT_NE(Code->find("bool parse(const uint8_t *Data"), std::string::npos);
  // Standalone: no includes of this library.
  EXPECT_EQ(Code->find("ipg/"), std::string::npos);
  EXPECT_EQ(Code->find("runtime/Interp.h"), std::string::npos);
}

TEST(CodegenTest, EmitsMemoizationForGlobalRulesOnly) {
  Grammar G = load(R"(
    S -> A[0, EOI] ;
    A -> L[0, EOI] where { L -> raw ; } ;
  )");
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  // Global rules memoize; the local (where-clause) rule must not — its
  // meaning depends on the enclosing frame, as in the interpreter.
  EXPECT_NE(Code->find("C.memoFind("), std::string::npos);
  RuleId Local = InvalidRuleId;
  for (size_t I = 0; I < G.numRules(); ++I)
    if (G.rule(static_cast<RuleId>(I)).IsLocal)
      Local = static_cast<RuleId>(I);
  ASSERT_NE(Local, InvalidRuleId);
  EXPECT_EQ(Code->find("C.memoFind(" + std::to_string(Local) + "u"),
            std::string::npos);

  CppEmitterOptions Off;
  Off.Engine.UseMemo = false;
  auto Plain = emitCppParser(G, "gen", Off);
  ASSERT_TRUE(Plain) << Plain.message();
  EXPECT_EQ(Plain->find("C.memoFind("), std::string::npos);
}

TEST(CodegenTest, BlackboxGrammarsCompileAndUseTheRegistrationHook) {
  // Blackbox terms now emit calls into the ipg_rt hook instead of being
  // rejected; without a host compiler only the structure is checked.
  Grammar G = load(R"(
    blackbox bb ;
    S -> bb[0, EOI] {v = bb.val} ;
  )");
  auto Code = emitCppParser(G, "gen");
  ASSERT_TRUE(Code) << Code.message();
  EXPECT_NE(Code->find("callBlackbox"), std::string::npos);
  EXPECT_NE(Code->find("registerBlackbox"), std::string::npos);

  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";

  // A bridge-registered blackbox resolves: it consumes 2 bytes, reports
  // value 7, and decodes output bytes that become a leaf child. The
  // attribute plumbing (v = bb.val) must see the reported value. The
  // registration function also proves registerBlackbox rejects every
  // name the grammar does not declare as a blackbox (an unknown name,
  // the rule name, an attribute): if any of them binds, it leaves `bb`
  // unbound and the parse below fails.
  GenModuleConfig Config;
  Config.BridgeSource =
      "static bool testBb(void *, const unsigned char *, size_t Len,\n"
      "                   ipg_rt::BlackboxOut &Out) {\n"
      "  static const unsigned char Decoded[3] = {9, 9, 9};\n"
      "  if (Len < 2) return false;\n"
      "  Out.Value = 7; Out.End = 2;\n"
      "  Out.Output = Decoded; Out.OutputLen = 3;\n"
      "  return true;\n"
      "}\n"
      "template <class ParserT> void ipgRegisterBlackboxes(ParserT &P) {\n"
      "  if (P.registerBlackbox(\"no_such_blackbox\", testBb) ||\n"
      "      P.registerBlackbox(\"S\", testBb) ||\n"
      "      P.registerBlackbox(\"v\", testBb))\n"
      "    return;\n"
      "  P.registerBlackbox(\"bb\", testBb);\n"
      "}\n";
  auto E = compileEngine(G, Config);
  ASSERT_NE(E, nullptr);
  std::vector<uint8_t> In = {1, 2, 3, 4};
  auto R = E->parse(ByteSpan::of(In));
  ASSERT_TRUE(R) << R.message();
  const auto *Root = cast<NodeTree>(R->get());
  EXPECT_EQ(Root->attr(G.interner().lookup("v")).value_or(-1), 7);
  std::string D = renderCanonical(*R, G);
  EXPECT_NE(D.find("Node bb"), std::string::npos) << D;
  EXPECT_NE(D.find("Leaf off=0 len=3"), std::string::npos) << D;

  // Unregistered: the same grammar without the bridge hard-fails the
  // parse at run time.
  auto NoBridge = compileEngine(G);
  ASSERT_NE(NoBridge, nullptr);
  EXPECT_FALSE(NoBridge->parse(ByteSpan::of(In)));
}

TEST(CodegenTest, CompiledParserAgreesOnToyGrammar) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  Grammar G = load(R"(
    S -> check(EOI % 3 = 0) {n = EOI / 3} A[0, n] B[n, 2 * n] C[2 * n, 3 * n] ;
    A -> "a"[0, 1] A[1, EOI] / "a"[0, 1] ;
    B -> "b"[0, 1] B[1, EOI] / "b"[0, 1] ;
    C -> "c"[0, 1] C[1, EOI] / "c"[0, 1] ;
  )");
  auto E = compileEngine(G);
  ASSERT_NE(E, nullptr);
  EXPECT_TRUE(E->parse(ByteSpan::of(bytesOf("aaabbbccc"))));
  EXPECT_FALSE(E->parse(ByteSpan::of(bytesOf("aaabbbbcc"))));
}

TEST(CodegenTest, CompiledParserComputesAttributes) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  Grammar G = load(R"(
    Int -> Int[0, EOI - 1] Digit[EOI - 1, EOI] {val = 2 * Int.val + Digit.val}
         / Digit[0, 1] {val = Digit.val} ;
    Digit -> "0"[0, 1] {val = 0} / "1"[0, 1] {val = 1} ;
  )");
  auto E = compileEngine(G);
  ASSERT_NE(E, nullptr);
  // Int.val == 45 for input "101101".
  std::vector<uint8_t> In = bytesOf("101101");
  auto R = E->parse(ByteSpan::of(In));
  ASSERT_TRUE(R) << R.message();
  EXPECT_EQ(cast<NodeTree>(R->get())->attr(G.symVal()).value_or(-1), 45);
}

TEST(CodegenTest, CompiledElfParserAgreesWithEngine) {
  if (!GenModule::hostCompilerAvailable())
    GTEST_SKIP() << "no host C++ compiler";
  auto L = formats::loadElfGrammar();
  ASSERT_TRUE(L) << L.message();
  const Grammar &G = L->G;
  auto E = compileEngine(G);
  ASSERT_NE(E, nullptr);

  formats::ElfSynthSpec Spec;
  Spec.NumSymbols = 5;
  Spec.NumDynEntries = 3;
  formats::ElfModel Model;
  auto Bytes = formats::synthesizeElf(Spec, &Model);

  // Engine accepts; generated parser must too, with the same header attrs.
  Interp I(G);
  ASSERT_TRUE(I.parse(ByteSpan::of(Bytes)));
  auto R = E->parse(ByteSpan::of(Bytes));
  ASSERT_TRUE(R) << R.message();
  const auto *Root = cast<NodeTree>(R->get());
  ASSERT_FALSE(Root->children().empty());
  const auto *H = dyn_cast<NodeTree>(Root->children()[0].get());
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->attr(G.interner().lookup("num")).value_or(-1),
            static_cast<int64_t>(Model.ShNum));

  auto Bad = Bytes;
  Bad[1] = 'X';
  EXPECT_FALSE(Interp(G).parse(ByteSpan::of(Bad)));
  EXPECT_FALSE(E->parse(ByteSpan::of(Bad)));
}
