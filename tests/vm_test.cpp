//===- tests/vm_test.cpp - lowered-IR invariants & bytecode VM tests ------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locks the invariants of the lowering layer (lower/LIR.h) that all
/// three engines rely on, directly on the lir::Module — operand
/// resolution for checked grammars, literal interning, the dense
/// name-table contract, exists-scan resolution, blackbox site
/// deduplication, memoization policy, the alternative guards derived
/// for pdf and zip — plus the well-formedness of every
/// compiled expression program (forward-only jumps, in-bounds targets,
/// stack balance via lir::verify). The big-corpus equivalence of the
/// bytecode VM itself is differential_test.cpp's job; this file adds
/// targeted interpreter-vs-VM spot checks on the semantic corners the
/// expression bytecode compiles specially (short-circuit logic,
/// conditionals, exists-scans, guarded arithmetic, the quick-form fold's
/// wrap edges), pins which programs the fold turns into the VM's closed
/// quick form, and runs the parse skeleton with both evaluator policies
/// in lockstep over every spot-check grammar and every format corpus
/// and its corrupt-at-offset mutants.
///
//===----------------------------------------------------------------------===//

#include "lower/LIR.h"

#include "CorruptCorpus.h"
#include "TreeCanonical.h"
#include "formats/FormatRegistry.h"
#include "grammar/Grammar.h"
#include "runtime/Engine.h"
#include "runtime/ParseScratch.h"
#include "runtime/ParseSkeleton.h"
#include "vm/BytecodeVM.h"
#include "vm/ProgramEval.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace ipg;

namespace {

Grammar load(const char *Src) {
  auto R = loadGrammar(Src);
  EXPECT_TRUE(R) << R.message();
  if (!R)
    std::abort();
  return std::move(R->G);
}

bool isBranch(lir::XOp Op) {
  return Op == lir::XOp::BrFalse || Op == lir::XOp::BrTrue ||
         Op == lir::XOp::JmpZero || Op == lir::XOp::Jmp;
}

/// Structural well-formedness of one compiled program beyond what
/// lir::verify reports: every jump is strictly forward and lands inside
/// (or exactly at the end of) the program window.
void expectWellFormedJumps(const lir::Module &M, lir::ExprId Id) {
  const lir::ExprProgram &P = M.Exprs[Id];
  ASSERT_LE(P.Begin, P.End);
  ASSERT_LE(P.End, M.XCode.size());
  const uint32_t N = P.End - P.Begin;
  ASSERT_GT(N, 0u) << "empty expression program";
  EXPECT_GE(P.MaxStack, 1u) << "every program leaves one value";
  EXPECT_LE(P.MaxStack, N) << "stack high-water mark exceeds length";
  for (uint32_t I = 0; I < N; ++I) {
    const lir::XInstr &X = M.XCode[P.Begin + I];
    if (!isBranch(X.Op))
      continue;
    EXPECT_GT(X.A, I) << "backward or self jump at pc " << I;
    EXPECT_LE(X.A, N) << "jump past program end at pc " << I;
  }
}

/// Walks every expression the module references (intervals, term
/// operands, select arms, exists sub-programs) and checks its jumps.
void expectAllProgramsWellFormed(const lir::Module &M) {
  for (lir::ExprId Id = 0; Id < M.Exprs.size(); ++Id) {
    SCOPED_TRACE("expr " + std::to_string(Id));
    expectWellFormedJumps(M, Id);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Every format grammar lowers to a module lir::verify accepts, with the
// name-table contract (start = 0, end = 1, densely deduplicated) intact.
//===----------------------------------------------------------------------===//

TEST(LirTest, AllFormatModulesVerify) {
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto Load = formats::loadFormatGrammar(FI.Name);
    ASSERT_TRUE(Load) << Load.message();
    const Grammar &G = Load->G;
    lir::Module M = lir::lower(G);

    EXPECT_EQ(lir::verify(M), "");
    EXPECT_NE(M.Start, InvalidRuleId);
    EXPECT_EQ(M.Rules.size(), G.numRules());

    // The ipg_rt::IdStart/IdEnd contract.
    ASSERT_GE(M.NameTable.size(), 2u);
    EXPECT_EQ(M.NameTable[0], G.symStart());
    EXPECT_EQ(M.NameTable[1], G.symEnd());
    // Dense and deduplicated, with a consistent reverse map.
    std::set<Symbol> Seen;
    for (uint32_t Id = 0; Id < M.NameTable.size(); ++Id) {
      EXPECT_TRUE(Seen.insert(M.NameTable[Id]).second)
          << "duplicate name-table entry " << Id;
      EXPECT_EQ(M.nameIdOf(M.NameTable[Id]), Id);
    }

    expectAllProgramsWellFormed(M);

    // Blackbox call sites are collected and deduplicated: zip's grammar
    // calls `inflate` from more than one place but owns exactly one site.
    if (FI.Name == "zip") {
      ASSERT_EQ(M.BbSites.size(), 1u);
      EXPECT_EQ(M.BbSites[0].NameStr, "inflate");
      EXPECT_EQ(M.NameTable[M.BbSites[0].NameId], M.BbSites[0].Name);
    } else {
      EXPECT_TRUE(M.BbSites.empty());
    }

    // The memoization policy: local (where-clause) rules never memoize.
    for (const lir::RuleL &R : M.Rules)
      if (R.IsLocal) {
        EXPECT_FALSE(R.Memoizable)
            << "local rule " << M.nameOf(R.Name) << " marked memoizable";
      }
  }
}

// The execution tier of every bundled format's rules (analysis/RecShape.h)
// as docs/architecture.md states it: pdf, dns, zip and gif each have two
// Flattened rules, pe, elf and ipv4udp are all Direct, and no format needs
// the Step machine.
TEST(LirTest, BundledFormatsNonDirectRulesArePinned) {
  const std::map<std::string, std::set<std::string>> Flattened = {
      {"zip", {"LFs", "CDs"}},     {"elf", {}},
      {"pdf", {"XNum", "Scan"}},   {"gif", {"Blocks", "SubBlocks"}},
      {"pe", {}},                  {"dns", {"Name", "RRs"}},
      {"ipv4udp", {}},
  };
  ASSERT_EQ(formats::allFormats().size(), Flattened.size());
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto Load = formats::loadFormatGrammar(FI.Name);
    ASSERT_TRUE(Load) << Load.message();
    lir::Module M = lir::lower(Load->G);
    std::set<std::string> Got;
    for (const lir::RuleL &R : M.Rules) {
      EXPECT_NE(R.Shape, ExecShape::Step) << M.nameOf(R.Name);
      if (R.Shape == ExecShape::Flattened)
        Got.insert(std::string(M.nameOf(R.Name)));
    }
    ASSERT_EQ(Flattened.count(FI.Name), 1u);
    EXPECT_EQ(Got, Flattened.at(FI.Name));
  }
}

//===----------------------------------------------------------------------===//
// Operand resolution on a checked grammar: every lowered term carries
// resolved rule targets, completed intervals, interned literals, and
// resolved select-arm windows — engines never consult the source AST for
// any of these.
//===----------------------------------------------------------------------===//

namespace {

/// One grammar exercising seven of the eight term opcodes (CallBlackbox
/// is covered by the zip module above): rule calls, literal and raw
/// matches, attribute definitions, predicates, arrays, and a switch.
const char *AllTermsGrammar = R"(
  S -> "ab"[0, 2] H[2, 6] {k = u8(6)}
       switch(k = 1: P[7, 9]
            / k = 2: Q[7, 9])
       for i = 0 to H.n do A[9 + 2 * i, 9 + 2 * (i + 1)]
       check(H.n < 100)
       raw[9 + 2 * H.n, EOI] ;
  H -> {n = u32le(0)} ;
  P -> "ab"[0, 2] ;
  Q -> "cd"[0, 2] ;
  A -> {v = u16le(0)} ;
)";

const lir::TermL *findOp(const lir::Module &M, lir::TermOp Op) {
  for (const lir::RuleL &R : M.Rules)
    for (const lir::AltL &Alt : R.Alts)
      for (const lir::TermL &T : Alt.Exec)
        if (T.Op == Op)
          return &T;
  return nullptr;
}

} // namespace

TEST(LirTest, OperandsResolvedOnCheckedGrammar) {
  Grammar G = load(AllTermsGrammar);
  lir::Module M = lir::lower(G);
  EXPECT_EQ(lir::verify(M), "");
  expectAllProgramsWellFormed(M);

  const lir::TermL *Call = findOp(M, lir::TermOp::CallRule);
  ASSERT_NE(Call, nullptr);
  EXPECT_NE(Call->Rule, InvalidRuleId);
  EXPECT_NE(Call->Iv.Lo, lir::NoExpr);
  EXPECT_NE(Call->Iv.Hi, lir::NoExpr);

  const lir::TermL *Match = findOp(M, lir::TermOp::MatchBytes);
  ASSERT_NE(Match, nullptr);
  ASSERT_LT(Match->Lit, M.Lits.size());
  EXPECT_EQ(M.Lits[Match->Lit], "ab");

  const lir::TermL *Raw = findOp(M, lir::TermOp::MatchRaw);
  ASSERT_NE(Raw, nullptr);
  EXPECT_NE(Raw->Iv.Lo, lir::NoExpr);
  EXPECT_NE(Raw->Iv.Hi, lir::NoExpr);

  const lir::TermL *Set = findOp(M, lir::TermOp::SetAttr);
  ASSERT_NE(Set, nullptr);
  EXPECT_NE(Set->Sym, InvalidSymbol);
  EXPECT_NE(Set->E0, lir::NoExpr);

  const lir::TermL *Chk = findOp(M, lir::TermOp::Check);
  ASSERT_NE(Chk, nullptr);
  EXPECT_NE(Chk->E0, lir::NoExpr);

  const lir::TermL *Arr = findOp(M, lir::TermOp::ForArray);
  ASSERT_NE(Arr, nullptr);
  EXPECT_NE(Arr->Rule, InvalidRuleId);
  EXPECT_EQ(Arr->Sym, G.interner().intern("i"));
  EXPECT_EQ(Arr->Elem, G.interner().intern("A"));
  EXPECT_NE(Arr->E0, lir::NoExpr);
  EXPECT_NE(Arr->E1, lir::NoExpr);

  const lir::TermL *Sel = findOp(M, lir::TermOp::Select);
  ASSERT_NE(Sel, nullptr);
  ASSERT_LT(Sel->ArmsBegin, Sel->ArmsEnd);
  ASSERT_LE(Sel->ArmsEnd, M.Arms.size());
  EXPECT_EQ(Sel->ArmsEnd - Sel->ArmsBegin, 2u);
  for (uint32_t I = Sel->ArmsBegin; I != Sel->ArmsEnd; ++I) {
    const lir::ArmL &Arm = M.Arms[I];
    EXPECT_NE(Arm.Cond, lir::NoExpr); // no default arm in this grammar
    EXPECT_NE(Arm.Rule, InvalidRuleId);
    EXPECT_NE(Arm.Iv.Lo, lir::NoExpr);
    EXPECT_NE(Arm.Iv.Hi, lir::NoExpr);
  }
}

TEST(LirTest, LiteralsAreInterned) {
  // "ab" appears three times across two rules, "cd" once: two entries.
  Grammar G = load(R"(
    S -> "ab"[0, 2] "ab"[2, 4] T[4, EOI] ;
    T -> "ab"[0, 2] / "cd"[0, 2] ;
  )");
  lir::Module M = lir::lower(G);
  EXPECT_EQ(lir::verify(M), "");
  ASSERT_EQ(M.Lits.size(), 2u);
  EXPECT_EQ(M.Lits[0], "ab");
  EXPECT_EQ(M.Lits[1], "cd");
}

TEST(LirTest, ExistsScansAreResolved) {
  // Section 4.3's two-pass pattern: the exists compiles to an ExistsInfo
  // whose scanned array was identified statically.
  Grammar G = load(R"(
    S -> {n = u8(0)}
         for i = 0 to n do OH[1 + 3 * i, 1 + 3 * (i + 1)]
         for i = 0 to n do Obj[OH(i).ofs,
                               OH(i).ofs + (exists j . OH(j).link = i
                                              ? OH(j).len : 0 - 1)] ;
    OH -> {link = u8(0)} {len = u8(1)} {ofs = u8(2)} ;
    Obj -> "OB"[0, 2] ;
  )");
  lir::Module M = lir::lower(G);
  EXPECT_EQ(lir::verify(M), "");
  ASSERT_EQ(M.Exists.size(), 1u);
  const lir::ExistsInfo &E = M.Exists[0];
  EXPECT_EQ(E.LoopVar, G.interner().intern("j"));
  EXPECT_EQ(E.ArrayNT, G.interner().intern("OH"));
  EXPECT_NE(E.Cond, lir::NoExpr);
  EXPECT_NE(E.Then, lir::NoExpr);
  EXPECT_NE(E.Else, lir::NoExpr);
}

//===----------------------------------------------------------------------===//
// Alternative guards (lir::AltGuard): what the lowering proves about the
// pdf grammar, that no guard's transparent prefix reaches a blackbox, and
// that lir::verify rejects malformed guards.
//===----------------------------------------------------------------------===//

namespace {

const lir::RuleL &ruleNamed(const lir::Module &M, const Grammar &G,
                            const char *Name) {
  RuleId Id = M.globalRuleOf(G.interner().lookup(Name));
  EXPECT_NE(Id, InvalidRuleId) << Name;
  if (Id == InvalidRuleId)
    std::abort();
  return M.Rules[Id];
}

/// The guard's set as a sorted byte list, for readable expectations.
std::vector<int> guardBytes(const lir::AltGuard &G) {
  std::vector<int> Out;
  for (int B = 0; B < 256; ++B)
    if (G.has(static_cast<uint8_t>(B)))
      Out.push_back(B);
  return Out;
}

std::vector<int> byteRange(char Lo, char Hi) {
  std::vector<int> Out;
  for (int B = Lo; B <= Hi; ++B)
    Out.push_back(B);
  return Out;
}

/// Whether running \p T can reach a blackbox call, directly or through
/// any rule it calls.
bool reachesBlackbox(const lir::Module &M, const lir::TermL &T) {
  std::vector<RuleId> Work;
  std::vector<bool> Seen(M.Rules.size(), false);
  auto push = [&](RuleId R) {
    if (R != InvalidRuleId && !Seen[R]) {
      Seen[R] = true;
      Work.push_back(R);
    }
  };
  auto visit = [&](const lir::TermL &X) {
    if (X.Op == lir::TermOp::CallBlackbox)
      return true;
    if (X.Op == lir::TermOp::CallRule || X.Op == lir::TermOp::ForArray)
      push(X.Rule);
    if (X.Op == lir::TermOp::Select)
      for (uint32_t I = X.ArmsBegin; I < X.ArmsEnd; ++I)
        push(M.Arms[I].Rule);
    return false;
  };
  if (visit(T))
    return true;
  while (!Work.empty()) {
    RuleId R = Work.back();
    Work.pop_back();
    for (const lir::AltL &A : M.Rules[R].Alts)
      for (const lir::TermL &X : A.Exec)
        if (visit(X))
          return true;
  }
  return false;
}

} // namespace

TEST(LirTest, PdfGuardsSkipDigitProbesAndTheDeadXNumDescent) {
  auto Load = formats::loadFormatGrammar("pdf");
  ASSERT_TRUE(Load) << Load.message();
  const Grammar &G = Load->G;
  lir::Module M = lir::lower(G);
  ASSERT_EQ(lir::verify(M), "");

  // Digit: ten one-byte literals, one guard each: '0'..'9' at offset 0.
  const lir::RuleL &Digit = ruleNamed(M, G, "Digit");
  ASSERT_EQ(Digit.Alts.size(), 10u);
  for (size_t I = 0; I < 10; ++I) {
    SCOPED_TRACE("Digit alternative " + std::to_string(I));
    const lir::AltGuard &Gd = Digit.Alts[I].Guard;
    ASSERT_TRUE(Gd);
    EXPECT_EQ(Gd.Anchor, lir::GuardAnchor::Start);
    EXPECT_EQ(Gd.Offset, 0u);
    EXPECT_EQ(Gd.Term, 0u);
    EXPECT_EQ(guardBytes(Gd), std::vector<int>{int('0' + I)});
  }

  // XNum's self alternative: its first term, the self call, has no FIRST
  // set (XNum's base case reads EOI - 1, not offset 0), so the guard
  // comes from Digit[EOI - 1, EOI] after it: a digit at EOI - 1.
  const lir::RuleL &XNum = ruleNamed(M, G, "XNum");
  ASSERT_EQ(XNum.Shape, ExecShape::Flattened);
  const lir::AltL &Self = XNum.Alts[XNum.Flatten.SelfAlt];
  ASSERT_TRUE(Self.Guard);
  EXPECT_EQ(Self.Guard.Anchor, lir::GuardAnchor::Eoi);
  EXPECT_EQ(Self.Guard.Offset, 1u);
  EXPECT_GT(Self.Guard.Term, XNum.Flatten.SelfExecPos);
  EXPECT_EQ(Self.Exec[Self.Guard.Term].Op, lir::TermOp::CallRule);
  EXPECT_EQ(Self.Exec[Self.Guard.Term].Rule,
            M.globalRuleOf(G.interner().lookup("Digit")));
  EXPECT_EQ(guardBytes(Self.Guard), byteRange('0', '9'));

  // Scan: "endobj" is guarded by its 'e'; `raw[1] Scan` proves nothing.
  const lir::RuleL &Scan = ruleNamed(M, G, "Scan");
  ASSERT_EQ(Scan.Alts.size(), 2u);
  ASSERT_TRUE(Scan.Alts[0].Guard);
  EXPECT_EQ(Scan.Alts[0].Guard.Anchor, lir::GuardAnchor::Start);
  EXPECT_EQ(Scan.Alts[0].Guard.Offset, 0u);
  EXPECT_EQ(guardBytes(Scan.Alts[0].Guard), std::vector<int>{'e'});
  EXPECT_FALSE(Scan.Alts[1].Guard);
}

TEST(LirTest, NoGuardPrefixReachesABlackbox) {
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto Load = formats::loadFormatGrammar(FI.Name);
    ASSERT_TRUE(Load) << Load.message();
    lir::Module M = lir::lower(Load->G);
    size_t Guards = 0;
    for (const lir::RuleL &R : M.Rules)
      for (const lir::AltL &A : R.Alts) {
        if (!A.Guard)
          continue;
        ++Guards;
        ASSERT_LT(A.Guard.Term, A.Exec.size());
        for (uint32_t I = 0; I < A.Guard.Term; ++I)
          EXPECT_FALSE(reachesBlackbox(M, A.Exec[I]))
              << "rule '" << M.nameOf(R.Name) << "': prefix term " << I
              << " of a guarded alternative reaches a blackbox";
      }
    if (FI.Name == "zip") {
      EXPECT_GT(Guards, 0u) << "zip's signatures should yield guards";
    }
  }
}

TEST(LirTest, VerifyRejectsMalformedGuards) {
  Grammar G = load(R"(
    S -> "ab"[0, 2] T[2, EOI] ;
    T -> "c"[EOI - 1, EOI] / "d"[0, 1] ;
  )");
  lir::Module M = lir::lower(G);
  ASSERT_EQ(lir::verify(M), "");
  lir::AltGuard &Gd = M.Rules[1].Alts[0].Guard;
  ASSERT_EQ(Gd.Anchor, lir::GuardAnchor::Eoi);
  const lir::AltGuard Good = Gd;

  auto expectRejected = [&](const char *What) {
    std::string Err = lir::verify(M);
    EXPECT_NE(Err.find(What), std::string::npos)
        << "expected a '" << What << "' violation, got: '" << Err << "'";
    Gd = Good;
  };
  std::fill(Gd.Set, Gd.Set + 4, 0ull);
  expectRejected("set is empty");
  Gd.Anchor = static_cast<lir::GuardAnchor>(7);
  expectRejected("anchor out of range");
  Gd.Offset = 0; // EOI - 0 is never a byte of the window
  expectRejected("offset out of range");
  Gd.Offset = lir::MaxGuardOffset + 1u;
  expectRejected("offset out of range");
  Gd.Term = 5;
  expectRejected("term out of range");
  EXPECT_EQ(lir::verify(M), "");
}

//===----------------------------------------------------------------------===//
// The two evaluator policies in lockstep. Both engines run one parse
// skeleton (runtime/ParseSkeleton.h), so comparing their final trees
// cannot tell the evaluators apart where backtracking hides a difference.
// Here the skeleton runs with a policy that asks AstEval (the AST oracle)
// and ProgramEval (the VM's compiled programs) every question and records
// any difference in value or partiality at the evaluation itself.
//===----------------------------------------------------------------------===//

namespace {

struct LockstepLog {
  size_t Evaluations = 0;
  size_t Disagreements = 0;
  std::vector<std::string> First; ///< the first few, for the report
};

/// Answers with ProgramEval after checking it against AstEval.
class LockstepEval {
public:
  using Frame = ParseScratch::Frame;

  LockstepEval(AstEval Ast, ProgramEval Prog, LockstepLog &Log)
      : Ast(Ast), Prog(Prog), Log(Log) {}

  bool interval(const Frame &F, const lir::IntervalL &Iv, int64_t &Lo,
                int64_t &Hi) {
    int64_t ALo = 0, AHi = 0;
    bool AOk = Ast.interval(F, Iv, ALo, AHi);
    bool POk = Prog.interval(F, Iv, Lo, Hi);
    check("interval", Iv.Lo, F, AOk, POk,
          AOk && POk && (ALo != Lo || AHi != Hi));
    return POk;
  }
  bool value(const Frame &F, const lir::TermL &T, int64_t &Out) {
    int64_t A = 0;
    bool AOk = Ast.value(F, T, A);
    bool POk = Prog.value(F, T, Out);
    check("value", T.E0, F, AOk, POk, AOk && POk && A != Out);
    return POk;
  }
  bool bounds(const Frame &F, const lir::TermL &T, int64_t &From,
              int64_t &To) {
    int64_t AFrom = 0, ATo = 0;
    bool AOk = Ast.bounds(F, T, AFrom, ATo);
    bool POk = Prog.bounds(F, T, From, To);
    check("bounds", T.E0, F, AOk, POk,
          AOk && POk && (AFrom != From || ATo != To));
    return POk;
  }
  bool cond(const Frame &F, const lir::ArmL &C, int64_t &Out) {
    int64_t A = 0;
    bool AOk = Ast.cond(F, C, A);
    bool POk = Prog.cond(F, C, Out);
    check("cond", C.Cond, F, AOk, POk, AOk && POk && A != Out);
    return POk;
  }

private:
  AstEval Ast;
  ProgramEval Prog;
  LockstepLog &Log;

  void check(const char *What, lir::ExprId Id, const Frame &F, bool AOk,
             bool POk, bool ValuesDiffer) {
    ++Log.Evaluations;
    if (AOk == POk && !ValuesDiffer)
      return;
    ++Log.Disagreements;
    if (Log.First.size() < 5)
      Log.First.push_back(std::string(What) + " (program " +
                          std::to_string(Id) + ") at offset " +
                          std::to_string(F.Input.absBase()) + ": ast " +
                          (AOk ? "ok" : "partial") + ", vm " +
                          (POk ? "ok" : "partial") +
                          (ValuesDiffer ? ", values differ" : ""));
  }
};

/// An in-process engine running the skeleton with LockstepEval.
class LockstepEngine : public InProcessEngine {
public:
  LockstepEngine(const Grammar &G, const BlackboxRegistry *Blackboxes,
                 EngineOptions Opts)
      : InProcessEngine(G, Blackboxes, Opts) {
    ProgramEval::decode(S->Lowered, Quick);
  }
  EngineKind kind() const override { return EngineKind::Vm; }

  LockstepLog Log;

private:
  std::vector<BytecodeVM::QuickExpr> Quick;

  Expected<TreePtr> run(ByteSpan Input, RuleId Start) override {
    LockstepEval Ev(AstEval(*S->Cur), ProgramEval(*S, Quick), Log);
    return ParseSkeleton<LockstepEval>(G, Opts, Stats, *S, Ev, HasDeadline,
                                       Deadline)
        .run(Input, Start);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Interpreter-vs-VM spot checks on the corners the expression bytecode
// compiles specially. The format-corpus equivalence lives in
// differential_test.cpp; these stay small and targeted so a divergence
// points straight at one construct.
//===----------------------------------------------------------------------===//

namespace {

/// Parses \p In with both in-process engines and expects identical
/// verdicts; on acceptance, identical canonical trees and counters. A
/// third parse runs the two evaluators in lockstep, so every evaluation
/// is compared, not only the final tree.
void expectVmAgrees(const char *Src, const std::vector<uint8_t> &In) {
  Grammar G = load(Src);
  auto IE = makeEngine(EngineKind::Interp, G);
  ASSERT_TRUE(IE) << IE.message();
  auto VE = makeEngine(EngineKind::Vm, G);
  ASSERT_TRUE(VE) << VE.message();
  auto RI = (*IE)->parse(ByteSpan::of(In));
  auto RV = (*VE)->parse(ByteSpan::of(In));
  ASSERT_EQ(static_cast<bool>(RI), static_cast<bool>(RV))
      << "verdicts diverge; interp: "
      << (RI ? "accept" : RI.message())
      << ", vm: " << (RV ? "accept" : RV.message());
  if (RI && RV) {
    EXPECT_EQ(testutil::renderCanonical(*RI, G),
              testutil::renderCanonical(*RV, G));
  } else {
    EXPECT_EQ(RI.message(), RV.message());
  }
  EXPECT_EQ((*IE)->stats().TermsExecuted, (*VE)->stats().TermsExecuted);
  EXPECT_EQ((*IE)->stats().NodesCreated, (*VE)->stats().NodesCreated);

  LockstepEngine Lockstep(G, nullptr, EngineOptions());
  auto RL = Lockstep.parse(ByteSpan::of(In));
  EXPECT_EQ(static_cast<bool>(RL), static_cast<bool>(RV));
  for (const std::string &D : Lockstep.Log.First)
    ADD_FAILURE() << D;
  EXPECT_GT(Lockstep.Log.Evaluations, 0u);
  EXPECT_EQ(Lockstep.Log.Disagreements, 0u);
}

/// Whether the interpreter accepts \p In: expectVmAgrees compares the
/// engines, this pins which way they both went.
bool interpAccepts(const char *Src, const std::vector<uint8_t> &In) {
  Grammar G = load(Src);
  auto E = makeEngine(EngineKind::Interp, G);
  return E && static_cast<bool>((*E)->parse(ByteSpan::of(In)));
}

std::vector<uint8_t> bytes(const char *S) {
  return std::vector<uint8_t>(S, S + std::string(S).size());
}

} // namespace

TEST(VmTest, ShortCircuitLogicAgrees) {
  // && and || compile to BrFalse/BrTrue forward jumps; the right-hand
  // sides contain partial reads that must NOT be evaluated when the
  // short-circuit takes the jump (u8(9) is out of bounds here).
  const char *Src = R"(
    S -> "x"[0, 1] {a = u8(0)}
         check(a = 120 || u8(9) = 1)
         check(a = 0 && u8(9) = 1 || 1) ;
  )";
  expectVmAgrees(Src, bytes("x"));
}

TEST(VmTest, ConditionalAndComparisonsAgree) {
  const char *Src = R"(
    S -> {a = u8(0)} {b = (a > 100 ? a - 100 : a + 100)}
         {c = (a = 120 ? 1 : 0)} {d = (a != 7 ? 2 : 3)}
         check(b = 20 && c = 1 && d = 2) "x"[0, 1] ;
  )";
  expectVmAgrees(Src, bytes("x"));
}

TEST(VmTest, GuardedArithmeticFailsIdentically) {
  // Division by zero is partiality: alternative 1 must fail cleanly and
  // alternative 2 accept, in both engines.
  const char *Src = R"(
    S -> "x"[0, 1] {z = u8(0) - 120} {v = 7 / z} check(v = v)
       / "x"[0, 1] {ok = 1} ;
  )";
  expectVmAgrees(Src, bytes("x"));
}

TEST(VmTest, ShiftRangeGuardAgrees) {
  // 1 << 62 is the last legal shift; << 63 must fail as partiality.
  const char *Src = R"(
    S -> "x"[0, 1] {a = 1 << 62} {b = a * 2 * 2} check(b = 0)
       / "x"[0, 1] {hi = 1 << 62} ;
  )";
  expectVmAgrees(Src, bytes("x"));
}

TEST(VmTest, ExistsScanAgrees) {
  Grammar G = load(R"(
    S -> {n = u8(0)}
         for i = 0 to n do OH[1 + 3 * i, 1 + 3 * (i + 1)]
         for i = 0 to n do Obj[OH(i).ofs,
                               OH(i).ofs + (exists j . OH(j).link = i
                                              ? OH(j).len : 0 - 1)] ;
    OH -> {link = u8(0)} {len = u8(1)} {ofs = u8(2)} ;
    Obj -> "OB"[0, 2] ;
  )");
  std::vector<uint8_t> In = {2, 1, 2, 7, 0, 2, 9,
                             'O', 'B', 'O', 'B'};
  auto IE = makeEngine(EngineKind::Interp, G);
  auto VE = makeEngine(EngineKind::Vm, G);
  ASSERT_TRUE(IE);
  ASSERT_TRUE(VE) << VE.message();
  auto RI = (*IE)->parse(ByteSpan::of(In));
  auto RV = (*VE)->parse(ByteSpan::of(In));
  ASSERT_TRUE(RI) << RI.message();
  ASSERT_TRUE(RV) << RV.message();
  EXPECT_EQ(testutil::renderCanonical(*RI, G),
            testutil::renderCanonical(*RV, G));

  // The else-edge: no header links to object 0 when the link bytes are
  // damaged; [ofs, ofs - 1) is an invalid interval, so both reject.
  std::vector<uint8_t> Bad = In;
  Bad[1] = 9;
  Bad[4] = 9;
  EXPECT_FALSE((*IE)->parse(ByteSpan::of(Bad)));
  EXPECT_FALSE((*VE)->parse(ByteSpan::of(Bad)));
}

TEST(VmTest, BtoiReadsAgree) {
  // ReadFixed (u8/u16le/u32le) and ReadRange (btoi over a computed
  // window) including the failure edge one byte past the input.
  const char *Src = R"(
    S -> {a = u8(0)} {b = u16le(1)} {c = u32le(3)}
         {w = btoi(0, 2)} {x = btoi(a - a, 1 + 1)}
         check(w = x) raw[7, EOI]
       / {oops = u8(100)} ;
  )";
  std::vector<uint8_t> In = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  expectVmAgrees(Src, In);
}

TEST(VmTest, AffineFoldWrapEdgesAgree) {
  // Subtracting INT64_MIN (its negation wraps to itself) and a multiply
  // that wraps to 0 yet must still load `a`; the checks recompute both
  // through the dispatch loop.
  const char *Wrap = R"(
    S -> "x"[0, 1] {a = u8(0)} {p = a - (0 - 9223372036854775807 - 1)}
         {q = a * 4611686018427387904 * 4}
         check(p = a + 9223372036854775807 + 1) check(q = 0) ;
  )";
  expectVmAgrees(Wrap, bytes("x"));
  EXPECT_TRUE(interpAccepts(Wrap, bytes("x")));

  // A read at a negative offset is partial: alternative 1 fails.
  const char *NegRead = R"(
    S -> "x"[0, 1] {a = u8(0)} {r = u8(a - 200)}
       / "x"[0, 1] {ok = 1} ;
  )";
  expectVmAgrees(NegRead, bytes("x"));
  EXPECT_TRUE(interpAccepts(NegRead, bytes("x")));

  // The else-branch of an exists-scan runs without the loop binding, so
  // the offset attribute of its read is absent: alternative 1 fails and
  // alternative 2 must accept.
  const char *AbsentOff = R"(
    S -> for i = 0 to 1 do H[0, 1]
         {s = (exists j . H(j).v = 9 ? 0 : u8(j + 1))}
       / "x"[0, 1] {ok = 1} ;
    H -> "x"[0, 1] {v = 1} ;
  )";
  expectVmAgrees(AbsentOff, bytes("xq"));
  EXPECT_TRUE(interpAccepts(AbsentOff, bytes("xq")));
}

//===----------------------------------------------------------------------===//
// The quick-form fold. Every equivalence test above would still pass if
// every program fell to General; this pins that the one-load affine
// programs really take the closed form, and that the rest do not.
//===----------------------------------------------------------------------===//

TEST(VmTest, QuickFormFoldsOneLoadAffinePrograms) {
  using QE = BytecodeVM::QuickExpr;
  Grammar G = load(R"(
    S -> "xy"[0, 2] "ab" {a = u8(0)} {b = u8(1)}
         {f1 = EOI - 4} {f2 = 3 * (a + 5) - 7} {f3 = 5 - a}
         {f4 = u32le(a + 1)}
         {g1 = a + b} {g2 = a * b} {g3 = (a = 1)} {g4 = EOI / 2}
         {g5 = (a > 0 && b < 9)} {g6 = u8(EOI - 1)} ;
  )");
  lir::Module M = lir::lower(G);
  std::vector<QE> Quick;
  ProgramEval::decode(M, Quick);

  std::map<std::string, QE> ByAttr; // each definition's folded value
  const lir::TermL *Ab = nullptr;
  for (const lir::TermL &T : M.Rules[M.Start].Alts[0].Exec) {
    if (T.Op == lir::TermOp::SetAttr)
      ByAttr[std::string(M.nameOf(T.Sym))] = Quick[T.E0];
    if (T.Op == lir::TermOp::MatchBytes && T.TermIdx == 1)
      Ab = &T;
  }
  auto expectFold = [](const QE &Q, QE::Kind K, int64_t Mul, int64_t Imm) {
    EXPECT_EQ(Q.K, K);
    EXPECT_EQ(Q.Mul, Mul);
    EXPECT_EQ(Q.Imm, Imm);
  };
  expectFold(ByAttr["f1"], QE::Eoi, 1, -4);
  expectFold(ByAttr["f2"], QE::Attr, 3, 8);
  expectFold(ByAttr["f3"], QE::Attr, -1, 5);

  // u32le(a + 1) and u8(0): the read is the load, its offset folded in.
  const QE &F4 = ByAttr["f4"];
  expectFold(F4, QE::Read, 1, 0);
  EXPECT_TRUE(F4.ReadAtAttr);
  EXPECT_EQ(F4.Off, 1);
  EXPECT_EQ(F4.A, 4u);
  const QE &A = ByAttr["a"];
  expectFold(A, QE::Read, 1, 0);
  EXPECT_FALSE(A.ReadAtAttr);
  EXPECT_EQ(A.Off, 0);
  EXPECT_EQ(A.A, 1u);

  // "ab" has the implicit interval [end of term 0, end of term 0 + 2].
  ASSERT_NE(Ab, nullptr);
  expectFold(Quick[Ab->Iv.Hi], QE::TermEnd, 1, 2);
  EXPECT_EQ(Quick[Ab->Iv.Hi].A, 0u);

  // Two loads, a comparison, a guarded operator, jumps, and a read whose
  // offset is not constant or attribute + constant.
  for (const char *Name : {"g1", "g2", "g3", "g4", "g5", "g6"})
    EXPECT_EQ(ByAttr[Name].K, QE::General) << Name;
}

//===----------------------------------------------------------------------===//
// The lockstep run over every format corpus and its mutants.
//===----------------------------------------------------------------------===//

TEST(VmTest, EvaluatorsAgreeInLockstepOnEveryCorpusAndMutant) {
  size_t Parses = 0, Evaluations = 0, Disagreements = 0;
  for (const formats::FormatInfo &FI : formats::allFormats()) {
    SCOPED_TRACE("format: " + FI.Name);
    auto Load = formats::loadFormatGrammar(FI.Name);
    ASSERT_TRUE(Load) << Load.message();
    const BlackboxRegistry Blackboxes = formats::standardBlackboxes();

    const std::vector<uint8_t> Bytes = formats::sampleInput(FI.Name, 1);
    std::vector<std::vector<uint8_t>> Inputs = {Bytes};
    for (const testutil::CorruptProbe &P :
         testutil::corruptProbes(Bytes.size()))
      Inputs.push_back(testutil::corruptAt(Bytes, P.Kind, P.Off));

    for (RecoveryPolicy Policy :
         {RecoveryPolicy::Strict, RecoveryPolicy::Salvage}) {
      SCOPED_TRACE(Policy == RecoveryPolicy::Strict ? "strict" : "salvage");
      EngineOptions Opts;
      Opts.Recovery = Policy;
      LockstepEngine Lockstep(Load->G, &Blackboxes, Opts);
      BytecodeVM Vm(Load->G, &Blackboxes, Opts);
      for (const std::vector<uint8_t> &In : Inputs) {
        auto RL = Lockstep.parse(ByteSpan::of(In));
        auto RV = Vm.parse(ByteSpan::of(In));
        // The lockstep run is the VM's parse, evaluation for evaluation.
        EXPECT_EQ(static_cast<bool>(RL), static_cast<bool>(RV));
        EXPECT_EQ(Lockstep.stats().ParseVerdict, Vm.stats().ParseVerdict);
        EXPECT_EQ(Lockstep.stats().TermsExecuted, Vm.stats().TermsExecuted);
        ++Parses;
      }
      for (const std::string &D : Lockstep.Log.First)
        ADD_FAILURE() << D;
      Evaluations += Lockstep.Log.Evaluations;
      Disagreements += Lockstep.Log.Disagreements;
    }
  }
  EXPECT_EQ(Parses, 2 * 25 * formats::allFormats().size());
  EXPECT_GT(Evaluations, 0u);
  EXPECT_EQ(Disagreements, 0u);
  std::printf("lockstep: %zu parses, %zu evaluations, %zu disagreements\n",
              Parses, Evaluations, Disagreements);
}
