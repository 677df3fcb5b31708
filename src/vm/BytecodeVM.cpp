//===- vm/BytecodeVM.cpp --------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The bytecode VM is the parse skeleton (runtime/ParseSkeleton.h) run with
// the ProgramEval policy (vm/ProgramEval.h). This file holds that policy's
// out-of-line half — the construction-time decoder that folds each
// compiled program into its QuickExpr, the loads that do not inline, and
// the computed-goto dispatch loop for the rest — plus the engine glue.
//
//===----------------------------------------------------------------------===//

#include "vm/BytecodeVM.h"

#include "lower/LIR.h"
#include "runtime/ParseScratch.h"
#include "runtime/ParseSkeleton.h"
#include "support/GenRuntime.h"
#include "vm/ProgramEval.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

using namespace ipg;

namespace {

using QE = BytecodeVM::QuickExpr;

/// The deepest operand stack classifyExpr tracks; deeper programs stay
/// General.
constexpr uint32_t MaxFoldDepth = 4;

/// A quick form with no arithmetic folded in yet: Mul = 1, Imm = 0.
QE loadForm(QE::Kind K, Symbol Sym = 0, uint32_t A = 0) {
  QE Q;
  Q.K = K;
  Q.Sym = Sym;
  Q.A = A;
  return Q;
}

/// Folds \p R into \p Lhs for Add, Sub or Mul. Fails when both operands
/// carry a load: their sum or product is not of the one-load form.
bool foldArith(lir::XOp Op, QE &Lhs, QE R) {
  if (Lhs.K != QE::Const && R.K != QE::Const)
    return false;
  if (Op == lir::XOp::Sub) { // a - b == a + (-1) * b, exactly mod 2^64
    R.Mul = ipg_rt::wrapMul(R.Mul, -1);
    R.Imm = ipg_rt::wrapMul(R.Imm, -1);
  }
  if (Lhs.K == QE::Const) // + and * commute: keep the load on the left
    std::swap(Lhs, R);
  if (Op == lir::XOp::Mul) {
    Lhs.Mul = ipg_rt::wrapMul(Lhs.Mul, R.Imm);
    Lhs.Imm = ipg_rt::wrapMul(Lhs.Imm, R.Imm);
  } else {
    Lhs.Imm = ipg_rt::wrapAdd(Lhs.Imm, R.Imm);
  }
  return true;
}

/// Folds one expression program into `Mul * load + Imm` by interpreting
/// it over abstract values of that form (a Const value is just Imm), or
/// returns General when it does not fit. Num and the scalar loads push;
/// + - * fold while at most one operand carries a load, which is exact
/// because the dispatch loop's arithmetic wraps too; a fixed-width
/// ReadFixed over a constant or `attribute + constant` offset becomes
/// the Read load. Every other opcode — comparisons, guarded operators,
/// jumps, element loads, btoi windows — leaves the program General.
/// Since Num and + - * cannot fail, a one-load program fails exactly
/// when its load does, as the loop would.
QE classifyExpr(const lir::Module &L, uint32_t Id) {
  const lir::ExprProgram &P = L.Exprs[Id];
  if (P.MaxStack > MaxFoldDepth)
    return QE();
  QE S[MaxFoldDepth];
  uint32_t SP = 0;
  for (uint32_t PC = P.Begin; PC < P.End; ++PC) {
    const lir::XInstr &I = L.XCode[PC];
    switch (I.Op) {
    case lir::XOp::Num:
      S[SP] = loadForm(QE::Const);
      S[SP++].Imm = I.Imm;
      break;
    case lir::XOp::LoadEoi:
      S[SP++] = loadForm(QE::Eoi);
      break;
    case lir::XOp::LoadAttr:
      S[SP++] = loadForm(QE::Attr, I.Sym);
      break;
    case lir::XOp::LoadNtAttr:
      S[SP++] = loadForm(QE::NtAttr, I.Sym, I.Attr);
      break;
    case lir::XOp::LoadTermEnd:
      S[SP++] = loadForm(QE::TermEnd, 0, static_cast<uint32_t>(I.Imm));
      break;
    case lir::XOp::Add:
    case lir::XOp::Sub:
    case lir::XOp::Mul:
      --SP;
      if (!foldArith(I.Op, S[SP - 1], S[SP]))
        return QE();
      break;
    case lir::XOp::ReadFixed: {
      // The width|endian spec is resolved here so the evaluator can use
      // compile-time-width loads (readFixedQuick).
      long long Width = 0;
      bool BigEndian = false;
      QE &Off = S[SP - 1];
      const bool AtAttr = Off.K == QE::Attr && Off.Mul == 1;
      if (!ipg_rt::readKindSpec(I.A, Width, BigEndian) ||
          (Off.K != QE::Const && !AtAttr))
        return QE();
      QE R = loadForm(QE::Read, Off.Sym,
                      static_cast<uint32_t>(Width) |
                          (BigEndian ? 0x100u : 0u));
      R.ReadAtAttr = AtAttr;
      R.Off = Off.Imm;
      Off = R;
      break;
    }
    default:
      return QE();
    }
  }
  assert(SP == 1 && "expression program must leave 1 value");
  return S[0];
}

} // namespace

/// `exists j . C ? T : E` over the statically identified array
/// (Eval.cpp's evalExists): length from the OUTER context, condition
/// and then-branch under the loop binding, else-branch without it. A
/// failing condition at any index fails the whole expression.
bool ProgramEval::evalExists(const Frame &F, uint32_t Idx, int64_t &Out) {
  const lir::ExistsInfo &X = L.Exists[Idx];
  if (X.ArrayNT == InvalidSymbol)
    return false;
  const ArrayTree *A = findArray(F, X.ArrayNT);
  if (!A)
    return false;
  const int64_t Len = static_cast<int64_t>(A->size());
  for (int64_t K = 0; K < Len; ++K) {
    St.Binds.push_back({X.LoopVar, K});
    int64_t C = 0;
    if (!evalProgram(F, X.Cond, C)) {
      St.Binds.pop_back();
      return false;
    }
    if (C != 0) {
      bool Ok = evalProgram(F, X.Then, Out);
      St.Binds.pop_back();
      return Ok;
    }
    St.Binds.pop_back();
  }
  return evalProgram(F, X.Else, Out);
}

/// The loads evalProgram does not inline, then the shared formula;
/// General runs the dispatch loop.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
bool
ProgramEval::evalQuickRest(const Frame &F, const QE &Q, lir::ExprId Id,
                           int64_t &Out) {
  int64_t V = 0;
  switch (Q.K) {
  case QE::Attr:
    if (!loadAttr(F, Q.Sym, V))
      return false;
    break;
  case QE::NtAttr:
    if (!loadNtAttr(F, Q.Sym, Q.A, V))
      return false;
    break;
  case QE::Read: {
    int64_t Off = Q.Off;
    if (Q.ReadAtAttr) {
      if (!loadAttr(F, Q.Sym, Off))
        return false;
      Off = ipg_rt::wrapAdd(Off, Q.Off);
    }
    if (!readFixedQuick(F, Q.A, Off, V))
      return false;
    break;
  }
  case QE::General:
  case QE::Const:   // inlined by evalProgram; never reaches here
  case QE::Eoi:     // inlined by evalProgram; never reaches here
  case QE::TermEnd: // inlined by evalProgram; never reaches here
    return evalGeneral(F, Id, Out);
  }
  Out = affine(Q, V);
  return true;
}

/// The dispatch loop for General programs. The operand stack is a raw
/// pointer window over St.VStack: the program's exact high-water mark
/// (ExprProgram::MaxStack, proved by the lowering's simulation) is
/// reserved up front, so pushes and pops are bare pointer moves. Nested
/// activations (Exists sub-programs) stack their windows through
/// St.VTop, which this frame commits around the one opcode that can
/// re-enter. Dispatch is computed-goto on GNU-compatible compilers —
/// the label table is in XOp declaration order — with a switch fallback
/// elsewhere.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline, cold))
#endif
bool
ProgramEval::evalGeneral(const Frame &F, lir::ExprId Id, int64_t &Out) {
  const lir::ExprProgram &P = L.Exprs[Id];
  const lir::XInstr *Code = L.XCode.data() + P.Begin;
  const uint32_t N = P.End - P.Begin;
  std::vector<int64_t> &S = St.VStack;
  const size_t Base = St.VTop;
  if (S.size() < Base + P.MaxStack)
    S.resize(Base + P.MaxStack);
  int64_t *BP = S.data() + Base;
  int64_t *SP = BP;
  uint32_t PC = 0;
  int64_t T1 = 0;
  long long Guarded = 0;

  // Every program has >= 1 instruction and every jump target lies in
  // (source, N] (lir::verify); the loop only needs the PC == N check on
  // instruction boundaries.
#if defined(__GNUC__) || defined(__clang__)
  static const void *const Dispatch[] = {
      &&x_Num,       &&x_Add,        &&x_Sub,          &&x_Mul,
      &&x_Div,       &&x_Mod,        &&x_Eq,           &&x_Ne,
      &&x_Lt,        &&x_Gt,         &&x_Le,           &&x_Ge,
      &&x_Shl,       &&x_Shr,        &&x_BitAnd,       &&x_Bool,
      &&x_BrFalse,   &&x_BrTrue,     &&x_JmpZero,      &&x_Jmp,
      &&x_LoadAttr,  &&x_LoadNtAttr, &&x_LoadElemAttr, &&x_LoadEoi,
      &&x_LoadTermEnd, &&x_ReadFixed, &&x_ReadRange,   &&x_Exists,
  };
  static_assert(sizeof(Dispatch) / sizeof(Dispatch[0]) == 28,
                "dispatch table must cover every XOp");
#define IPG_VM_CASE(op) x_##op:
#define IPG_VM_NEXT()                                                        \
do {                                                                         \
  if (++PC == N)                                                             \
    goto vm_done;                                                            \
  goto *Dispatch[static_cast<uint8_t>(Code[PC].Op)];                         \
} while (0)
#define IPG_VM_JUMP(Target)                                                  \
do {                                                                         \
  PC = (Target);                                                             \
  if (PC == N)                                                               \
    goto vm_done;                                                            \
  goto *Dispatch[static_cast<uint8_t>(Code[PC].Op)];                         \
} while (0)
#define IPG_VM_FAIL() return false

  goto *Dispatch[static_cast<uint8_t>(Code[0].Op)];
#else
#define IPG_VM_CASE(op) case lir::XOp::op:
#define IPG_VM_NEXT()                                                        \
do {                                                                         \
  ++PC;                                                                      \
  goto vm_top;                                                               \
} while (0)
#define IPG_VM_JUMP(Target)                                                  \
do {                                                                         \
  PC = (Target);                                                             \
  goto vm_top;                                                               \
} while (0)
#define IPG_VM_FAIL() return false

vm_top:
  if (PC == N)
    goto vm_done;
  switch (Code[PC].Op) {
#endif

  IPG_VM_CASE(Num)
  *SP++ = Code[PC].Imm;
  IPG_VM_NEXT();

  IPG_VM_CASE(Add)
  T1 = *--SP;
  SP[-1] = ipg_rt::wrapAdd(SP[-1], T1);
  IPG_VM_NEXT();

  IPG_VM_CASE(Sub)
  T1 = *--SP;
  SP[-1] = ipg_rt::wrapSub(SP[-1], T1);
  IPG_VM_NEXT();

  IPG_VM_CASE(Mul)
  T1 = *--SP;
  SP[-1] = ipg_rt::wrapMul(SP[-1], T1);
  IPG_VM_NEXT();

  IPG_VM_CASE(Div)
  T1 = *--SP;
  if (!ipg_rt::checkedDiv(SP[-1], T1, Guarded))
    IPG_VM_FAIL();
  SP[-1] = Guarded;
  IPG_VM_NEXT();

  IPG_VM_CASE(Mod)
  T1 = *--SP;
  if (!ipg_rt::checkedMod(SP[-1], T1, Guarded))
    IPG_VM_FAIL();
  SP[-1] = Guarded;
  IPG_VM_NEXT();

  IPG_VM_CASE(Eq)
  T1 = *--SP;
  SP[-1] = SP[-1] == T1 ? 1 : 0;
  IPG_VM_NEXT();

  IPG_VM_CASE(Ne)
  T1 = *--SP;
  SP[-1] = SP[-1] != T1 ? 1 : 0;
  IPG_VM_NEXT();

  IPG_VM_CASE(Lt)
  T1 = *--SP;
  SP[-1] = SP[-1] < T1 ? 1 : 0;
  IPG_VM_NEXT();

  IPG_VM_CASE(Gt)
  T1 = *--SP;
  SP[-1] = SP[-1] > T1 ? 1 : 0;
  IPG_VM_NEXT();

  IPG_VM_CASE(Le)
  T1 = *--SP;
  SP[-1] = SP[-1] <= T1 ? 1 : 0;
  IPG_VM_NEXT();

  IPG_VM_CASE(Ge)
  T1 = *--SP;
  SP[-1] = SP[-1] >= T1 ? 1 : 0;
  IPG_VM_NEXT();

  IPG_VM_CASE(Shl)
  T1 = *--SP;
  if (!ipg_rt::checkedShl(SP[-1], T1, Guarded))
    IPG_VM_FAIL();
  SP[-1] = Guarded;
  IPG_VM_NEXT();

  IPG_VM_CASE(Shr)
  T1 = *--SP;
  if (!ipg_rt::checkedShr(SP[-1], T1, Guarded))
    IPG_VM_FAIL();
  SP[-1] = Guarded;
  IPG_VM_NEXT();

  IPG_VM_CASE(BitAnd)
  T1 = *--SP;
  SP[-1] &= T1;
  IPG_VM_NEXT();

  IPG_VM_CASE(Bool)
  SP[-1] = SP[-1] != 0 ? 1 : 0;
  IPG_VM_NEXT();

  IPG_VM_CASE(BrFalse)
  T1 = *--SP;
  if (T1 == 0) {
    *SP++ = 0;
    IPG_VM_JUMP(Code[PC].A);
  }
  IPG_VM_NEXT();

  IPG_VM_CASE(BrTrue)
  T1 = *--SP;
  if (T1 != 0) {
    *SP++ = 1;
    IPG_VM_JUMP(Code[PC].A);
  }
  IPG_VM_NEXT();

  IPG_VM_CASE(JmpZero)
  T1 = *--SP;
  if (T1 == 0)
    IPG_VM_JUMP(Code[PC].A);
  IPG_VM_NEXT();

  IPG_VM_CASE(Jmp)
  IPG_VM_JUMP(Code[PC].A);

  IPG_VM_CASE(LoadAttr)
  if (!loadAttr(F, Code[PC].Sym, T1))
    IPG_VM_FAIL();
  *SP++ = T1;
  IPG_VM_NEXT();

  IPG_VM_CASE(LoadNtAttr)
  if (!loadNtAttr(F, Code[PC].Sym, Code[PC].Attr, T1))
    IPG_VM_FAIL();
  *SP++ = T1;
  IPG_VM_NEXT();

  IPG_VM_CASE(LoadElemAttr) {
    T1 = *--SP; // element index
    const ArrayTree *A = findArray(F, Code[PC].Sym);
    if (!A || T1 < 0 || static_cast<size_t>(T1) >= A->size())
      IPG_VM_FAIL();
    const NodeTree *Nd = A->element(static_cast<size_t>(T1));
    if (!Nd)
      IPG_VM_FAIL();
    auto V = Nd->attr(Code[PC].Attr);
    if (!V)
      IPG_VM_FAIL();
    *SP++ = *V;
  }
  IPG_VM_NEXT();

  IPG_VM_CASE(LoadEoi)
  *SP++ = static_cast<int64_t>(F.Input.size());
  IPG_VM_NEXT();

  IPG_VM_CASE(LoadTermEnd)
  if (!F.termEnd(static_cast<uint32_t>(Code[PC].Imm), T1))
    IPG_VM_FAIL();
  *SP++ = T1;
  IPG_VM_NEXT();

  IPG_VM_CASE(ReadFixed)
  T1 = *--SP; // offset
  {
    int64_t V = 0;
    if (!readInput(F, Code[PC].A, T1, /*Hi=*/0, V))
      IPG_VM_FAIL();
    *SP++ = V;
  }
  IPG_VM_NEXT();

  IPG_VM_CASE(ReadRange) {
    T1 = *--SP; // hi
    const int64_t Lo = *--SP;
    int64_t V = 0;
    if (!readInput(F, Code[PC].A, Lo, T1, V))
      IPG_VM_FAIL();
    *SP++ = V;
  }
  IPG_VM_NEXT();

  IPG_VM_CASE(Exists) {
    // evalExists re-enters evalProgram: commit this window so the
    // nested activations stack above it, and re-derive the pointers
    // afterwards (nested growth may have reallocated the vector).
    const size_t Live = static_cast<size_t>(SP - BP);
    St.VTop = Base + Live;
    const bool Ok = evalExists(F, Code[PC].A, T1);
    St.VTop = Base;
    BP = S.data() + Base;
    SP = BP + Live;
    if (!Ok)
      IPG_VM_FAIL();
  }
  *SP++ = T1;
  IPG_VM_NEXT();

#if !defined(__GNUC__) && !defined(__clang__)
  }
  goto vm_top; // unreachable; keeps the switch well-formed
#endif

vm_done:
  // Stack balance is a lowering invariant (simulate() proved every
  // path leaves exactly one value); asserts, not runtime checks.
  assert(SP == BP + 1 && "expression program must leave 1 value");
  Out = SP[-1];
  return true;

#undef IPG_VM_CASE
#undef IPG_VM_NEXT
#undef IPG_VM_JUMP
#undef IPG_VM_FAIL
}

void ProgramEval::decode(const lir::Module &L, std::vector<QE> &Quick) {
  Quick.resize(L.Exprs.size());
  for (uint32_t Id = 0; Id < Quick.size(); ++Id)
    Quick[Id] = classifyExpr(L, Id);
}

BytecodeVM::BytecodeVM(const Grammar &G, const BlackboxRegistry *Blackboxes,
                       EngineOptions Opts)
    : InProcessEngine(G, Blackboxes, Opts) {
  // Fold every expression program into its quick form once (see
  // BytecodeVM.h): the dispatch loop then only runs for the few programs
  // that genuinely need an operand stack.
  ProgramEval::decode(S->Lowered, Quick);
}

BytecodeVM::~BytecodeVM() = default;

Expected<TreePtr> BytecodeVM::run(ByteSpan Input, RuleId Start) {
  return ParseSkeleton<ProgramEval>(G, Opts, Stats, *S,
                                    ProgramEval(*S, Quick),
                                    HasDeadline, Deadline)
      .run(Input, Start);
}
