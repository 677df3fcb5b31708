//===- vm/ProgramEval.h - the VM's expression evaluator ---------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode VM's evaluator policy for the parse skeleton
/// (runtime/ParseSkeleton.h): it executes the compiled postfix programs
/// of the lowered module instead of tree-walking source expressions.
/// Every program is first folded into its QuickExpr (vm/BytecodeVM.h),
/// `Mul * load + Imm`: the decoder (classifyExpr) interprets the postfix
/// program over abstract values of that form, folding `+ - *` wherever
/// at most one operand carries a load and turning a fixed-width read at
/// a constant or `attribute + constant` offset into the Read load. Any
/// other opcode, a second load, or a stack deeper than the fold tracks
/// leaves the program General, and only General programs run the
/// computed-goto dispatch loop.
///
/// This header holds the class and the small hot-path pieces that must
/// inline into the skeleton's term execution sites. The decoder, the
/// outlined loads and the dispatch loop are defined in
/// vm/BytecodeVM.cpp. Like ParseSkeleton.h, an implementation
/// detail of the in-process engines.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_VM_PROGRAMEVAL_H
#define IPG_VM_PROGRAMEVAL_H

#include "lower/LIR.h"
#include "runtime/ParseScratch.h"
#include "runtime/ParseTree.h"
#include "support/Casting.h"
#include "support/GenRuntime.h"
#include "vm/BytecodeVM.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ipg {

/// Expression bytecode evaluation. Partiality (absent attribute, guarded
/// arithmetic, out-of-bounds read) returns false — the program fails as
/// a whole, exactly as expr/Eval.h's std::nullopt does.
class ProgramEval {
public:
  using Frame = ParseScratch::Frame;
  using QE = BytecodeVM::QuickExpr;

  ProgramEval(ParseScratch &St, const std::vector<QE> &Quick)
      : L(St.Lowered), St(St), Store(*St.Cur), Quick(Quick) {}

  /// Folds every program of \p L into its quick form (General when the
  /// fold does not apply), once per engine.
  static void decode(const lir::Module &L, std::vector<QE> &Quick);

  // The evaluator policy (see runtime/ParseSkeleton.h).
  bool interval(const Frame &F, const lir::IntervalL &Iv, int64_t &Lo,
                int64_t &Hi) {
    return evalProgram(F, Iv.Lo, Lo) && evalProgram(F, Iv.Hi, Hi);
  }
  bool value(const Frame &F, const lir::TermL &T, int64_t &Out) {
    return evalProgram(F, T.E0, Out);
  }
  bool bounds(const Frame &F, const lir::TermL &T, int64_t &From,
              int64_t &To) {
    return evalProgram(F, T.E0, From) && evalProgram(F, T.E1, To);
  }
  bool cond(const Frame &F, const lir::ArmL &A, int64_t &Out) {
    return evalProgram(F, A.Cond, Out);
  }

private:
  const lir::Module &L;
  ParseScratch &St;
  const TreeStore &Store;
  const std::vector<QE> &Quick;

  /// Executes one compiled program. Nearly every program a parse runs
  /// folds to a quick form, so that is tried first: compute the load,
  /// then `Mul * load + Imm`. The loads that need at most a two-compare
  /// helper (none, EOI, a term's recorded end, and an attribute found in
  /// the executing frame with no exists-scan binding active — between
  /// them almost every sequential-layout endpoint) are resolved right
  /// here; this small body inlines into the hot term-execution sites.
  /// Everything else goes through the outlined evalQuickRest.
  bool evalProgram(const Frame &F, lir::ExprId Id, int64_t &Out) {
    const QE &Q = Quick[Id];
    int64_t V = 0;
    switch (Q.K) {
    case QE::Const:
      Out = Q.Imm;
      return true;
    case QE::Eoi:
      V = static_cast<int64_t>(F.Input.size());
      break;
    case QE::TermEnd:
      if (!F.termEnd(Q.A, V))
        return false;
      break;
    case QE::Attr:
      // A miss falls through to the full binds-then-lexical-chain lookup.
      if (St.Binds.empty())
        if (auto P = F.E.get(Q.Sym)) {
          V = *P;
          break;
        }
      return evalQuickRest(F, Q, Id, Out);
    default:
      return evalQuickRest(F, Q, Id, Out);
    }
    Out = affine(Q, V);
    return true;
  }

  /// The one evaluation formula of every quick form but Const.
  static int64_t affine(const QE &Q, int64_t Load) {
    return ipg_rt::wrapAdd(ipg_rt::wrapMul(Q.Mul, Load), Q.Imm);
  }

  /// The loads evalProgram does not inline (a full attribute lookup, a
  /// sibling attribute, a read); General runs the dispatch loop.
  /// Outlined so evalProgram stays small enough to inline.
  bool evalQuickRest(const Frame &F, const QE &Q, lir::ExprId Id,
                     int64_t &Out);

  /// The dispatch loop for General programs.
  bool evalGeneral(const Frame &F, lir::ExprId Id, int64_t &Out);

  /// `exists j . C ? T : E` over the statically identified array.
  bool evalExists(const Frame &F, uint32_t Idx, int64_t &Out);

  /// The exists-scan binding stack (innermost first), then the frame's
  /// lexical chain — the flattened form of Eval.cpp's ScopedBinding
  /// wrappers, which override attribute lookup only.
  bool loadAttr(const Frame &F, Symbol Id, int64_t &Out) const {
    for (size_t I = St.Binds.size(); I-- > 0;)
      if (St.Binds[I].Var == Id) {
        Out = St.Binds[I].Value;
        return true;
      }
    for (const Frame *Lx = &F; Lx; Lx = Lx->Lexical)
      if (auto V = Lx->E.get(Id)) {
        Out = *V;
        return true;
      }
    return false;
  }

  /// Latest sibling node named \p NT across the lexical chain; the search
  /// stops at the first NAME match (its attribute may still be absent),
  /// mirroring the interpreter's FrameCtx::ntAttr.
  bool loadNtAttr(const Frame &F, Symbol NT, Symbol Attr,
                  int64_t &Out) const {
    for (const Frame *Lx = &F; Lx; Lx = Lx->Lexical)
      for (size_t I = Lx->ChildIds.size(); I-- > 0;)
        if (const auto *N = dyn_cast<NodeTree>(Store.node(Lx->ChildIds[I])))
          if (N->name() == NT) {
            if (auto V = N->attr(Attr)) {
              Out = *V;
              return true;
            }
            return false;
          }
    return false;
  }

  const ArrayTree *findArray(const Frame &F, Symbol NT) const {
    for (const Frame *Lx = &F; Lx; Lx = Lx->Lexical)
      for (size_t I = Lx->ChildIds.size(); I-- > 0;)
        if (const auto *A = dyn_cast<ArrayTree>(Store.node(Lx->ChildIds[I])))
          if (A->elemName() == NT)
            return A;
    return nullptr;
  }

  /// Width/endianness and the bounds guards live in the shared runtime
  /// (the generated parsers call the same functions).
  bool readInput(const Frame &F, uint32_t RK, int64_t Lo, int64_t Hi,
                 int64_t &Out) const {
    long long Width = 0;
    bool BigEndian = false;
    if (!ipg_rt::readKindSpec(RK, Width, BigEndian) &&
        !ipg_rt::btoiWidth(Lo, Hi, Width)) // btoi(lo, hi) window
      return false;
    long long V = 0;
    if (!ipg_rt::readScalar(F.Input.data(),
                            static_cast<long long>(F.Input.size()), Lo,
                            Width, BigEndian, V))
      return false;
    Out = static_cast<int64_t>(V);
    return true;
  }

  /// Fixed-width read for the Read load. \p Spec is the pre-resolved
  /// width|endian encoding classifyExpr derived from the ReadKind
  /// (readKindSpec ran once at engine construction), so each case calls
  /// readScalar with compile-time width and endianness — the byte loop
  /// unrolls to a plain load. Bounds behavior is readScalar's, exactly as
  /// the dispatch loop's ReadFixed.
  bool readFixedQuick(const Frame &F, uint32_t Spec, int64_t Off,
                      int64_t &Out) const {
    const unsigned char *B = F.Input.data();
    const long long N = static_cast<long long>(F.Input.size());
    long long V = 0;
    bool Ok = false;
    switch (Spec) {
    case 1:
      Ok = ipg_rt::readScalar(B, N, Off, 1, false, V);
      break;
    case 2:
      Ok = ipg_rt::readScalar(B, N, Off, 2, false, V);
      break;
    case 4:
      Ok = ipg_rt::readScalar(B, N, Off, 4, false, V);
      break;
    case 8:
      Ok = ipg_rt::readScalar(B, N, Off, 8, false, V);
      break;
    case 2 | 0x100:
      Ok = ipg_rt::readScalar(B, N, Off, 2, true, V);
      break;
    case 4 | 0x100:
      Ok = ipg_rt::readScalar(B, N, Off, 4, true, V);
      break;
    default:
      break; // unreachable: classifyExpr only emits the specs above
    }
    if (!Ok)
      return false;
    Out = V;
    return true;
  }
};

} // namespace ipg

#endif // IPG_VM_PROGRAMEVAL_H
