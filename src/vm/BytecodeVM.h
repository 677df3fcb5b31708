//===- vm/BytecodeVM.h - bytecode parsing VM --------------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third proven-equivalent execution mode: a bytecode VM that runs the
/// lowered module (lower/LIR.h) directly. It is the parse skeleton it
/// shares with the interpreter (runtime/ParseSkeleton.h) — three-tier
/// execution (Direct recursion, Flattened descend-replay, Step work-stack
/// machine), salvage, deadlines, diagnostics, counters, and the runtime
/// core (arena TreeStore, FlatIntervalMap memo, frame pool, store
/// recycler; runtime/ParseScratch.h) — run with the ProgramEval policy
/// (vm/ProgramEval.h). So its trees, counters (nodes, terms, memo traffic,
/// PeakDepth), hard-error texts, and allocation profile are the
/// interpreter's by construction; tests/differential_test.cpp still locks
/// all three modes against each other, and tests/vm_test.cpp compares
/// every expression evaluation of the two policies in lockstep.
///
/// Where the interpreter tree-walks source expressions through
/// expr/Eval.h on every evaluation, the VM executes the compiled postfix
/// programs lir::lower() produced once per grammar: a computed-goto
/// dispatch loop (switch fallback on non-GNU compilers) over a persistent
/// operand stack, with short-circuit logic compiled to structured forward
/// jumps.
///
/// The profiled hot path is not the dispatch loop but how often it is
/// ENTERED: a parse evaluates tens of thousands of interval-endpoint
/// programs, and almost all of them are affine in at most one value the
/// parse supplies — a constant, EOI, an attribute, a sibling's attribute,
/// a term's recorded end, or a fixed-width read at a constant or
/// attribute-relative offset. The engine therefore folds every program
/// ONCE at construction into a QuickExpr, `Mul * load + Imm`, which the
/// evaluator computes directly with no operand stack and no dispatch;
/// only programs outside that form pay for the loop. This is the VM's
/// speed advantage over the interpreter, which re-walks the expression
/// tree on every evaluation.
///
/// The memory discipline, depth-free contract (grammar recursion bounded
/// by EngineOptions::MaxDepth alone, never the C stack), and the
/// one-engine-per-thread rule are the skeleton's, shared with the
/// interpreter; see runtime/Interp.h for the long-form contract.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_VM_BYTECODEVM_H
#define IPG_VM_BYTECODEVM_H

#include "grammar/Grammar.h"
#include "runtime/Blackbox.h"
#include "runtime/Engine.h"
#include "runtime/EngineOptions.h"
#include "runtime/ParseTree.h"
#include "support/Bytes.h"
#include "support/Result.h"

#include <cstdint>
#include <vector>

namespace ipg {

/// One engine instance per (grammar, options); same recycling and
/// threading contract as Interp. Blackboxes resolve against the registry
/// once at construction (through the lowered module's call-site table).
class BytecodeVM : public InProcessEngine {
public:
  explicit BytecodeVM(const Grammar &G,
                      const BlackboxRegistry *Blackboxes = nullptr,
                      EngineOptions Opts = EngineOptions());
  ~BytecodeVM() override;

  EngineKind kind() const override { return EngineKind::Vm; }

  /// The closed form of one expression program, folded once at engine
  /// construction (see the file comment): Out = Mul * load + Imm in
  /// wrapping (mod 2^64) arithmetic, with at most one load. The fold is
  /// exact — the dispatch loop's + - * wrap too — and with a single load
  /// the program fails exactly when that load fails, so the evaluator may
  /// take either path.
  struct QuickExpr {
    enum Kind : uint8_t {
      General, ///< no closed form; run the dispatch loop
      Const,   ///< no load: Out = Imm
      Eoi,     ///< load |input|
      Attr,    ///< load attribute Sym (binds, then lexical chain)
      NtAttr,  ///< load attribute A of the latest sibling node Sym
      TermEnd, ///< load the end of term A's recorded interval
      Read,    ///< load a fixed-width read (spec A) at offset Off, plus
               ///< attribute Sym when ReadAtAttr
    };
    Kind K = General;
    bool ReadAtAttr = false;
    uint32_t A = 0;   ///< read width|endian spec (width in the low byte,
                      ///< bit 8 = big-endian), term index, or attribute
    Symbol Sym = 0;   ///< attribute or nonterminal symbol
    int64_t Mul = 1;  ///< factor on the load (unused by Const)
    int64_t Imm = 0;  ///< addend
    int64_t Off = 0;  ///< read offset, or its addend to attribute Sym
  };

private:
  Expected<TreePtr> run(ByteSpan Input, RuleId Start) override;

  std::vector<QuickExpr> Quick; ///< indexed by lir::ExprId
};

} // namespace ipg

#endif // IPG_VM_BYTECODEVM_H
