//===- runtime/Interp.cpp -------------------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The interpreter is the parse skeleton (runtime/ParseSkeleton.h) run with
// the AstEval policy, defined here: each expression is tree-walked from
// the source AST the lowered module points at, through expr/Eval.h.
//
//===----------------------------------------------------------------------===//

#include "runtime/Interp.h"

#include "expr/Eval.h"
#include "lower/LIR.h"
#include "runtime/ParseScratch.h"
#include "runtime/ParseSkeleton.h"
#include "support/Casting.h"
#include "support/GenRuntime.h"

#include <cstddef>
#include <cstdint>
#include <optional>

using namespace ipg;

namespace {

using Frame = ParseScratch::Frame;

/// EvalContext view of a Frame (sigma of Figure 8). Child trees are stored
/// as ids; the store resolves them.
class FrameCtx : public EvalContext {
public:
  FrameCtx(const Frame &F, const TreeStore &Store) : F(F), Store(Store) {}

  std::optional<int64_t> attr(Symbol Id) const override {
    for (const Frame *L = &F; L; L = L->Lexical)
      if (auto V = L->E.get(Id))
        return V;
    return std::nullopt;
  }

  std::optional<int64_t> ntAttr(Symbol NT, Symbol Attr) const override {
    for (const Frame *L = &F; L; L = L->Lexical)
      for (size_t I = L->ChildIds.size(); I-- > 0;)
        if (const auto *N = dyn_cast<NodeTree>(Store.node(L->ChildIds[I])))
          if (N->name() == NT)
            return N->attr(Attr);
    return std::nullopt;
  }

  std::optional<int64_t> elemAttr(Symbol NT, int64_t Index,
                                  Symbol Attr) const override {
    const ArrayTree *A = findArray(NT);
    if (!A || Index < 0 || static_cast<size_t>(Index) >= A->size())
      return std::nullopt;
    const NodeTree *N = A->element(static_cast<size_t>(Index));
    return N ? N->attr(Attr) : std::nullopt;
  }

  std::optional<int64_t> arrayLength(Symbol NT) const override {
    const ArrayTree *A = findArray(NT);
    if (!A)
      return std::nullopt;
    return static_cast<int64_t>(A->size());
  }

  std::optional<int64_t> eoi() const override {
    return static_cast<int64_t>(F.Input.size());
  }

  std::optional<int64_t> termEnd(uint32_t TermIdx) const override {
    int64_t Out = 0;
    if (!F.termEnd(TermIdx, Out))
      return std::nullopt;
    return Out;
  }

  std::optional<int64_t> readInput(ReadKind RK, int64_t Lo,
                                   int64_t Hi) const override {
    // Width/endianness and the bounds guards live in the shared runtime
    // (the generated parsers call the same functions).
    long long Width = 0;
    bool BigEndian = false;
    if (!ipg_rt::readKindSpec(static_cast<unsigned>(RK), Width, BigEndian) &&
        !ipg_rt::btoiWidth(Lo, Hi, Width)) // btoi(lo, hi) window
      return std::nullopt;
    long long Out = 0;
    if (!ipg_rt::readScalar(F.Input.data(),
                            static_cast<long long>(F.Input.size()), Lo,
                            Width, BigEndian, Out))
      return std::nullopt;
    return static_cast<int64_t>(Out);
  }

private:
  const Frame &F;
  const TreeStore &Store;

  const ArrayTree *findArray(Symbol NT) const {
    for (const Frame *L = &F; L; L = L->Lexical)
      for (size_t I = L->ChildIds.size(); I-- > 0;)
        if (const auto *A = dyn_cast<ArrayTree>(Store.node(L->ChildIds[I])))
          if (A->elemName() == NT)
            return A;
    return nullptr;
  }
};

} // namespace

bool AstEval::interval(const Frame &F, const lir::IntervalL &Iv, int64_t &Lo,
                       int64_t &Hi) {
  FrameCtx Ctx(F, Store);
  auto L = evaluate(*Iv.Src->Lo, Ctx);
  if (!L)
    return false;
  auto H = evaluate(*Iv.Src->Hi, Ctx);
  if (!H)
    return false;
  Lo = *L;
  Hi = *H;
  return true;
}

bool AstEval::value(const Frame &F, const lir::TermL &T, int64_t &Out) {
  const Expr &E = T.Op == lir::TermOp::SetAttr
                      ? *cast<AttrDefTerm>(T.Src)->Value
                      : *cast<PredicateTerm>(T.Src)->Cond;
  auto V = evaluate(E, FrameCtx(F, Store));
  if (!V)
    return false;
  Out = *V;
  return true;
}

bool AstEval::bounds(const Frame &F, const lir::TermL &T, int64_t &From,
                     int64_t &To) {
  const auto &A = *cast<ArrayTerm>(T.Src);
  FrameCtx Ctx(F, Store);
  auto Lo = evaluate(*A.From, Ctx);
  auto Hi = evaluate(*A.To, Ctx);
  if (!Lo || !Hi)
    return false;
  From = *Lo;
  To = *Hi;
  return true;
}

bool AstEval::cond(const Frame &F, const lir::ArmL &A, int64_t &Out) {
  auto V = evaluate(*A.Src->Cond, FrameCtx(F, Store));
  if (!V)
    return false;
  Out = *V;
  return true;
}

Interp::Interp(const Grammar &G, const BlackboxRegistry *Blackboxes,
               EngineOptions Opts)
    : InProcessEngine(G, Blackboxes, Opts) {}

Interp::~Interp() = default;

Expected<TreePtr> Interp::run(ByteSpan Input, RuleId Start) {
  return ParseSkeleton<AstEval>(G, Opts, Stats, *S, AstEval(*S->Cur),
                                HasDeadline, Deadline)
      .run(Input, Start);
}
