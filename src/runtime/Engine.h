//===- runtime/Engine.h - Abstract parse-engine facade ----------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-mode seam. The repo carries more than one proven-
/// equivalent implementation of the paper's semantics — the interpreter
/// (runtime/Interp.h), the bytecode VM (vm/BytecodeVM.h), and compiled
/// generated parsers (codegen/GenEngine.h). Engine is the single
/// interface the service layer, the tests, and the benches program
/// against, so a new execution mode slots in without touching any
/// caller. The two in-process modes share one shell, InProcessEngine.
///
/// Contract, shared by every implementation:
///
///  - One engine instance per thread. parse() recycles instance-local
///    pools (tree store, memo table, frames) and the returned TreePtr's
///    refcount is plain, so neither the engine nor its trees may be
///    touched from two threads. Cross-thread handoff of a RESULT goes
///    through TreePtr::detach() -> FrozenTree (runtime/ParseTree.h).
///
///  - stats() describes the most recent parse() call, even one that
///    failed before doing any work (counters reset at parse entry).
///
///  - The engine borrows the Grammar (and, for the in-process modes, the
///    BlackboxRegistry); the caller keeps both alive for the engine's
///    lifetime. Grammars are immutable while engines run, so any number
///    of engines on any number of threads may share one Grammar.
///
/// makeEngine() is the one factory every caller funnels through:
///
///   auto E = makeEngine(EngineKind::Interp, G, &Blackboxes);
///   auto T = (*E)->parse(Input);
///
/// EngineKind::Generated emits, compiles (host `c++ -shared`), and
/// dlopens a generated parser behind the same interface; blackbox
/// formats additionally pass the format's GenModuleConfig (see
/// codegen/GenEngine.h, or use formats::makeFormatEngine which wires it
/// automatically).
///
//===----------------------------------------------------------------------===//

#ifndef IPG_RUNTIME_ENGINE_H
#define IPG_RUNTIME_ENGINE_H

#include "grammar/Grammar.h"
#include "runtime/Blackbox.h"
#include "runtime/EngineOptions.h"
#include "runtime/ParseTree.h"
#include "support/Bytes.h"
#include "support/Result.h"

#include <chrono>
#include <memory>

namespace ipg {

struct GenModuleConfig; // codegen/GenEngine.h

enum class EngineKind {
  Interp,    ///< the big-step interpreter (runtime/Interp.h)
  Generated, ///< a compiled generated parser loaded in-process
  Vm,        ///< the bytecode VM over the lowered IR (vm/BytecodeVM.h)
};

/// Spelling for logs/bench entry names ("interp" / "generated" / "vm").
const char *engineKindName(EngineKind K);

class Engine {
public:
  virtual ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Parses \p Input from the grammar's start symbol. On success the
  /// engine MOVES its tree store into the returned TreePtr; dropping the
  /// result on this thread parks the store for allocation-free reuse,
  /// and TreePtr::detach() instead freezes it for cross-thread handoff.
  virtual Expected<TreePtr> parse(ByteSpan Input) = 0;

  /// Counters of the most recent parse() (reset at its entry, so a parse
  /// that failed early still reports its own — empty — numbers).
  virtual const EngineStats &stats() const = 0;

  virtual const Grammar &grammar() const = 0;

  virtual EngineKind kind() const = 0;

  /// Offers a store previously detached from SOME engine (a FrozenTree's
  /// store coming home after a cross-thread trip) for this engine's
  /// recycler. Returns true when the engine adopted it (taking
  /// ownership); false leaves ownership with the caller (destroy it or
  /// keep it for another engine). Call only on the engine's thread.
  virtual bool adoptStore(TreeStore *S) { return false; }

  /// Arms a deadline every subsequent parse() checks at recoverable
  /// boundaries (rule entry / machine act start, amortized): a parse past
  /// it aborts with a clean Verdict::Timeout instead of running
  /// unbounded. The deadline stays armed until clearDeadline(). Returns
  /// false when the engine does not support deadlines (generated
  /// parsers), leaving it unarmed.
  virtual bool setDeadline(std::chrono::steady_clock::time_point) {
    return false;
  }
  virtual void clearDeadline() {}

protected:
  Engine() = default;
};

/// Reusable in-process engine state (runtime/ParseScratch.h), held behind
/// unique_ptr so the hot-path types stay out of public headers.
struct ParseScratch;

/// The shell both in-process engines share — the interpreter
/// (runtime/Interp.h) and the bytecode VM (vm/BytecodeVM.h). It lowers the
/// grammar once at construction, resolves the start rule, resets stats,
/// recycles the tree store, and carries the deadline. Each parse then runs
/// the one parse skeleton (runtime/ParseSkeleton.h) with the subclass's
/// expression evaluator; that choice is all a subclass supplies.
class InProcessEngine : public Engine {
public:
  ~InProcessEngine() override;

  /// Parses from the grammar's start symbol.
  Expected<TreePtr> parse(ByteSpan Input) override;
  /// Parses from an explicit (global) start nonterminal.
  Expected<TreePtr> parse(ByteSpan Input, Symbol StartNT);

  /// Statistics of the most recent parse() call.
  const EngineStats &stats() const override { return Stats; }

  const Grammar &grammar() const override { return G; }

  /// Adopts a store coming home from a FrozenTree round trip: re-binds
  /// it to this engine's recycler and parks it for the next parse().
  /// Declines (returns false) when a parked store already waits.
  bool adoptStore(TreeStore *Store) override;

  /// Deadline support (checked at rule entries / flattened levels /
  /// machine act starts, amortized): a parse past the armed deadline
  /// aborts with Verdict::Timeout.
  bool setDeadline(std::chrono::steady_clock::time_point D) override {
    HasDeadline = true;
    Deadline = D;
    return true;
  }
  void clearDeadline() override { HasDeadline = false; }

protected:
  /// Lowers \p G and resolves its blackbox call sites against
  /// \p Blackboxes (lower/LIR.h).
  InProcessEngine(const Grammar &G, const BlackboxRegistry *Blackboxes,
                  EngineOptions Opts);

  /// Runs one parse of rule \p Start once parse() has prepared the
  /// scratch state: the parse skeleton with this engine's evaluator.
  virtual Expected<TreePtr> run(ByteSpan Input, RuleId Start) = 0;

  const Grammar &G;
  EngineOptions Opts;
  EngineStats Stats;
  std::unique_ptr<ParseScratch> S;
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point Deadline{};
};

/// The one engine factory. \p Blackboxes is consulted by the in-process
/// modes — interpreter and bytecode VM — only (generated parsers bind
/// decoders through their GenModuleConfig); \p GenConfig parameterizes
/// EngineKind::Generated compiles and is ignored by the other modes.
/// Fails when the requested mode cannot be built (e.g. Generated without
/// a host compiler).
Expected<std::unique_ptr<Engine>>
makeEngine(EngineKind Kind, const Grammar &G,
           const BlackboxRegistry *Blackboxes = nullptr,
           const EngineOptions &Opts = {},
           const GenModuleConfig *GenConfig = nullptr);

} // namespace ipg

#endif // IPG_RUNTIME_ENGINE_H
