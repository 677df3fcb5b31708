//===- runtime/Interp.h - IPG parsing engine --------------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter: the in-process engine implementing the big-step
/// semantics of Figures 8 and 15 — biased choice over alternatives,
/// interval-confined subparsers, the start/end/EOI special attributes,
/// arrays, predicates, and the full-language features (switch, local
/// rules, existentials, blackboxes).
///
/// It is the one parse skeleton (runtime/ParseSkeleton.h) that it shares
/// with the bytecode VM, run with the AstEval policy: every expression is
/// tree-walked from its source AST through expr/Eval.h. That keeps the
/// interpreter independent of the lowering's expression compiler, so it
/// stays the oracle the VM's compiled programs are checked against.
/// Everything else — tiers, memoization, salvage, counters, the contracts
/// below — is the skeleton's, and so identical in both engines.
///
/// Memoization keys on (rule, absolute slice) as described in Section 3.3,
/// giving the O(n^2) bound; it can be disabled for ablation. The table is
/// an open-addressing flat hash over a 128-bit packed key
/// (ipg_rt::FlatIntervalMap in support/GenRuntime.h, which generated
/// parsers embed too), not a node-based map. Local (where-clause) rules
/// are never memoized because their meaning depends on the enclosing
/// frame, and leaf rules (no subparser-spawning term;
/// ruleSpawnsSubparsers) are skipped because re-matching them is cheaper
/// than a table probe — both halves of the policy are shared with the
/// code generator.
///
/// Hot-path memory discipline: parse trees are built in an arena-backed
/// TreeStore, per-depth frame scratch lives in a pool, and the memo table
/// keeps its capacity across parses. A parse allocates from the heap only
/// while these structures first grow; once the caller drops the previous
/// TreePtr before the next parse() the engine recycles the store and
/// steady-state parsing performs no heap allocation (stats().StoreRecycled
/// reports whether that happened). A successful parse() MOVES store
/// ownership into the returned TreePtr (an intrusive plain refcount — no
/// shared_ptr, no atomics, no per-parse refcount traffic); a dying
/// TreePtr parks its store in the engine's recycler for the next parse.
/// Holding a TreePtr simply makes the next parse() start a fresh store —
/// older trees are never invalidated, and they may outlive the engine.
/// Trees must be shared and released on the engine's thread (the same
/// one-per-thread contract the engine itself has).
///
/// Nontermination handling: the formal semantics simply diverges on
/// grammars that fail termination checking; a practical engine cannot.
/// analysis/Termination rejects such grammars before they run, and
/// MaxDepth caps whatever is left: tripping it aborts the whole parse with
/// a hard error in every engine (covered by dedicated tests).
///
//===----------------------------------------------------------------------===//

#ifndef IPG_RUNTIME_INTERP_H
#define IPG_RUNTIME_INTERP_H

#include "grammar/Grammar.h"
#include "runtime/Blackbox.h"
#include "runtime/Engine.h"
#include "runtime/EngineOptions.h"
#include "runtime/ParseTree.h"
#include "support/Bytes.h"
#include "support/Result.h"

namespace ipg {

/// One engine instance per (grammar, options); parse() may be called many
/// times and results are independent, but the instance recycles its
/// internal storage across calls — see the memory-discipline notes above.
/// Not copyable; create one per thread (or through makeEngine /
/// ParseService, which enforce that).
class Interp : public InProcessEngine {
public:
  explicit Interp(const Grammar &G,
                  const BlackboxRegistry *Blackboxes = nullptr,
                  EngineOptions Opts = EngineOptions());
  ~Interp() override;

  EngineKind kind() const override { return EngineKind::Interp; }

private:
  Expected<TreePtr> run(ByteSpan Input, RuleId Start) override;
};

} // namespace ipg

#endif // IPG_RUNTIME_INTERP_H
