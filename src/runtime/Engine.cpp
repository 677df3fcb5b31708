//===- runtime/Engine.cpp - engine factory --------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Engine.h"
#include "codegen/GenEngine.h"
#include "runtime/Interp.h"
#include "runtime/ParseScratch.h"
#include "vm/BytecodeVM.h"

#include <memory>
#include <string>
#include <utility>

using namespace ipg;

Engine::~Engine() = default;

InProcessEngine::InProcessEngine(const Grammar &G,
                                 const BlackboxRegistry *Blackboxes,
                                 EngineOptions Opts)
    : G(G), Opts(Opts), S(std::make_unique<ParseScratch>()) {
  // One lowering per engine: the shared resolution layer (rule targets,
  // literals, expression programs, recursion shapes, memo eligibility,
  // blackbox sites) all execution modes consume. See lower/LIR.h.
  S->bindGrammar(G, Blackboxes);
}

InProcessEngine::~InProcessEngine() = default;

Expected<TreePtr> InProcessEngine::parse(ByteSpan Input) {
  return parse(Input, G.startSymbol());
}

Expected<TreePtr> InProcessEngine::parse(ByteSpan Input, Symbol StartNT) {
  // Reset FIRST: stats() must describe this call even when it fails
  // before doing any work (a stale-stats regression lives in
  // tests/engine_test.cpp and is asserted by the differential harness).
  Stats = EngineStats();
  RuleId Start = StartNT == G.startSymbol()
                     ? S->Lowered.Start
                     : S->Lowered.globalRuleOf(StartNT);
  if (Start == InvalidRuleId) {
    Stats.FailRule = StartNT;
    Stats.FailOffset = Input.absBase();
    return Expected<TreePtr>::failure(
        "start nonterminal '" +
        std::string(G.interner().name(StartNT)) + "' has no rule");
  }
  // Recycle a store when one is available: either the engine still holds
  // one (the previous parse failed, so no result escaped) or a dropped
  // TreePtr parked its store in the recycler. Otherwise — first parse, or
  // every previous tree is still alive — this parse gets a fresh store.
  S->beginParse(Stats);
  return run(Input, Start);
}

bool InProcessEngine::adoptStore(TreeStore *Store) { return S->adopt(Store); }

const char *ipg::engineKindName(EngineKind K) {
  switch (K) {
  case EngineKind::Interp:
    return "interp";
  case EngineKind::Generated:
    return "generated";
  case EngineKind::Vm:
    return "vm";
  }
  return "unknown";
}

Expected<std::unique_ptr<Engine>>
ipg::makeEngine(EngineKind Kind, const Grammar &G,
                const BlackboxRegistry *Blackboxes, const EngineOptions &Opts,
                const GenModuleConfig *GenConfig) {
  using Ret = Expected<std::unique_ptr<Engine>>;
  switch (Kind) {
  case EngineKind::Interp:
    return Ret(std::make_unique<Interp>(G, Blackboxes, Opts));
  case EngineKind::Vm:
    return Ret(std::make_unique<BytecodeVM>(G, Blackboxes, Opts));
  case EngineKind::Generated: {
    // Generated parsers compile Strict-mode control flow in; salvage
    // would need a regenerated module with recovery dispatch, which the
    // emitter does not produce. Refuse rather than silently parse Strict.
    if (Opts.Recovery == RecoveryPolicy::Salvage)
      return Ret::failure("generated parsers do not support "
                          "RecoveryPolicy::Salvage; use the interpreter or "
                          "bytecode VM");
    // The module compiles the memoization policy in and the engine
    // applies the depth limit; blackboxes bind through GenConfig's bridge
    // source, not the host registry.
    auto M = GenModule::compile(G, Opts,
                                GenConfig ? *GenConfig : GenModuleConfig());
    if (!M)
      return Ret::failure(M.message());
    return Ret(std::make_unique<GenEngine>(std::move(*M), G, Opts));
  }
  }
  return Ret::failure("unknown engine kind");
}
