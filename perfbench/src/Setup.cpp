//===- perfbench/src/Setup.cpp - engines and service under test -----------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Setup.h"

#include "analysis/Completion.h"
#include "analysis/RecShape.h"
#include "analysis/Termination.h"
#include "codegen/CppEmitter.h"
#include "codegen/GenEngine.h"
#include "formats/FormatRegistry.h"
#include "frontend/Parser.h"
#include "lower/LIR.h"

#include <algorithm>
#include <thread>

using namespace ipg;

namespace perfbench {

FormatEngines &Setup::of(const std::string &Name) {
  for (FormatEngines &F : Formats)
    if (F.Name == Name)
      return F;
  return Formats.front(); // unreachable: corpora use configured formats
}

EngineOptions engineOptions() {
  EngineOptions O;
  O.MaxDepth = size_t{1} << 20;
  return O;
}

unsigned serviceWorkers() {
  unsigned N = std::thread::hardware_concurrency();
  return N > 1 ? N - 1 : 1;
}

namespace {

bool buildEngine(FormatEngines &F, int K, Results &Res) {
  GenModuleConfig Config = formats::genModuleConfig(F.Name);
  const BlackboxRegistry *BB = K == 2 ? nullptr : F.BB.get();
  Expected<std::unique_ptr<Engine>> E =
      makeEngine(Kinds[K], F.Load->G, BB, engineOptions(), &Config);
  if (!E) {
    Res.mismatch(F.Name + " " + KindNames[K] + " engine: " + E.message());
    return false;
  }
  F.E[K] = std::move(*E);
  return true;
}

std::unique_ptr<ParseService> buildService(
    const std::vector<std::string> &Formats, Results &Res) {
  ParseServiceOptions O;
  O.Workers = serviceWorkers();
  O.Mode = EngineKind::Vm;
  O.Engine = engineOptions();
  Expected<std::unique_ptr<ParseService>> S = ParseService::create(Formats, O);
  if (!S) {
    Res.mismatch("ParseService::create: " + S.message());
    return nullptr;
  }
  return std::move(*S);
}

const char *grammarText(const std::string &Name) {
  for (const formats::FormatInfo &F : formats::allFormats())
    if (F.Name == Name)
      return F.GrammarText;
  return nullptr;
}

} // namespace

Setup buildSetup(const std::vector<std::string> &Formats, Results &Res) {
  Setup S;
  GenModule::hostCompilerAvailable(); // its one-time probe is not thread-safe
  for (const std::string &Name : Formats) {
    FormatEngines F;
    F.Name = Name;
    Expected<LoadResult> L = formats::loadFormatGrammar(Name);
    if (!L) {
      Res.mismatch(Name + " grammar: " + L.message());
      return Setup();
    }
    F.Load = std::make_shared<LoadResult>(std::move(*L));
    F.BB = std::make_shared<BlackboxRegistry>(formats::standardBlackboxes());
    if (!buildEngine(F, 0, Res) || !buildEngine(F, 1, Res))
      return Setup();
    S.Formats.push_back(std::move(F));
  }
  // Generated modules: emit + host compile + dlopen, one thread per format,
  // at most nproc at a time.
  const size_t Threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  std::vector<Results> Errs(S.Formats.size());
  for (size_t Base = 0; Base < S.Formats.size(); Base += Threads) {
    std::vector<std::thread> Pool;
    for (size_t I = Base; I < std::min(S.Formats.size(), Base + Threads); ++I)
      Pool.emplace_back([&, I] { buildEngine(S.Formats[I], 2, Errs[I]); });
    for (std::thread &T : Pool)
      T.join();
  }
  for (size_t I = 0; I < Errs.size(); ++I)
    if (!Errs[I].correct()) {
      Res.mismatch(S.Formats[I].Name + ": generated engine failed to build");
      return Setup();
    }
  S.Svc = buildService(Formats, Res);
  if (!S.Svc)
    return Setup();
  return S;
}

Setup buildSetupTraced(const std::vector<std::string> &Formats, Tracer &T,
                       Results &Res) {
  Setup S;
  size_t Terms = 0, XInstrs = 0, SrcBytes = 0;
  Scope Root(T, "setup");
  for (const std::string &Name : Formats) {
    FormatEngines F;
    F.Name = Name;
    Expected<Grammar> G = [&] {
      Scope Sp(T, "frontend");
      return parseGrammarText(grammarText(Name));
    }();
    if (!G) {
      Res.mismatch(Name + " grammar: " + G.message());
      return Setup();
    }
    bool Checked = false;
    CompletionStats Stats;
    {
      Scope Sp(T, "analysis");
      Expected<CompletionStats> C = completeIntervals(*G);
      if (C) {
        Stats = *C;
        Checked = !checkAttributes(*G) && checkTermination(*G).Terminates;
        Checked = Checked && !analyzeRecShape(*G).Shape.empty();
      }
    }
    if (!Checked) {
      Res.mismatch(Name + ": grammar failed its checks");
      return Setup();
    }
    F.Load = std::make_shared<LoadResult>(LoadResult{std::move(*G), Stats});
    F.BB = std::make_shared<BlackboxRegistry>(formats::standardBlackboxes());
    {
      Scope Sp(T, "lower");
      lir::Module M = lir::lower(F.Load->G);
      for (const lir::RuleL &R : M.Rules)
        for (const lir::AltL &A : R.Alts)
          Terms += A.Exec.size();
      XInstrs += M.XCode.size();
    }
    {
      Scope Sp(T, "codegen.emit");
      CppEmitterOptions EO;
      EO.Engine = engineOptions();
      Expected<std::string> Src = emitCppParser(F.Load->G, "ipgmod", EO);
      SrcBytes += Src ? Src->size() : 0;
    }
    bool Built;
    {
      Scope Sp(T, "runtime.build");
      Built = buildEngine(F, 0, Res);
    }
    {
      Scope Sp(T, "vm.build");
      Built = Built && buildEngine(F, 1, Res);
    }
    {
      Scope Sp(T, "codegen.compile");
      Built = Built && buildEngine(F, 2, Res);
    }
    if (!Built)
      return Setup();
    S.Formats.push_back(std::move(F));
  }
  {
    Scope Sp(T, "service.create");
    S.Svc = buildService(Formats, Res);
  }
  if (!S.Svc)
    return Setup();
  Res.metric("frontend.ms", T.totalNs("frontend") / 1e6, "ms");
  Res.metric("analysis.ms", T.totalNs("analysis") / 1e6, "ms");
  Res.metric("lower.ms", T.totalNs("lower") / 1e6, "ms");
  Res.metric("lower.terms", static_cast<double>(Terms), "count");
  Res.metric("lower.xinstrs", static_cast<double>(XInstrs), "count");
  Res.metric("codegen.emit_ms", T.totalNs("codegen.emit") / 1e6, "ms");
  Res.metric("codegen.src_kb", SrcBytes / 1024.0, "KB");
  Res.metric("codegen.compile_s", T.totalNs("codegen.compile") / 1e9, "s");
  Res.metric("vm.build_ms", T.totalNs("vm.build") / 1e6, "ms");
  Res.metric("service.create_ms", T.totalNs("service.create") / 1e6, "ms");
  return S;
}

} // namespace perfbench
