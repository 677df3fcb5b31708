//===- tests/GenModuleCache.h - one generated module per format -*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generated engines for the format suites, compiled once per test
/// binary. Compiling a format's module (emit, `c++ -O2 -shared`, dlopen)
/// takes seconds while a parse takes microseconds, so every test asking
/// for the same format and emission options gets its own GenEngine over
/// one shared GenModule, built on first use and kept until the process
/// exits. Modules are built the way formats::makeFormatEngine builds
/// them (formats::genModuleConfig binds blackbox bridges), and under the
/// sanitizer builds GenModule instruments them like the host.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_TESTS_GENMODULECACHE_H
#define IPG_TESTS_GENMODULECACHE_H

#include "codegen/GenEngine.h"
#include "formats/FormatRegistry.h"

#include <map>
#include <memory>
#include <string>

namespace ipg::testutil {

/// A generated engine over the named format. Only the option the emitter
/// bakes into the module (UseMemo) selects the module; the engine is
/// fresh on every call and applies Opts.MaxDepth itself, the module is
/// shared.
inline Expected<formats::FormatEngine>
generatedEngine(const std::string &Name, const EngineOptions &Opts = {}) {
  using Ret = Expected<formats::FormatEngine>;
  struct Compiled {
    std::shared_ptr<LoadResult> Load;
    std::shared_ptr<GenModule> Module;
  };
  static std::map<std::string, Compiled> Cache;
  std::string Key = Name + (Opts.UseMemo ? "/memo" : "/plain");
  auto It = Cache.find(Key);
  if (It == Cache.end()) {
    auto Load = formats::loadFormatGrammar(Name);
    if (!Load)
      return Ret::failure(Load.message());
    auto Shared = std::make_shared<LoadResult>(std::move(*Load));
    auto M = GenModule::compile(Shared->G, Opts,
                                formats::genModuleConfig(Name));
    if (!M)
      return Ret::failure(M.message());
    It = Cache.emplace(Key, Compiled{Shared, *M}).first;
  }
  formats::FormatEngine FE;
  FE.Load = It->second.Load;
  FE.E = std::make_unique<GenEngine>(It->second.Module, FE.Load->G, Opts);
  return Ret(std::move(FE));
}

} // namespace ipg::testutil

#endif // IPG_TESTS_GENMODULECACHE_H
