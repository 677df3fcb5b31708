//===- perfbench/src/Setup.h - engines and service under test ---*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
#ifndef IPG_PERFBENCH_SETUP_H
#define IPG_PERFBENCH_SETUP_H

#include "Bench.h"

#include "analysis/AttributeCheck.h"
#include "runtime/Blackbox.h"
#include "runtime/Engine.h"
#include "service/ParseService.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// The engine kinds in rotation order, and their metric spellings.
constexpr ipg::EngineKind Kinds[3] = {ipg::EngineKind::Interp,
                                      ipg::EngineKind::Vm,
                                      ipg::EngineKind::Generated};
constexpr const char *KindNames[3] = {"interp", "vm", "gen"};
/// Span name of a parse in each engine, after the src/ module it runs in.
constexpr const char *ParseSpans[3] = {"runtime.parse", "vm.parse",
                                       "codegen.parse"};

/// One format's grammar and its three engines (one thread: the client).
struct FormatEngines {
  std::string Name;
  std::shared_ptr<ipg::LoadResult> Load;
  /// The standard registry (inflate and its inverse), used by the
  /// interpreter, the VM and the printer.
  std::shared_ptr<ipg::BlackboxRegistry> BB;
  std::unique_ptr<ipg::Engine> E[3];
};

struct Setup {
  std::vector<FormatEngines> Formats;
  std::unique_ptr<ipg::ParseService> Svc;
  FormatEngines &of(const std::string &Name);
};

/// Every engine uses these options; pdf recursion depth tracks file size.
ipg::EngineOptions engineOptions();

/// Service workers: nproc - 1, leaving one CPU to the client thread.
unsigned serviceWorkers();

/// Builds everything through the library's set-up calls: loadFormatGrammar,
/// makeEngine for each kind (generated modules compile concurrently, one
/// thread per format, at most nproc), ParseService::create. Returns an
/// empty Setup and records a mismatch on failure.
Setup buildSetup(const std::vector<std::string> &Formats, Results &Res);

/// The same set-up, decomposed into its layers' calls (frontend, analysis,
/// lower, codegen, engine builds, service) with a span around each, run
/// sequentially on this thread. Fills the set-up per-layer metrics.
Setup buildSetupTraced(const std::vector<std::string> &Formats, Tracer &T,
                       Results &Res);

} // namespace perfbench

#endif // IPG_PERFBENCH_SETUP_H
