//===- codegen/GenEngine.h - generated parsers as in-process Engines -*- C++//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the output of the Section-7 parser generator behind the same
/// ipg::Engine interface the interpreter implements, so callers (the
/// differential harness, benches, ParseService workers) can swap engines
/// without caring which one is live. It is the only way the tests run
/// generated code: they compare, print and dump generated trees
/// in-process through it, with the same host code as the other engines.
///
/// Two classes split the expensive and the cheap halves:
///
///  - GenModule compiles the emitted source ONCE: it appends a small
///    `extern "C"` epilogue (fixed `ipg_mod_` symbol names), shells out to
///    the host `c++` for a `-shared -fPIC` object, and dlopens the result
///    with RTLD_LOCAL (so many modules coexist). A loaded module is
///    immutable — safe to share across threads via shared_ptr.
///
///  - GenEngine is one *instance* of the module's Parser (the reusable,
///    store-recycling class the emitter writes). Like the interpreter it
///    is one-per-thread; ParseService gives each worker its own GenEngine
///    over the one shared GenModule.
///
/// Tree transfer: the module builds ipg_rt::Node trees inside its own
/// arena, which is only valid until that Parser's next parse(). parse()
/// therefore asks the module to export the tree (ipg_rt::exportTree, in
/// the embedded GenRuntime.h text both sides compile): one standard-
/// layout ipg_rt::ExportObjC record per object reachable from the root,
/// each exactly once, children before parents. GenEngine builds each
/// record into a genuine ipg::TreeStore tree in that single forward pass,
/// through a reused module-id -> host-id map: ordinary leaves alias the
/// caller's input bytes, blackbox-decoded leaves are copied (their
/// backing arena dies with the next parse), and shifted views become
/// host lazy views over their base's host node. Memo-shared subtrees
/// therefore stay shared — the host tree has the module's shape, object
/// for object. The rebuilt tree participates in the normal TreeStore
/// recycling/FrozenTree protocol, and every export buffer on both sides
/// is reused, so steady-state GenEngine parses allocate nothing.
///
/// Stats mapping: NodesCreated/MemoHits/MemoMisses/PeakDepth come from
/// the module counters (same meaning as the interpreter's — PeakDepth is
/// the deepest grammar recursion the parse reached, virtual levels of
/// flattened rules included); TermsExecuted stays 0 — generated modules
/// do not count terms, only the in-process engines do;
/// ArenaBytesUsed/StoreRecycled describe the host-side conversion store.
///
/// Converted nodes carry the grammar's global RuleId when the node's
/// name resolves to a global rule and InvalidRuleId otherwise (local
/// rules). Nothing else distinguishes them from interpreter trees:
/// serialize::printTree re-emits them byte-exactly (its origin walk
/// reads only shifts, attributes and leaves, and blackbox nodes are
/// recognized by name), and canonical dumps match the interpreter's.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_CODEGEN_GENENGINE_H
#define IPG_CODEGEN_GENENGINE_H

#include "grammar/Grammar.h"
#include "runtime/Engine.h"
#include "runtime/EngineOptions.h"
#include "runtime/ParseTree.h"
#include "support/Result.h"

#include <memory>
#include <string>
#include <vector>

namespace ipg_rt {
struct ExportObjC; // support/GenRuntime.h
} // namespace ipg_rt

namespace ipg {

/// Build-time configuration for GenModule::compile beyond the engine
/// knobs (which arrive as EngineOptions: UseMemo is baked into the
/// emitted parser, MaxDepth only as its default — each GenEngine applies
/// its own).
struct GenModuleConfig {
  /// C++ source appended after the generated parser and before the ABI
  /// epilogue — a formats::GenBlackboxBridge::DriverSource defining
  ///   template <class ParserT> void ipgRegisterBlackboxes(ParserT &P);
  /// which the epilogue then calls on every Parser it creates. Empty for
  /// grammars without blackboxes.
  std::string BridgeSource;
  /// Extra arguments appended verbatim to the compile command line
  /// (include dirs and decoder translation units for the bridge, e.g.
  /// "-I<src> <src>/formats/MiniZlib.cpp"). It is shell text: pass every
  /// path through shellQuote.
  std::string ExtraCompileArgs;
  /// -std= level for the child compile. Generated parsers are C++17 on
  /// their own; bridges that pull in library headers need c++20.
  std::string Std = "c++17";
  /// Directory for parser.cpp / the shared object / compile logs. Empty
  /// means a fresh unique directory under TMPDIR, removed when the
  /// module dies; a caller-provided directory is kept.
  std::string WorkDir;
};

/// \p S as one single-quoted POSIX shell word, whatever characters it
/// holds (spaces, quotes, `$`).
std::string shellQuote(const std::string &S);

/// A compiled-and-loaded generated parser: shared, immutable, and
/// thread-safe after compile() returns. Create GenEngine instances (one
/// per thread) to actually parse.
class GenModule {
public:
  /// True when a host `c++` is available to compile modules with;
  /// callers should skip/fall back rather than fail hard when this is
  /// false.
  static bool hostCompilerAvailable();

  static Expected<std::shared_ptr<GenModule>>
  compile(const Grammar &G, const EngineOptions &Opts = {},
          const GenModuleConfig &Config = {});

  ~GenModule();
  GenModule(const GenModule &) = delete;
  GenModule &operator=(const GenModule &) = delete;

  /// Path of the loaded shared object (diagnostics).
  const std::string &path() const { return SoPath; }

private:
  GenModule() = default;
  friend class GenEngine;

  // `ipg_mod_` ABI, resolved at load. Export records arrive as the
  // host's ipg_rt::ExportObjC — identical layout because both sides
  // compile the same GenRuntime.h text.
  using ExportFn = void (*)(void *, const ipg_rt::ExportObjC *);
  void *(*Create)() = nullptr;
  void (*Destroy)(void *) = nullptr;
  void (*SetDepthLimit)(void *, long long) = nullptr;
  int (*Parse)(void *, const unsigned char *, unsigned long long) = nullptr;
  void (*Export)(void *, ExportFn, void *) = nullptr;
  void (*Stats)(void *, unsigned long long *) = nullptr;
  unsigned (*NumNames)() = nullptr;
  const char *(*NameOf)(unsigned) = nullptr;

  void *Handle = nullptr;
  std::string SoPath;
  std::string Dir;
  bool OwnsDir = false;
};

/// One thread's instance of a compiled module, behind the Engine
/// interface. Holds a module Parser (recycled arena + memo inside the
/// .so) plus a host-side TreeStore + recycler for the converted trees,
/// so the FrozenTree/adoptStore protocol works exactly as with the
/// interpreter.
class GenEngine : public Engine {
public:
  /// \p Opts.MaxDepth becomes this instance's depth limit, whatever
  /// limit the module was compiled with, so engines sharing one module
  /// may differ in it. UseMemo and Recovery are the module's.
  GenEngine(std::shared_ptr<GenModule> Module, const Grammar &G,
            const EngineOptions &Opts);
  ~GenEngine() override;

  Expected<TreePtr> parse(ByteSpan Input) override;
  const EngineStats &stats() const override { return Stats; }
  const Grammar &grammar() const override { return G; }
  EngineKind kind() const override { return EngineKind::Generated; }
  bool adoptStore(TreeStore *Store) override;

private:
  std::shared_ptr<GenModule> Module;
  const Grammar &G;
  EngineStats Stats;
  void *Parser = nullptr; ///< module-side Parser instance (Create/Destroy)

  /// Module NameId -> host Symbol, resolved once through the grammar's
  /// interner (every emitted name originates from it, so lookups cannot
  /// miss; a miss is a build bug and fails the first conversion that
  /// touches the name loudly), and -> the global rule of that name
  /// (InvalidRuleId for attribute names and local rules).
  std::vector<Symbol> IdToSym;
  std::vector<RuleId> IdToRule;

  // Host-side conversion store with the same recycling discipline as
  // InterpState: Cur is the store being built into, Pool the recycler
  // dying TreePtrs park in.
  TreeStore *Cur = nullptr;
  TreeStore::Recycler *Pool = nullptr;

  // Export scratch, reused across parses (capacity persists — no
  // steady-state allocation): module object id -> host node id, and the
  // translated slots / children of the record being built.
  std::vector<uint32_t> HostId;
  std::vector<EnvSlot> SlotScratch;
  std::vector<uint32_t> KidScratch;
  uint32_t RootId = 0; ///< host id of the last record built
  bool HaveRoot = false;
  const char *ConvError = nullptr;

  static void onExport(void *User, const ipg_rt::ExportObjC *Obj);
  void build(const ipg_rt::ExportObjC &Obj);
};

} // namespace ipg

#endif // IPG_CODEGEN_GENENGINE_H
