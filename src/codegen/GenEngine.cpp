//===- codegen/GenEngine.cpp - generated parsers as in-process Engines ----===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/GenEngine.h"
#include "codegen/CppEmitter.h"
#include "runtime/Env.h"
#include "support/GenRuntime.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <system_error>

#include <dlfcn.h>
#include <unistd.h>

using namespace ipg;

//===----------------------------------------------------------------------===//
// GenModule: emit + compile + dlopen
//===----------------------------------------------------------------------===//

namespace {

/// The fixed `extern "C"` surface appended after the generated parser
/// (and after any blackbox bridge). RTLD_LOCAL keeps the names private
/// to each module, so the fixed spelling never collides across modules.
/// `Names` has internal linkage but the epilogue lives in the same
/// translation unit, so qualified access is legal.
std::string abiEpilogue(bool RegisterBlackboxes) {
  std::string S;
  S += "\n// ---- ipg_mod_ C ABI (see codegen/GenEngine.h) ----\n"
       "extern \"C\" {\n"
       "void *ipg_mod_create() {\n"
       "  auto *P = new ipgmod::Parser();\n";
  if (RegisterBlackboxes)
    S += "  ipgRegisterBlackboxes(*P);\n";
  S += "  return P;\n"
       "}\n"
       "void ipg_mod_destroy(void *P) {\n"
       "  delete static_cast<ipgmod::Parser *>(P);\n"
       "}\n"
       "void ipg_mod_set_depth_limit(void *P, long long Limit) {\n"
       "  static_cast<ipgmod::Parser *>(P)->setDepthLimit(Limit);\n"
       "}\n"
       "int ipg_mod_parse(void *P, const unsigned char *Data,\n"
       "                  unsigned long long Len) {\n"
       "  ipgmod::NodePtr Out = nullptr;\n"
       "  return static_cast<ipgmod::Parser *>(P)->parse(\n"
       "             Data, static_cast<size_t>(Len), Out) ? 1 : 0;\n"
       "}\n"
       "void ipg_mod_export(void *P, ipg_rt::ExportFn Fn, void *User) {\n"
       "  static_cast<ipgmod::Parser *>(P)->exportTree(Fn, User);\n"
       "}\n"
       "void ipg_mod_stats(void *P, unsigned long long *Out) {\n"
       "  auto *Q = static_cast<ipgmod::Parser *>(P);\n"
       "  Out[0] = Q->frozenNodeCount();\n"
       "  Out[1] = Q->memoHits();\n"
       "  Out[2] = Q->memoMisses();\n"
       "  Out[3] = Q->nodeCount();\n"
       "  Out[4] = static_cast<unsigned long long>(Q->peakDepth());\n"
       "  // Failure diagnostics: name-table id + 1 (0 = none recorded)\n"
       "  // and the absolute byte offset of the failing window.\n"
       "  Out[5] = Q->failNameId() >= 0\n"
       "               ? static_cast<unsigned long long>(Q->failNameId() + 1)\n"
       "               : 0;\n"
       "  Out[6] = static_cast<unsigned long long>(Q->failOff());\n"
       "}\n"
       "unsigned ipg_mod_num_names() {\n"
       "  return static_cast<unsigned>(sizeof(ipgmod::Names) /\n"
       "                               sizeof(ipgmod::Names[0]));\n"
       "}\n"
       "const char *ipg_mod_name(unsigned Id) { return ipgmod::Names[Id]; }\n"
       "} // extern \"C\"\n";
  return S;
}

std::string uniqueWorkDir() {
  const char *T = std::getenv("TMPDIR");
  std::string Base = (T && *T) ? T : "/tmp";
  static std::atomic<unsigned> Counter{0};
  return Base + "/ipg_mod_" + std::to_string(::getpid()) + "_" +
         std::to_string(Counter.fetch_add(1, std::memory_order_relaxed));
}

std::string readFileTrunc(const std::string &Path, size_t Max = 4000) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string S = SS.str();
  if (S.size() > Max)
    S.resize(Max);
  return S;
}

} // namespace

std::string ipg::shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S) {
    if (C == '\'')
      Out += "'\\''"; // close, escaped quote, reopen
    else
      Out += C;
  }
  return Out + "'";
}

bool GenModule::hostCompilerAvailable() {
  static int Avail = -1;
  if (Avail < 0)
    Avail = std::system("c++ --version > /dev/null 2>&1") == 0 ? 1 : 0;
  return Avail == 1;
}

Expected<std::shared_ptr<GenModule>>
GenModule::compile(const Grammar &G, const EngineOptions &Opts,
                   const GenModuleConfig &Config) {
  using Ret = Expected<std::shared_ptr<GenModule>>;
  if (!hostCompilerAvailable())
    return Ret::failure("no host C++ compiler on PATH; the generated "
                        "engine cannot be built (use EngineKind::Interp)");

  CppEmitterOptions EOpts;
  EOpts.Engine = Opts;
  Expected<std::string> Src = emitCppParser(G, "ipgmod", EOpts);
  if (!Src)
    return Ret::failure(Src.message());

  std::shared_ptr<GenModule> M(new GenModule());
  if (Config.WorkDir.empty()) {
    M->Dir = uniqueWorkDir();
    M->OwnsDir = true;
  } else {
    M->Dir = Config.WorkDir;
  }
  std::error_code Ec; // may already exist; the compile fails loudly
  std::filesystem::create_directory(M->Dir, Ec);

  std::string CppPath = M->Dir + "/parser.cpp";
  M->SoPath = M->Dir + "/libparser.so";
  {
    std::ofstream Out(CppPath, std::ios::binary | std::ios::trunc);
    Out << *Src << Config.BridgeSource
        << abiEpilogue(!Config.BridgeSource.empty());
    if (!Out)
      return Ret::failure("cannot write " + CppPath);
  }

  // Match the host build's sanitizer so instrumented and plain code never
  // mix inside one process.
  std::string San;
#ifdef IPG_SANITIZE_THREAD_BUILD
  San = " -g -fsanitize=thread";
#elif defined(IPG_SANITIZE_BUILD)
  San = " -g -fsanitize=address,undefined -fno-sanitize-recover=all";
#endif
  std::string LogPath = M->Dir + "/compile.log";
  std::string Cmd = "c++ -std=" + Config.Std + " -O2 -fPIC -shared" + San +
                    " -o " + shellQuote(M->SoPath) + " " +
                    shellQuote(CppPath);
  if (!Config.ExtraCompileArgs.empty())
    Cmd += " " + Config.ExtraCompileArgs;
  Cmd += " > " + shellQuote(LogPath) + " 2>&1";
  if (std::system(Cmd.c_str()) != 0)
    return Ret::failure("generated-parser compile failed:\n" + Cmd + "\n" +
                        readFileTrunc(LogPath));

  M->Handle = ::dlopen(M->SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!M->Handle) {
    const char *E = ::dlerror();
    return Ret::failure(std::string("dlopen failed: ") + (E ? E : "?"));
  }

  auto Sym = [&](const char *Name) { return ::dlsym(M->Handle, Name); };
  M->Create = reinterpret_cast<void *(*)()>(Sym("ipg_mod_create"));
  M->Destroy = reinterpret_cast<void (*)(void *)>(Sym("ipg_mod_destroy"));
  M->SetDepthLimit = reinterpret_cast<void (*)(void *, long long)>(
      Sym("ipg_mod_set_depth_limit"));
  M->Parse = reinterpret_cast<int (*)(void *, const unsigned char *,
                                      unsigned long long)>(
      Sym("ipg_mod_parse"));
  M->Export = reinterpret_cast<void (*)(void *, ExportFn, void *)>(
      Sym("ipg_mod_export"));
  M->Stats = reinterpret_cast<void (*)(void *, unsigned long long *)>(
      Sym("ipg_mod_stats"));
  M->NumNames = reinterpret_cast<unsigned (*)()>(Sym("ipg_mod_num_names"));
  M->NameOf =
      reinterpret_cast<const char *(*)(unsigned)>(Sym("ipg_mod_name"));
  if (!M->Create || !M->Destroy || !M->SetDepthLimit || !M->Parse ||
      !M->Export || !M->Stats || !M->NumNames || !M->NameOf)
    return Ret::failure("module is missing an ipg_mod_ entry point");
  return Ret(std::move(M));
}

GenModule::~GenModule() {
  if (Handle)
    ::dlclose(Handle);
  if (OwnsDir && !Dir.empty()) {
    std::error_code Ec; // best effort: a leftover dir is not worth a throw
    std::filesystem::remove_all(Dir, Ec);
  }
}

//===----------------------------------------------------------------------===//
// GenEngine: per-thread instance + single-pass tree export
//===----------------------------------------------------------------------===//

GenEngine::GenEngine(std::shared_ptr<GenModule> Module, const Grammar &G,
                     const EngineOptions &Opts)
    : Module(std::move(Module)), G(G) {
  Parser = this->Module->Create();
  this->Module->SetDepthLimit(
      Parser, static_cast<long long>(std::min<size_t>(
                  Opts.MaxDepth, std::numeric_limits<long long>::max())));
  Pool = new TreeStore::Recycler();
  // Resolve the module's name table against the grammar's interner once.
  // Every emitted name originates from this grammar, so a miss means the
  // module and grammar do not belong together; record InvalidSymbol and
  // fail the first conversion that touches it.
  unsigned N = this->Module->NumNames();
  IdToSym.reserve(N);
  IdToRule.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    Symbol S = G.interner().lookup(this->Module->NameOf(I));
    IdToSym.push_back(S);
    IdToRule.push_back(S == InvalidSymbol ? InvalidRuleId : G.findGlobal(S));
  }
}

GenEngine::~GenEngine() {
  if (Parser)
    Module->Destroy(Parser);
  // Same recycler teardown as the interpreter (InterpState::~InterpState).
  TreeStore::Recycler *P = Pool;
  P->OwnerAlive = false;
  TreeStore *Parked = P->Returned;
  P->Returned = nullptr;
  bool DestroyedAny = Cur || Parked;
  if (Cur)
    TreeStore::destroy(Cur);
  if (Parked)
    TreeStore::destroy(Parked);
  if (!DestroyedAny && P->LiveStores == 0)
    delete P;
}

bool GenEngine::adoptStore(TreeStore *Store) {
  if (!Store)
    return false;
  if (Cur || Pool->Returned)
    return false;
  Store->bindRecycler(Pool);
  Store->reset();
  Pool->Returned = Store;
  return true;
}

void GenEngine::onExport(void *User, const ipg_rt::ExportObjC *Obj) {
  // Called back through the module's C ABI: no exception may cross it.
  GenEngine *E = static_cast<GenEngine *>(User);
  try {
    E->build(*Obj);
  } catch (const std::bad_alloc &) {
    E->ConvError = "out of memory";
  }
}

void GenEngine::build(const ipg_rt::ExportObjC &O) {
  if (ConvError)
    return;
  uint32_t Id;
  if (O.Kind == ipg_rt::Node::KLeaf) {
    // A blackbox's decoded bytes live in the module's arena, which dies
    // with that Parser's next parse — copy them into the host store.
    // Ordinary leaves alias the input buffer the caller passed to
    // parse(): the module was handed the very same pointer.
    size_t Len = static_cast<size_t>(O.Len);
    Id = O.Bb ? Cur->makeLeafCopy(O.Data, Len, O.Off)
              : Cur->makeLeaf(O.Data, Len, O.Off, O.Opaque != 0);
  } else if (O.ViewOf != ipg_rt::Node::NotAView) {
    // The base precedes the view in the export order, so its host node
    // exists; the host view shares its slots and children likewise.
    Id = Cur->makeShifted(HostId[O.ViewOf], O.Shift, G.symStart(),
                          G.symEnd());
  } else {
    Symbol Name = O.NameId < IdToSym.size() ? IdToSym[O.NameId]
                                             : InvalidSymbol;
    if (Name == InvalidSymbol) {
      ConvError = "module name id not in the grammar interner";
      return;
    }
    KidScratch.resize(O.NumKids);
    for (unsigned I = 0; I < O.NumKids; ++I)
      KidScratch[I] = HostId[O.KidIds[I]];
    if (O.Kind == ipg_rt::Node::KArray) {
      Id = Cur->makeArray(Name, KidScratch.data(), O.NumKids);
    } else {
      SlotScratch.resize(O.NumSlots);
      for (unsigned I = 0; I < O.NumSlots; ++I) {
        unsigned K = O.Slots[I].Id;
        Symbol S = K < IdToSym.size() ? IdToSym[K] : InvalidSymbol;
        if (S == InvalidSymbol) {
          ConvError = "module attribute id not in the grammar interner";
          return;
        }
        SlotScratch[I] = EnvSlot{S, O.Slots[I].V};
      }
      Id = Cur->makeNodeFromSlots(Name, IdToRule[O.NameId],
                                  SlotScratch.data(), O.NumSlots,
                                  KidScratch.data(), O.NumKids);
    }
  }
  HostId[O.Id] = Id;
  RootId = Id; // the root is the last record
  HaveRoot = true;
}

Expected<TreePtr> GenEngine::parse(ByteSpan In) {
  // Reset at entry so early failures never leave the previous parse's
  // stats visible (same contract as Interp::parse).
  Stats = EngineStats();

  if (!Cur && Pool->Returned) {
    Cur = Pool->Returned;
    Pool->Returned = nullptr;
  }
  if (Cur) {
    Cur->reset();
    Stats.StoreRecycled = true;
  } else {
    Cur = new TreeStore(Pool);
  }

  int Ok = Module->Parse(Parser, In.data(),
                         static_cast<unsigned long long>(In.size()));
  unsigned long long S[7] = {0, 0, 0, 0, 0, 0, 0};
  Module->Stats(Parser, S);
  Stats.NodesCreated = static_cast<size_t>(S[0]);
  Stats.MemoHits = static_cast<size_t>(S[1]);
  Stats.MemoMisses = static_cast<size_t>(S[2]);
  Stats.PeakDepth = static_cast<size_t>(S[4]);
  // Failure diagnostics (slot 5 is the module name id + 1, 0 = none):
  // translate the module's name-table id back to a grammar Symbol so
  // FailRule compares equal across engines.
  if (S[5] != 0) {
    unsigned NameId = static_cast<unsigned>(S[5] - 1);
    Stats.FailRule =
        NameId < IdToSym.size() ? IdToSym[NameId] : InvalidSymbol;
    Stats.FailOffset = static_cast<int64_t>(S[6]);
  }
  // TermsExecuted stays 0: generated modules do not count terms.
  if (!Ok) {
    Stats.ArenaBytesUsed = Cur->arenaBytesUsed();
    return Expected<TreePtr>::failure(
        "generated parser rejected the input");
  }

  // Slot 3 is the module's object count: every exported id is below it.
  HostId.resize(static_cast<size_t>(S[3]));
  ConvError = nullptr;
  HaveRoot = false;
  Module->Export(Parser, &GenEngine::onExport, this);
  if (ConvError)
    return Expected<TreePtr>::failure(
        std::string("tree conversion failed: ") + ConvError);
  if (!HaveRoot)
    return Expected<TreePtr>::failure(
        "tree conversion produced no root node");

  Stats.ArenaBytesUsed = Cur->arenaBytesUsed();
  // Generated parsers are Strict-only (makeEngine rejects Salvage), so a
  // successful parse is always a hole-free Accept.
  Stats.ParseVerdict = Verdict::Accept;
  TreeStore *Owned = Cur;
  Cur = nullptr;
  return Expected<TreePtr>(TreePtr(Owned, Owned->node(RootId)));
}
