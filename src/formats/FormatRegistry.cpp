//===- formats/FormatRegistry.cpp -----------------------------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "formats/FormatRegistry.h"

#include "formats/Dns.h"
#include "formats/Elf.h"
#include "formats/Gif.h"
#include "formats/Ipv4Udp.h"
#include "formats/MiniZlib.h"
#include "formats/Pdf.h"
#include "formats/Pe.h"
#include "formats/Zip.h"

#include "codegen/GenEngine.h"

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

using namespace ipg;
using namespace ipg::formats;

// Per-format corpus synthesizers (FormatInfo::Sample). Scale linearly
// grows the repeated structures; the scale-1 shapes match the fixed
// corpus bench_throughput gates against.
namespace {

std::vector<uint8_t> sampleZip(unsigned Scale) {
  return synthesizeZip(zipArchiveOfCopies(8 * Scale, 4096, false));
}

std::vector<uint8_t> sampleGif(unsigned Scale) {
  GifSynthSpec Spec;
  Spec.NumImages = 2 * Scale;
  Spec.SubBlocksPerImage = 8;
  return synthesizeGif(Spec);
}

std::vector<uint8_t> samplePe(unsigned Scale) {
  PeSynthSpec Spec;
  Spec.NumSections = 6 * Scale;
  return synthesizePe(Spec);
}

std::vector<uint8_t> sampleElf(unsigned Scale) {
  ElfSynthSpec Spec;
  Spec.NumDynEntries = 16 * Scale;
  Spec.NumSymbols = 32 * Scale;
  // From scale 64 up, .text grows to make the corpus megabyte-class
  // (the deep-input regression sweeps parse these); small scales keep
  // the default so the fixed test/bench corpora are unchanged.
  if (Scale >= 64)
    Spec.TextSize = 16384 * Scale;
  return synthesizeElf(Spec);
}

std::vector<uint8_t> samplePdf(unsigned Scale) {
  // The PDF grammar's Scan/XNum rules recurse once per file byte, so
  // total file size IS parser recursion depth. Both engines flatten
  // that recursion onto engine-managed frames, so depth costs no C
  // stack — callers parsing large scales only need an EngineOptions
  // MaxDepth that covers the file size (the limit is a resource cap,
  // not a stack guard). The scale-1 corpus — what bench_codegen's
  // Fig.-12 comparison parses — instead multiplies xref rows per object:
  // duplicate references re-parse the same [offset, xref) interval once
  // per row, the memo-reuse pattern Fig. 12 credits for PDF (without the
  // memo table every duplicate costs a full re-scan of the object).
  // bench_throughput's fixed pdf/12obj corpus is unchanged either way.
  PdfSynthSpec Spec;
  Spec.NumObjects = Scale == 1 ? 12 : 12 + 4 * Scale;
  Spec.XrefRefsPerObject = Scale == 1 ? 4 : 1;
  // Megabyte-class corpus from scale 64 up: ~64-byte bodies keep small
  // scales byte-identical to the historical corpora, large scales grow
  // object bodies so scale 64 crosses a megabyte (268 objects x 4 KiB).
  if (Scale >= 64)
    Spec.ObjectBodySize = 64 * Scale;
  return synthesizePdf(Spec);
}

std::vector<uint8_t> sampleIpv4Udp(unsigned Scale) {
  Ipv4SynthSpec Spec;
  // The IPv4 total-length field is 16 bits; stay within it.
  Spec.PayloadSize = Scale < 128 ? 512 * Scale : 65000;
  return synthesizeIpv4Udp(Spec);
}

std::vector<uint8_t> sampleDns(unsigned Scale) {
  DnsSynthSpec Spec;
  Spec.NumAnswers = 8 * Scale;
  return synthesizeDns(Spec);
}

} // namespace

const std::vector<FormatInfo> &ipg::formats::allFormats() {
  static const std::vector<FormatInfo> Formats = {
      {"zip", ZipGrammarText, true, sampleZip},
      {"gif", GifGrammarText, false, sampleGif},
      {"pe", PeGrammarText, false, samplePe},
      {"elf", ElfGrammarText, false, sampleElf},
      {"pdf", PdfGrammarText, false, samplePdf},
      {"ipv4udp", Ipv4UdpGrammarText, false, sampleIpv4Udp},
      {"dns", DnsGrammarText, false, sampleDns},
  };
  return Formats;
}

Expected<LoadResult>
ipg::formats::loadFormatGrammar(const std::string &Name) {
  for (const FormatInfo &F : allFormats())
    if (F.Name == Name)
      return loadGrammar(F.GrammarText);
  return Expected<LoadResult>::failure("unknown format '" + Name + "'");
}

BlackboxRegistry ipg::formats::standardBlackboxes() {
  BlackboxRegistry BB;
  BB.add("inflate", miniZlibBlackbox);
  // The inverse the serializer (serialize/Printer.cpp) re-encodes decoded
  // entry data with: the deterministic MiniZlib compressor, so any stream
  // it produced round-trips byte-exactly through decompress + recompress.
  BB.addInverse("inflate", miniZlibBlackboxInverse);
  return BB;
}

namespace {

// The generated-parser side of the `inflate` blackbox: a bridge from the
// ipg_rt registration hook (plain function pointer + cookie) to the SAME
// miniZlibBlackbox the interpreter registers — the module compiles
// formats/MiniZlib.cpp itself, so the two execution modes share one
// decoder implementation down to the translation unit. The decoded bytes
// live in a per-thread buffer until that thread's next invocation, which
// satisfies the BlackboxOut lifetime contract (the runtime copies them
// into its arena before returning); per-thread because every Parser of a
// module shares the bridge, and ParseService runs one Parser per worker.
const char ZipGenBridgeSource[] = R"BRIDGE(
#include "formats/MiniZlib.h"

static bool ipgInflateBridge(void *, const unsigned char *Data, size_t Len,
                             ipg_rt::BlackboxOut &Out) {
  static thread_local std::vector<uint8_t> Buf;
  ipg::BlackboxResult R =
      ipg::formats::miniZlibBlackbox(ipg::ByteSpan(Data, Len));
  if (!R.Ok)
    return false;
  Buf = std::move(R.Output);
  Out.Value = R.Value;
  Out.End = static_cast<long long>(R.End);
  Out.Output = Buf.data();
  Out.OutputLen = Buf.size();
  return true;
}

template <class ParserT> void ipgRegisterBlackboxes(ParserT &P) {
  P.registerBlackbox("inflate", ipgInflateBridge, nullptr);
}
)BRIDGE";

const GenBlackboxBridge ZipGenBridge = {
    ZipGenBridgeSource, "formats/MiniZlib.cpp support/Bytes.cpp"};

} // namespace

const GenBlackboxBridge *
ipg::formats::genBlackboxBridge(const std::string &Name) {
  if (Name == "zip")
    return &ZipGenBridge;
  return nullptr;
}

GenModuleConfig ipg::formats::genModuleConfig(const std::string &Name) {
  GenModuleConfig Config;
  const GenBlackboxBridge *Br = genBlackboxBridge(Name);
  if (!Br)
    return Config;
  // The module compiles the same decoder TUs the interpreter links, and
  // its epilogue registers them through the bridge hook.
  Config.BridgeSource = Br->DriverSource;
  Config.Std = "c++20"; // the bridge includes library headers
  Config.ExtraCompileArgs = "-I" + shellQuote(IPG_SOURCE_DIR);
  std::istringstream Toks(Br->ExtraSources);
  std::string T;
  while (Toks >> T)
    Config.ExtraCompileArgs += " " + shellQuote(IPG_SOURCE_DIR "/" + T);
  return Config;
}

Expected<FormatEngine>
ipg::formats::makeFormatEngine(const std::string &Name, EngineKind Kind,
                               const EngineOptions &Opts) {
  using Ret = Expected<FormatEngine>;
  const FormatInfo *Info = nullptr;
  for (const FormatInfo &F : allFormats())
    if (F.Name == Name)
      Info = &F;
  if (!Info)
    return Ret::failure("unknown format '" + Name + "'");

  Expected<LoadResult> Load = loadGrammar(Info->GrammarText);
  if (!Load)
    return Ret::failure(Load.message());

  FormatEngine FE;
  FE.Load = std::make_shared<LoadResult>(std::move(*Load));

  const BlackboxRegistry *BB = nullptr;
  if (Info->NeedsBlackbox &&
      (Kind == EngineKind::Interp || Kind == EngineKind::Vm)) {
    FE.Blackboxes = std::make_shared<BlackboxRegistry>(standardBlackboxes());
    BB = FE.Blackboxes.get();
  }
  GenModuleConfig Config = genModuleConfig(Name);

  Expected<std::unique_ptr<Engine>> E =
      makeEngine(Kind, FE.Load->G, BB, Opts, &Config);
  if (!E)
    return Ret::failure(E.message());
  FE.E = std::move(*E);
  return Ret(std::move(FE));
}

std::vector<uint8_t> ipg::formats::sampleInput(const std::string &Name,
                                               unsigned Scale) {
  if (Scale == 0)
    Scale = 1;
  for (const FormatInfo &F : allFormats())
    if (F.Name == Name)
      return F.Sample(Scale);
  return {};
}

size_t ipg::formats::grammarLineCount(const char *Text) {
  size_t Count = 0;
  const char *P = Text;
  while (*P) {
    // Find the end of this line.
    const char *End = P;
    while (*End && *End != '\n')
      ++End;
    // Blank or comment-only lines do not count.
    const char *Q = P;
    while (Q != End && (*Q == ' ' || *Q == '\t'))
      ++Q;
    if (Q != End && !(Q + 1 < End && Q[0] == '/' && Q[1] == '/'))
      ++Count;
    P = *End ? End + 1 : End;
  }
  return Count;
}
