//===- perfbench/src/Corpus.cpp - seeded workload inputs ------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "Bench.h"

#include "formats/Dns.h"
#include "formats/Elf.h"
#include "formats/Gif.h"
#include "formats/Ipv4Udp.h"
#include "formats/MiniZlib.h"
#include "formats/Pdf.h"
#include "formats/Pe.h"
#include "formats/Zip.h"

#include <algorithm>

using namespace ipg::formats;

namespace perfbench {

namespace {

// pdf-backtrack: ~14 terms per byte, left recursion over the file prefix,
// memo reuse across xref rows; the engines' parse loops do the work.
// binary-roundtrip: random access and type-length-value layouts at <= 0.2
// terms per byte; interval arithmetic, tree building, inflate, printer.
// svc-stream: tiny parses behind a queue, a 2% heavy tail and 10% damaged
// copies; handoff, head-of-line blocking and the reject path.
const WorkloadSpec Workloads[] = {
    {"pdf-backtrack", 120, 40000, 100},
    {"binary-roundtrip", 1500, 20000, 1000},
    {"svc-stream", 4000, 10000, 4000},
};

std::vector<uint8_t> pdfDoc(Rng &R, unsigned Scale, size_t Refs) {
  PdfSynthSpec S;
  S.NumObjects = Scale == 1 ? 12 : 12 + 4 * Scale;
  // Duplicate xref rows re-parse an object's interval: memo reuse.
  S.XrefRefsPerObject = Refs;
  S.Seed = R.next();
  return synthesizePdf(S);
}

std::vector<uint8_t> gifDoc(Rng &R, unsigned Scale) {
  GifSynthSpec S;
  S.Width = static_cast<uint16_t>(R.range(16, 640));
  S.Height = static_cast<uint16_t>(R.range(16, 480));
  S.GctSizeLog = 3;
  S.NumImages = 2 * Scale;
  S.SubBlocksPerImage = 8;
  S.SubBlockSize = 128;
  S.Seed = R.next();
  return synthesizeGif(S);
}

std::vector<uint8_t> elfDoc(Rng &R, unsigned Scale, size_t TextSize) {
  ElfSynthSpec S;
  S.NumDynEntries = 16 * Scale;
  S.NumSymbols = 32 * Scale;
  S.TextSize = TextSize;
  S.Seed = R.next();
  return synthesizeElf(S);
}

std::vector<uint8_t> peDoc(Rng &R, unsigned Scale) {
  PeSynthSpec S;
  S.NumSections = 6 * Scale;
  S.SectionSize = 2048;
  S.Seed = R.next();
  return synthesizePe(S);
}

std::vector<uint8_t> dnsDoc(Rng &R, unsigned Scale) {
  static const char *Names[] = {"www.example.com", "mail.example.net",
                                "cdn.example.org", "api.example.com"};
  DnsSynthSpec S;
  S.QName = Names[R.range(0, 3)];
  S.NumAnswers = 8 * Scale;
  S.Seed = R.next();
  return synthesizeDns(S);
}

std::vector<uint8_t> ipv4Doc(Rng &R, unsigned Scale) {
  Ipv4SynthSpec S;
  S.PayloadSize = 256 * Scale;
  S.OptionWords = Scale % 2;
  S.Seed = R.next();
  return synthesizeIpv4Udp(S);
}

/// Mildly compressible member data: runs of a small alphabet with noise.
std::vector<uint8_t> memberData(Rng &R, size_t Size) {
  std::vector<uint8_t> D(Size);
  uint8_t Run = static_cast<uint8_t>('a' + R.range(0, 25));
  for (size_t I = 0; I < Size; ++I) {
    uint64_t X = R.next();
    if ((X & 15) == 0)
      Run = static_cast<uint8_t>('a' + (X >> 8) % 26);
    D[I] = (X & 0x700) == 0 ? static_cast<uint8_t>(X >> 16) : Run;
  }
  return D;
}

/// A zip of \p Members entries of \p Size bytes each; odd entries are
/// deflated, even ones stored.
Doc zipDoc(Rng &R, size_t Members, size_t Size, unsigned Scale) {
  ZipSynthSpec S;
  Doc D;
  for (size_t I = 0; I < Members; ++I) {
    ZipEntrySpec E;
    E.Name = "m" + std::to_string(I) + ".txt";
    E.Data = memberData(R, Size);
    E.Compress = I % 2 == 1;
    if (E.Compress)
      D.Deflated.push_back(miniZlibCompress(E.Data));
    S.Entries.push_back(std::move(E));
  }
  D.Format = "zip";
  D.Scale = Scale;
  D.Bytes = synthesizeZip(S);
  return D;
}

Doc make(const std::string &Format, unsigned Scale, std::vector<uint8_t> B) {
  Doc D;
  D.Format = Format;
  D.Scale = Scale;
  D.Bytes = std::move(B);
  return D;
}

/// Fisher-Yates, so the seed also sets the order documents are sent in.
void shuffle(Rng &R, std::vector<Doc> &Docs) {
  for (size_t I = Docs.size(); I > 1; --I)
    std::swap(Docs[I - 1], Docs[R.range(0, I - 1)]);
}

// The seed varies document content and order only: the composition (formats,
// scales, sizes, xref multiplicity, damage counts) is fixed per workload, so
// runs under different seeds measure the same amount and kind of work.

std::vector<Doc> pdfCorpus(Rng &R) {
  std::vector<Doc> Docs;
  for (unsigned S = 1; S <= 16; ++S)
    Docs.push_back(make("pdf", S, pdfDoc(R, S, 1 + S % 4)));
  shuffle(R, Docs);
  return Docs;
}

std::vector<Doc> binaryCorpus(Rng &R) {
  std::vector<Doc> Docs;
  // Zips from a few KB to ~2 MB; the largest sets the megabyte class.
  Docs.push_back(zipDoc(R, 2, 1024, 1));
  Docs.push_back(zipDoc(R, 6, 8192, 4));
  Docs.push_back(zipDoc(R, 8, 49152, 16));
  Docs.push_back(zipDoc(R, 16, 128 * 1024, 64));
  for (unsigned S : {1u, 4u, 16u})
    Docs.push_back(make("elf", S, elfDoc(R, S, 2048 * S)));
  Docs.push_back(make("elf", 64, elfDoc(R, 64, 1024 * 1024)));
  for (unsigned S : {1u, 2u, 4u, 16u})
    Docs.push_back(make("pe", S, peDoc(R, S)));
  for (unsigned S : {1u, 2u, 4u, 16u})
    Docs.push_back(make("gif", S, gifDoc(R, S)));
  shuffle(R, Docs);
  return Docs;
}

std::vector<Doc> svcCorpus(Rng &R) {
  std::vector<Doc> Docs;
  // 400 documents: 352 light (dns, ipv4udp, gif, elf at scales 1-4, 22 of
  // each), a 2% heavy tail (6 pdf, 2 gif at scale 16), and 40 damaged
  // copies of light documents, half truncated and half bit-flipped. The
  // pdf share (1.5%) keeps p99 inside the heavy tail, not on its edge.
  static const char *Light[] = {"dns", "ipv4udp", "gif", "elf"};
  for (const char *F : Light)
    for (unsigned S = 1; S <= 4; ++S)
      for (int I = 0; I < 22; ++I) {
        std::string Fs = F;
        if (Fs == "dns")
          Docs.push_back(make(Fs, S, dnsDoc(R, S)));
        else if (Fs == "ipv4udp")
          Docs.push_back(make(Fs, S, ipv4Doc(R, S)));
        else if (Fs == "gif")
          Docs.push_back(make(Fs, S, gifDoc(R, S)));
        else
          Docs.push_back(make(Fs, S, elfDoc(R, S, 512 * S)));
      }
  for (int I = 0; I < 6; ++I)
    Docs.push_back(make("pdf", 2, pdfDoc(R, 2, 1)));
  for (int I = 0; I < 2; ++I)
    Docs.push_back(make("gif", 16, gifDoc(R, 16)));
  for (size_t I = 0; I < 40; ++I) {
    // Cycle through the light formats so each loses the same share.
    Doc D = Docs[(I % 16) * 22 + R.range(0, 21)];
    if (I % 2 == 0) {
      D.Dmg = Damage::Truncated;
      D.Bytes.resize(R.range(D.Bytes.size() / 4, D.Bytes.size() - 1));
    } else {
      D.Dmg = Damage::BitFlip;
      D.Bytes[R.range(0, D.Bytes.size() - 1)] ^=
          static_cast<uint8_t>(1u << R.range(0, 7));
    }
    Docs.push_back(std::move(D));
  }
  shuffle(R, Docs);
  return Docs;
}

} // namespace

const WorkloadSpec *findWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : Workloads)
    if (W.Name == Name)
      return &W;
  return nullptr;
}

std::vector<Doc> makeCorpus(const WorkloadSpec &W, uint64_t Seed) {
  Rng R(Seed * 0x100000001b3ULL + W.Name.size());
  if (W.Name == "pdf-backtrack")
    return pdfCorpus(R);
  if (W.Name == "binary-roundtrip")
    return binaryCorpus(R);
  return svcCorpus(R);
}

std::vector<std::string> formatsOf(const std::vector<Doc> &Docs) {
  std::vector<std::string> Out;
  for (const Doc &D : Docs)
    if (std::find(Out.begin(), Out.end(), D.Format) == Out.end())
      Out.push_back(D.Format);
  return Out;
}

} // namespace perfbench
