//===- perfbench/src/main.cpp - the seeded IPG benchmark ------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One workload per process:
///
///   ipgbench --workload W --seed N --seconds S --trace 0|1
///            [--spans FILE] [--corrupt-reference 1]
///
/// Every workload runs the same pipeline over its own seeded documents:
/// set-up, the interpreter's reference parse of every document, a closed
/// loop rotating interp/vm/gen round by round (the VM tree of every valid
/// document is reprinted and compared with the input), then an open loop
/// into ParseService (VM mode, nproc - 1 workers): a warm-up and a
/// fixed-rate window. Untraced runs time the set-up three times between
/// three closed-loop blocks and report the end-to-end metrics. --trace 1
/// records spans around each call into a layer, adds the rate ladder, and
/// reports the per-layer metrics instead. Every output is checked; the
/// last stdout line is the JSON result. --corrupt-reference flips one byte
/// of a reference digest, which must make the run fail.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Corpus.h"
#include "Loops.h"
#include "Setup.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>

using namespace ipg;
using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Corrupt = false;
  std::string SpansFile;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--corrupt-reference")
      A.Corrupt = V == "1";
    else if (K == "--spans")
      A.SpansFile = V;
    else
      return false;
  }
  return (Argc % 2) == 1 && findWorkload(A.Workload) && A.Seconds > 0;
}

void census(const std::vector<Doc> &Docs, const std::vector<Ref> &Refs) {
  std::map<std::pair<std::string, unsigned>, std::pair<size_t, size_t>> By;
  size_t Bytes = 0, MemoDocs = 0, Inflated = 0, Damaged = 0, DamagedRej = 0;
  for (size_t I = 0; I < Docs.size(); ++I) {
    const Doc &D = Docs[I];
    auto &E = By[{D.Format, D.Scale}];
    ++E.first;
    E.second += D.Bytes.size();
    Bytes += D.Bytes.size();
    MemoDocs += Refs[I].Stats.MemoHits > 0;
    for (const auto &M : D.Deflated)
      Inflated += M.size();
    if (!D.valid()) {
      ++Damaged;
      DamagedRej += Refs[I].V == Verdict::Reject;
    }
  }
  std::printf("census: %zu documents, %zu bytes\n", Docs.size(), Bytes);
  for (const auto &[K, V] : By)
    std::printf("  %-8s scale %-3u docs %-4zu bytes %zu\n", K.first.c_str(),
                K.second, V.first, V.second);
  std::printf("  memo-hit docs %.3f, inflated byte share %.3f, damaged %.3f "
              "(rejected %.3f)\n",
              double(MemoDocs) / Docs.size(), double(Inflated) / Bytes,
              double(Damaged) / Docs.size(),
              Damaged ? double(DamagedRej) / Damaged : 0.0);
}

/// Uniformly random documents, \p N of them.
std::vector<uint32_t> randomSeq(Rng &R, size_t N, size_t Docs) {
  std::vector<uint32_t> S(N);
  for (uint32_t &X : S)
    X = static_cast<uint32_t>(R.range(0, Docs - 1));
  return S;
}

/// Warm-up traffic: 40 valid documents of every format, interleaved, so
/// each worker builds each format's engine with near certainty (a worker
/// misses one format with probability (1 - 1/workers)^40).
std::vector<uint32_t> warmSeq(Rng &R, const std::vector<Doc> &Docs) {
  std::vector<std::vector<uint32_t>> ByFormat;
  std::vector<std::string> Formats = formatsOf(Docs);
  ByFormat.resize(Formats.size());
  for (uint32_t I = 0; I < Docs.size(); ++I)
    if (Docs[I].valid())
      for (size_t F = 0; F < Formats.size(); ++F)
        if (Formats[F] == Docs[I].Format)
          ByFormat[F].push_back(I);
  std::vector<uint32_t> S;
  for (int Rep = 0; Rep < 40; ++Rep)
    for (const auto &Ids : ByFormat)
      S.push_back(Ids[R.range(0, Ids.size() - 1)]);
  return S;
}

/// The highest rung of the fixed ladder Base * 2^(k/8) whose p99 stays
/// under the limit with every request answered (a growing backlog shows as
/// a p99 over the limit). Coarse steps of four rungs find the bracket,
/// single rungs refine it.
double maxRate(Setup &S, const std::vector<Doc> &Docs,
               const std::vector<std::shared_ptr<InputSource>> &Inputs,
               const std::vector<Ref> &Refs, const WorkloadSpec &W, Rng &R,
               Tracer &T, Results &Res) {
  auto RateOf = [&](int K) { return W.LadderBase * std::exp2(K / 8.0); };
  auto Try = [&](int K) {
    double Rate = RateOf(K);
    size_t N = static_cast<size_t>(std::max(300.0, Rate * 0.3));
    OpenOut O = runOpen(S, Docs, Inputs, Refs, randomSeq(R, N, Docs.size()),
                        Rate, R, T, Res);
    double P99 = quantile(O.LatUs, 0.99);
    bool Ok = P99 <= W.LimitUs && O.Timeouts == 0;
    std::printf("  ladder %9.1f docs/s: p50 %9.1f us, p99 %9.1f us, "
                "backlog max %zu, n %zu -> %s\n",
                Rate, quantile(O.LatUs, 0.5), P99, O.BacklogMax,
                O.LatUs.size(), Ok ? "pass" : "fail");
    return Ok;
  };
  // A failed rung runs up to twice more: a host stall must not end the
  // climb.
  auto Pass = [&](int K) { return Try(K) || Try(K) || Try(K); };
  int K = 0;
  if (Pass(0)) {
    while (K < 64 && Pass(K + 4))
      K += 4;
  } else {
    do
      K -= 4;
    while (K > -64 && !Pass(K));
  }
  // Rung K passed and K + 4 failed (or lies beyond the ladder).
  for (int J = 0; J < 3 && Pass(K + 1); ++J)
    ++K;
  return RateOf(K);
}

/// Throughput from each document's fastest time: the host drifts by tens
/// of percent over seconds, and a document's best time is the least
/// disturbed measurement of the program's own speed.
double bestMbS(const std::vector<Doc> &Docs, const std::vector<int64_t> &Best) {
  double Bytes = 0, Ns = 0;
  for (size_t I = 0; I < Docs.size(); ++I)
    if (Best[I] != INT64_MAX) {
      Bytes += Docs[I].Bytes.size();
      Ns += Best[I];
    }
  return Ns > 0 ? Bytes * 1e3 / Ns : 0;
}

/// The fixed-rate window cut by schedule into 4-8 sub-windows of equal
/// sample count (at least 500 each when the window allows).
std::vector<std::vector<double>> subWindows(const OpenOut &O) {
  std::vector<std::pair<int64_t, double>> BySched;
  for (size_t I = 0; I < O.LatUs.size(); ++I)
    BySched.emplace_back(O.SchedNs[I], O.LatUs[I]);
  std::sort(BySched.begin(), BySched.end());
  size_t N = std::clamp<size_t>(BySched.size() / 500, 4, 8);
  std::vector<std::vector<double>> Out(N);
  for (size_t I = 0; I < BySched.size(); ++I)
    Out[I * N / BySched.size()].push_back(BySched[I].second);
  return Out;
}

/// Median over sub-windows of their \p Q-quantile: one host stall moves
/// one sub-window, not the reported latency.
double windowedQuantile(const std::vector<std::vector<double>> &Wins,
                        double Q) {
  std::vector<double> Per;
  for (const std::vector<double> &W : Wins)
    Per.push_back(quantile(W, Q));
  return median(Per);
}

/// Nesting and self-time checks over the recorded spans; prints the
/// per-layer table and writes the spans out.
void checkSpans(const Tracer &T, const std::string &File, Results &Res) {
  const std::vector<Span> &Sp = T.Spans;
  std::vector<std::vector<int32_t>> Kids(Sp.size());
  std::vector<int32_t> Roots;
  for (size_t I = 0; I < Sp.size(); ++I) {
    const Span &S = Sp[I];
    if (S.EndNs < S.StartNs)
      Res.mismatch(std::string("span ") + S.Name + " ends before it starts");
    if (S.Parent < 0) {
      Roots.push_back(static_cast<int32_t>(I));
      continue;
    }
    const Span &P = Sp[S.Parent];
    if (S.StartNs < P.StartNs || S.EndNs > P.EndNs)
      Res.mismatch(std::string("span ") + S.Name + " escapes its parent " +
                   P.Name);
    if (P.Doc >= 0 && S.Doc != P.Doc)
      Res.mismatch(std::string("span ") + S.Name + " serves another document");
    Kids[S.Parent].push_back(static_cast<int32_t>(I));
  }
  // Self time: the span minus the union of its children's intervals.
  std::vector<int64_t> Self(Sp.size());
  for (size_t I = 0; I < Sp.size(); ++I) {
    int64_t Covered = 0, Hi = Sp[I].StartNs;
    for (int32_t C : Kids[I]) { // children are recorded in start order
      int64_t Lo = std::max(Hi, Sp[C].StartNs);
      if (Sp[C].EndNs > Lo)
        Covered += Sp[C].EndNs - Lo;
      Hi = std::max(Hi, Sp[C].EndNs);
    }
    Self[I] = Sp[I].EndNs - Sp[I].StartNs - Covered;
  }
  // Each root's layers' self times must add up to the root's span.
  for (int32_t Root : Roots) {
    int64_t Sum = 0;
    std::vector<int32_t> Work{Root};
    while (!Work.empty()) {
      int32_t X = Work.back();
      Work.pop_back();
      Sum += Self[X];
      Work.insert(Work.end(), Kids[X].begin(), Kids[X].end());
    }
    if (Sum != Sp[Root].EndNs - Sp[Root].StartNs)
      Res.mismatch(std::string("self times of ") + Sp[Root].Name + " " +
                   std::to_string(Sp[Root].Doc) + " do not add up");
  }
  std::map<std::string, std::pair<size_t, std::pair<int64_t, int64_t>>> Table;
  for (size_t I = 0; I < Sp.size(); ++I) {
    auto &E = Table[Sp[I].Name];
    ++E.first;
    E.second.first += Sp[I].EndNs - Sp[I].StartNs;
    E.second.second += Self[I];
  }
  std::printf("layers (%zu spans):\n", Sp.size());
  for (const auto &[Name, E] : Table)
    std::printf("  %-18s n %-7zu total %10.3f ms  self %10.3f ms\n",
                Name.c_str(), E.first, E.second.first / 1e6,
                E.second.second / 1e6);
  if (File.empty())
    return;
  std::ofstream Out(File);
  Out << "[";
  for (size_t I = 0; I < Sp.size(); ++I)
    Out << (I ? ",\n" : "\n") << "{\"name\":\"" << Sp[I].Name
        << "\",\"start_ns\":" << Sp[I].StartNs << ",\"end_ns\":" << Sp[I].EndNs
        << ",\"parent\":" << Sp[I].Parent << ",\"doc\":" << Sp[I].Doc << "}";
  Out << "\n]\n";
}

/// Per-format and workload-wide layer metrics from the traced closed loop.
void layerMetrics(const Tracer &T, const std::vector<Doc> &Docs,
                  const std::vector<Ref> &Refs, const ClosedOut &C,
                  Results &Res) {
  std::map<std::string, std::vector<double>> PerFormat;
  std::vector<double> Inflate(Docs.size(), 0), VmParse(Docs.size(), 0);
  std::vector<int> VmCount(Docs.size(), 0);
  for (const Span &S : T.Spans) {
    if (S.Doc < 0)
      continue;
    const std::string &F = Docs[S.Doc].Format;
    double Us = (S.EndNs - S.StartNs) / 1e3;
    std::string Name = S.Name;
    for (int K = 0; K < 3; ++K)
      if (Name == ParseSpans[K])
        PerFormat["parse_us." + F + "." + KindNames[K]].push_back(Us);
    if (Name == "serialize.print")
      PerFormat["print_us." + F].push_back(Us);
    if (Name == "formats.inflate")
      Inflate[S.Doc] += Us;
    if (Name == "vm.parse") {
      VmParse[S.Doc] += Us;
      ++VmCount[S.Doc];
    }
  }
  std::printf("per-format layer metrics:\n");
  for (const auto &[Name, V] : PerFormat)
    std::printf("  %-24s %12.3f us, median of %zu\n", Name.c_str(),
                median(V), V.size());
  // The interpreter's counters (the reference run), per format and for the
  // whole workload.
  struct Counters {
    double Terms = 0, Bytes = 0, Hits = 0, Misses = 0, Nodes = 0, Reach = 0,
           Arena = 0, Depth = 0, Docs = 0;
    void add(const Ref &R, size_t Size) {
      Terms += R.Stats.TermsExecuted;
      Bytes += Size;
      Hits += R.Stats.MemoHits;
      Misses += R.Stats.MemoMisses;
      Nodes += R.Stats.NodesCreated;
      Reach += R.Reachable;
      Arena += R.Stats.ArenaBytesUsed;
      Depth = std::max(Depth, double(R.Stats.PeakDepth));
      ++Docs;
    }
    double hitRatio() const {
      return Hits + Misses ? Hits / (Hits + Misses) : 0;
    }
    double usefulRatio() const { return Nodes ? Reach / Nodes : 0; }
  };
  Counters All;
  std::map<std::string, Counters> ByFormat;
  for (size_t I = 0; I < Docs.size(); ++I) {
    All.add(Refs[I], Docs[I].Bytes.size());
    ByFormat[Docs[I].Format].add(Refs[I], Docs[I].Bytes.size());
  }
  for (const auto &[F, E] : ByFormat) {
    const std::pair<const char *, double> Rows[] = {
        {"terms_per_byte", E.Terms / E.Bytes},
        {"memo_hits", E.Hits},
        {"memo_misses", E.Misses},
        {"memo_hit_ratio", E.hitRatio()},
        {"nodes_created", E.Nodes},
        {"useful_node_ratio", E.usefulRatio()},
        {"arena_kb", E.Arena / E.Docs / 1024},
        {"peak_depth", E.Depth}};
    for (const auto &[Name, V] : Rows)
      std::printf("  %-24s %12.4f\n", (std::string(Name) + "." + F).c_str(),
                  V);
  }

  for (int K = 0; K < 3; ++K) {
    Res.metric(std::string("parse_us.") + KindNames[K],
               median(T.durationsUs(ParseSpans[K])), "us");
    Res.metric(std::string("allocs_per_parse.") + KindNames[K],
               C.Parses[K] ? double(C.Allocs[K]) / C.Parses[K] : 0, "count");
  }
  Res.metric("terms_per_byte", All.Terms / All.Bytes, "terms/B");
  Res.metric("memo_hits", All.Hits, "count");
  Res.metric("memo_misses", All.Misses, "count");
  Res.metric("memo_hit_ratio", All.hitRatio(), "ratio");
  Res.metric("nodes_created", All.Nodes, "count");
  Res.metric("useful_node_ratio", All.usefulRatio(), "ratio");
  Res.metric("arena_kb", All.Arena / All.Docs / 1024, "KB");
  Res.metric("peak_depth", All.Depth, "count");

  double InflateUs = 0, InflateDocs = 0, ZipParseUs = 0;
  for (size_t I = 0; I < Docs.size(); ++I)
    if (!Docs[I].Deflated.empty() && VmCount[I]) {
      // Both probes run once per traced VM pass over the document.
      InflateUs += Inflate[I] / VmCount[I];
      ZipParseUs += VmParse[I] / VmCount[I];
      ++InflateDocs;
    }
  Res.metric("inflate_us", InflateDocs ? InflateUs / InflateDocs : 0, "us");
  Res.metric("inflate_share", ZipParseUs ? InflateUs / ZipParseUs : 0,
             "ratio");
  Res.metric("print_us", median(T.durationsUs("serialize.print")), "us");
  Res.metric("print.gap_bytes", double(C.GapBytes), "bytes");
  Res.metric("tree.detach_us", median(T.durationsUs("tree.detach")), "us");
  Res.metric("tree.adopt_us", median(T.durationsUs("tree.adopt")), "us");
}

void printJson(const Results &Res) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Res.correct() ? "true" : "false",
              static_cast<unsigned long long>(Res.attempted()),
              static_cast<unsigned long long>(Res.failed()));
  bool First = true;
  for (const auto &[Name, V] : Res.all()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), V.first, V.second.c_str());
    First = false;
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: ipgbench --workload pdf-backtrack|binary-roundtrip|"
                 "svc-stream --seed N --seconds S --trace 0|1 [--spans FILE] "
                 "[--corrupt-reference 1]\n");
    return 2;
  }
  const WorkloadSpec &W = *findWorkload(A.Workload);
  Results Res;
  Tracer T;
  T.On = A.Trace;

  std::vector<Doc> Docs = makeCorpus(W, A.Seed);
  std::vector<std::string> Formats = formatsOf(Docs);

  // Set-up: the library's set-up calls only. Untraced runs time it three
  // times (median); the reference work and the loops run between them.
  Setup S;
  std::vector<double> SetupS;
  auto TimedSetup = [&] {
    S = Setup();
    int64_t T0 = nowNs();
    S = buildSetup(Formats, Res);
    SetupS.push_back((nowNs() - T0) / 1e9);
    return static_cast<bool>(S.Svc);
  };
  if (A.Trace ? !(S = buildSetupTraced(Formats, T, Res)).Svc : !TimedSetup()) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }

  std::vector<Ref> Refs = computeRefs(S, Docs);
  census(Docs, Refs);
  if (A.Corrupt)
    for (size_t I = 0; I < Docs.size(); ++I)
      if (Refs[I].V == Verdict::Accept) {
        Refs[I].Digest ^= 0xff; // one byte of the reference
        break;
      }

  // Untraced runs interleave three closed-loop blocks with the set-up
  // repetitions, so each document's best time is drawn from most of the
  // run rather than one stretch of it.
  ClosedOut C;
  if (A.Trace) {
    runClosed(S, Docs, Refs, A.Seconds * 0.5, T, Res, C);
  } else {
    for (int Block = 0; Block < 3; ++Block) {
      if (Block > 0 && !TimedSetup()) {
        std::fprintf(stderr, "set-up failed\n");
        return 1;
      }
      runClosed(S, Docs, Refs, A.Seconds * 0.7 / 3, T, Res, C);
    }
  }
  // Peak memory of set-up and the engine loops; read before the service
  // stage, whose backlog during a host stall would otherwise set it.
  const double RssMb = peakRssMb();

  std::vector<std::shared_ptr<InputSource>> Inputs;
  for (const Doc &D : Docs)
    Inputs.push_back(InputSource::fromBytes(D.Bytes));
  Rng R(A.Seed ^ 0x5eed5eed5eedULL);
  const bool Tracing = T.On;
  T.On = false; // warm-up and ladder are not traced
  runOpen(S, Docs, Inputs, Refs, warmSeq(R, Docs), W.FixedRate, R, T, Res);

  std::vector<double> Bare(Docs.size(), 0);
  if (Tracing) {
    // The same documents through one bare VM on this thread.
    for (size_t I = 0; I < Docs.size(); ++I) {
      std::vector<double> Us;
      Engine &E = *S.of(Docs[I].Format).E[1];
      for (int Rep = 0; Rep < 3; ++Rep) {
        int64_t T0 = nowNs();
        (void)E.parse(ByteSpan::of(Docs[I].Bytes));
        Us.push_back((nowNs() - T0) / 1e3);
      }
      Bare[I] = median(Us);
    }
  }

  // The fixed-rate window: Poisson arrivals at the workload's rate.
  T.On = Tracing;
  const size_t FixedN =
      static_cast<size_t>(std::max(400.0, W.FixedRate * A.Seconds * 0.3));
  OpenOut O = runOpen(S, Docs, Inputs, Refs, randomSeq(R, FixedN, Docs.size()),
                      W.FixedRate, R, T, Res);
  T.On = false;
  std::vector<std::vector<double>> Wins = subWindows(O);
  const double P50 = windowedQuantile(Wins, 0.5);
  const double P99 = windowedQuantile(Wins, 0.99);
  std::printf("service: %.0f docs/s offered, %zu samples in %zu windows, p50 "
              "%.1f us, p99 %.1f us (whole window: %.1f / %.1f us), first "
              "window p99 %.1f us, generator late p99 %.1f us, backlog max "
              "%zu\n",
              W.FixedRate, O.LatUs.size(), Wins.size(), P50, P99,
              quantile(O.LatUs, 0.5), quantile(O.LatUs, 0.99),
              quantile(Wins[0], 0.99), quantile(O.LateUs, 0.99),
              O.BacklogMax);

  for (int K = 0; K < 3; ++K) {
    const std::vector<double> &V = C.MbS[K];
    std::printf("parse_mb_s.%s: best-time %.3f; rounds (%zu) min %.3f q1 "
                "%.3f median %.3f q3 %.3f max %.3f\n",
                KindNames[K], bestMbS(Docs, C.BestNs[K]), V.size(),
                quantile(V, 0), quantile(V, 0.25), median(V),
                quantile(V, 0.75), quantile(V, 1));
  }

  double FailFrac =
      Res.attempted() ? double(Res.failed()) / Res.attempted() : 0;
  if (!A.Trace) {
    Res.metric("setup_s", median(SetupS), "s");
    for (int K = 0; K < 3; ++K)
      Res.metric(std::string("parse_mb_s.") + KindNames[K],
                 bestMbS(Docs, C.BestNs[K]), "MB/s");
    Res.metric("print_mb_s", bestMbS(Docs, C.BestPrintNs), "MB/s");
    Res.metric("peak_rss_mb", RssMb, "MB");
    std::printf("end-to-end: setup_s %.3f (median of %zu), %d closed-loop "
                "rounds, fail_frac %.4f (%llu of %llu)\n",
                median(SetupS), SetupS.size(), C.Rounds, FailFrac,
                static_cast<unsigned long long>(Res.failed()),
                static_cast<unsigned long long>(Res.attempted()));
  } else {
    const double MaxRate = maxRate(S, Docs, Inputs, Refs, W, R, T, Res);
    layerMetrics(T, Docs, Refs, C, Res);
    std::vector<double> Over, BareOf;
    for (size_t I = 0; I < O.LatUs.size(); ++I) {
      Over.push_back(O.LatUs[I] - Bare[O.DocOf[I]]);
      BareOf.push_back(Bare[O.DocOf[I]]);
    }
    std::map<std::string, std::vector<double>> BareBy;
    for (size_t I = 0; I < Docs.size(); ++I)
      BareBy[Docs[I].Format].push_back(Bare[I]);
    for (const auto &[F, V] : BareBy)
      std::printf("  %-24s %12.3f us, median of %zu\n",
                  ("svc.bare_parse_us." + F).c_str(), median(V), V.size());
    Res.metric("svc_p50_us", P50, "us");
    Res.metric("svc_p99_us", P99, "us");
    Res.metric("svc_max_docs_s", MaxRate, "docs/s");
    Res.metric("svc.bare_parse_us", median(BareOf), "us");
    Res.metric("svc.overhead_us_p50", quantile(Over, 0.5), "us");
    Res.metric("svc.overhead_us_p99", quantile(Over, 0.99), "us");
    Res.metric("svc.submit_us", median(O.SubmitUs), "us");
    Res.metric("svc.backlog_max", double(O.BacklogMax), "count");
    Res.metric("svc.rejects", double(O.Rejects), "count");
    Res.metric("svc.timeouts", double(O.Timeouts), "count");
    Res.metric("svc.samples", double(O.LatUs.size()), "count");
    Res.metric("svc.first_window_p99_us", quantile(Wins[0], 0.99), "us");
    Res.metric("client.late_us_p99", quantile(O.LateUs, 0.99), "us");
    Res.metric("fail_frac", FailFrac, "ratio");
    // Tracing overhead: untraced against traced rounds of the same run.
    double Over3 = 0;
    std::printf("tracing overhead (closed loop, same run):\n");
    for (int K = 0; K < 3; ++K) {
      double U = median(C.MbS[K]), Tr = median(C.TracedMbS[K]);
      double Pct = Tr > 0 ? (U / Tr - 1) * 100 : 0;
      Over3 += Pct / 3;
      std::printf("  %-6s untraced %10.3f MB/s  traced %10.3f MB/s  "
                  "overhead %+.2f%%\n",
                  KindNames[K], U, Tr, Pct);
    }
    Res.metric("trace.overhead_pct", Over3, "%");
    checkSpans(T, A.SpansFile, Res);
  }
  S = Setup(); // stop the workers before reporting
  printJson(Res);
  return Res.correct() ? 0 : 1;
}
