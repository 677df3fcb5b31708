//===- perfbench/src/Loops.h - the measured loops ---------------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
#ifndef IPG_PERFBENCH_LOOPS_H
#define IPG_PERFBENCH_LOOPS_H

#include "Bench.h"
#include "Corpus.h"
#include "Setup.h"

#include "service/InputSource.h"

#include <memory>
#include <vector>

namespace perfbench {

/// The interpreter's outcome on one document: the independent reference
/// every other engine and the service are checked against.
struct Ref {
  ipg::Verdict V = ipg::Verdict::Reject;
  size_t Nodes = 0;
  uint64_t Digest = 0;
  ipg::EngineStats Stats;
  size_t Reachable = 0; ///< distinct nodes reachable from the result
};

std::vector<Ref> computeRefs(Setup &S, const std::vector<Doc> &Docs);

/// What the closed loop accumulates over its blocks.
struct ClosedOut {
  int Rounds = 0;
  std::vector<double> MbS[3];       ///< per untraced round, bytes / wall
  std::vector<double> TracedMbS[3]; ///< per traced round
  /// Fastest untraced parse of each document by each engine, and fastest
  /// reprint of each valid document, ns.
  std::vector<int64_t> BestNs[3];
  std::vector<int64_t> BestPrintNs;
  uint64_t Allocs[3] = {0, 0, 0}; ///< steady-state parse allocations
  uint64_t Parses[3] = {0, 0, 0};
  size_t GapBytes = 0; ///< gap bytes filled in one VM pass
};

/// One block of rounds, until \p Seconds pass (at least six rounds); round
/// r runs the engines in rotated order (r, r+1, r+2) so slow drift in a
/// noisy host spreads over all three. Every parse is checked against the
/// reference and every valid document's VM tree is reprinted and compared
/// with the input. With tracing, odd rounds are traced and add the
/// tree-handoff and inflate probes.
void runClosed(Setup &S, const std::vector<Doc> &Docs,
               const std::vector<Ref> &Refs, double Seconds, Tracer &T,
               Results &Res, ClosedOut &Out);

struct OpenOut {
  std::vector<double> LatUs;    ///< scheduled send -> consumer holds result
  std::vector<double> LateUs;   ///< how late the generator sent
  std::vector<double> SubmitUs; ///< client time inside submit()
  std::vector<uint32_t> DocOf;  ///< document of each LatUs sample
  std::vector<int64_t> SchedNs; ///< scheduled send time of each sample
  size_t BacklogMax = 0;
  size_t Rejects = 0;
  size_t Timeouts = 0;
};

/// Open loop: sends documents \p Seq into the service from this thread
/// with Poisson arrivals at \p Rate docs/s, polls for completions between
/// sends, and checks every verdict against the reference.
OpenOut runOpen(Setup &S, const std::vector<Doc> &Docs,
                const std::vector<std::shared_ptr<ipg::InputSource>> &Inputs,
                const std::vector<Ref> &Refs, const std::vector<uint32_t> &Seq,
                double Rate, Rng &R, Tracer &T, Results &Res);

} // namespace perfbench

#endif // IPG_PERFBENCH_LOOPS_H
