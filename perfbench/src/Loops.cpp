//===- perfbench/src/Loops.cpp - the measured loops -----------------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Loops.h"

#include "formats/MiniZlib.h"
#include "serialize/Printer.h"
#include "support/Casting.h"

#include <climits>
#include <cmath>
#include <future>
#include <unordered_set>

using namespace ipg;

namespace perfbench {

namespace {

struct Sig {
  size_t Nodes = 0;
  uint64_t Digest = 0;
};

void mix(uint64_t &H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
}

/// Node count plus a digest of the leaf spans and node/array names, in
/// tree order (shared subtrees count once per occurrence, as every engine
/// exposes them).
Sig signature(const ParseTree &Root) {
  Sig S;
  S.Digest = 1469598103934665603ULL;
  std::vector<const ParseTree *> Work{&Root};
  while (!Work.empty()) {
    const ParseTree *Cur = Work.back();
    Work.pop_back();
    ++S.Nodes;
    switch (Cur->kind()) {
    case ParseTree::Kind::Leaf: {
      const auto *L = cast<LeafTree>(Cur);
      mix(S.Digest, static_cast<uint64_t>(L->offset()));
      mix(S.Digest, L->length() * 2 + (L->isOpaque() ? 1 : 0));
      break;
    }
    case ParseTree::Kind::Node: {
      const auto *N = cast<NodeTree>(Cur);
      mix(S.Digest, N->name());
      size_t Mark = Work.size();
      for (TreeRef C : N->children())
        Work.push_back(C.get());
      std::reverse(Work.begin() + Mark, Work.end());
      break;
    }
    case ParseTree::Kind::Array: {
      const auto *A = cast<ArrayTree>(Cur);
      mix(S.Digest, A->elemName() + (uint64_t{A->size()} << 32));
      size_t Mark = Work.size();
      for (TreeRef C : A->elements())
        Work.push_back(C.get());
      std::reverse(Work.begin() + Mark, Work.end());
      break;
    }
    }
  }
  return S;
}

/// Distinct NodeTrees reachable from \p Root (what NodesCreated counts).
size_t reachableNodes(const ParseTree &Root) {
  size_t Nodes = 0;
  std::unordered_set<const ParseTree *> Seen;
  std::vector<const ParseTree *> Work{&Root};
  while (!Work.empty()) {
    const ParseTree *Cur = Work.back();
    Work.pop_back();
    if (!Seen.insert(Cur).second)
      continue;
    if (const auto *N = dyn_cast<NodeTree>(Cur)) {
      ++Nodes;
      for (TreeRef C : N->children())
        Work.push_back(C.get());
    } else if (const auto *A = dyn_cast<ArrayTree>(Cur))
      for (TreeRef C : A->elements())
        Work.push_back(C.get());
  }
  return Nodes;
}

Verdict verdictOf(const Expected<TreePtr> &R, const Engine &E) {
  return R ? E.stats().ParseVerdict
           : (E.stats().TimedOut ? Verdict::Timeout : Verdict::Reject);
}

/// Formats whose trees do not cover every input byte print with the
/// input as background; the filled bytes are counted as gaps.
bool fillsGaps(const std::string &Format) {
  return Format == "pe" || Format == "pdf";
}

/// Checks one engine result against the reference; true when it failed.
bool checkParse(const Doc &D, const Ref &Ref, const Expected<TreePtr> &R,
                const Engine &E, const char *Kind, size_t I, Results &Res) {
  Verdict V = verdictOf(R, E);
  std::string Where = std::string(Kind) + " doc " + std::to_string(I) + " (" +
                      D.Format + ")";
  if (V != Ref.V)
    Res.mismatch(Where + ": verdict " + verdictName(V) + ", reference " +
                 verdictName(Ref.V));
  if (D.valid() && V != Verdict::Accept)
    Res.mismatch(Where + ": valid input not accepted");
  if (R && V == Ref.V) {
    Sig S = signature(**R);
    if (S.Nodes != Ref.Nodes || S.Digest != Ref.Digest)
      Res.mismatch(Where + ": tree differs from the interpreter's");
  }
  return V == Verdict::Timeout || (D.valid() && V != Verdict::Accept);
}

} // namespace

std::vector<Ref> computeRefs(Setup &S, const std::vector<Doc> &Docs) {
  std::vector<Ref> Refs(Docs.size());
  for (size_t I = 0; I < Docs.size(); ++I) {
    Engine &E = *S.of(Docs[I].Format).E[0];
    Expected<TreePtr> R = E.parse(ByteSpan::of(Docs[I].Bytes));
    Ref &F = Refs[I];
    F.V = verdictOf(R, E);
    F.Stats = E.stats();
    if (R) {
      Sig G = signature(**R);
      F.Nodes = G.Nodes;
      F.Digest = G.Digest;
      F.Reachable = reachableNodes(**R);
    }
  }
  return Refs;
}

void runClosed(Setup &S, const std::vector<Doc> &Docs,
               const std::vector<Ref> &Refs, double Seconds, Tracer &T,
               Results &Res, ClosedOut &Out) {
  if (Out.BestPrintNs.empty()) {
    for (std::vector<int64_t> &B : Out.BestNs)
      B.assign(Docs.size(), INT64_MAX);
    Out.BestPrintNs.assign(Docs.size(), INT64_MAX);
  }
  const bool Tracing = T.On;
  const int64_t End = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  const int First = Out.Rounds;
  for (int &Round = Out.Rounds; Round < First + 6 || nowNs() < End;
       ++Round) {
    T.On = Tracing && Round % 2 == 1;
    for (int Step = 0; Step < 3; ++Step) {
      const int K = (Round + Step) % 3;
      int64_t ParseNs = 0;
      size_t Bytes = 0, Gaps = 0;
      for (size_t I = 0; I < Docs.size(); ++I) {
        const Doc &D = Docs[I];
        FormatEngines &F = S.of(D.Format);
        Engine &E = *F.E[K];
        Scope DocSpan(T, "doc", static_cast<int64_t>(I));
        uint64_t A0 = threadAllocs();
        int64_t T0 = nowNs();
        Expected<TreePtr> R = [&] {
          Scope P(T, ParseSpans[K], static_cast<int64_t>(I));
          return E.parse(ByteSpan::of(D.Bytes));
        }();
        const int64_t Ns = nowNs() - T0;
        ParseNs += Ns;
        if (!T.On)
          Out.BestNs[K][I] = std::min(Out.BestNs[K][I], Ns);
        if (Round >= 3) {
          Out.Allocs[K] += threadAllocs() - A0;
          ++Out.Parses[K];
        }
        Bytes += D.Bytes.size();
        Res.attempt(checkParse(D, Refs[I], R, E, KindNames[K], I, Res));
        if (K != 1 || !R || !D.valid())
          continue;

        serialize::PrintOptions PO;
        if (fillsGaps(D.Format)) {
          PO.Gaps = serialize::GapPolicy::FillFromBackground;
          PO.Background = ByteSpan::of(D.Bytes);
        }
        int64_t P0 = nowNs();
        Expected<serialize::PrintResult> P = [&] {
          Scope Sp(T, "serialize.print", static_cast<int64_t>(I));
          return serialize::printTree(**R, F.Load->G, F.BB.get(), PO);
        }();
        const int64_t PNs = nowNs() - P0;
        if (!T.On)
          Out.BestPrintNs[I] = std::min(Out.BestPrintNs[I], PNs);
        bool Exact = P && P->Bytes == D.Bytes;
        if (!Exact)
          Res.mismatch("vm doc " + std::to_string(I) + " (" + D.Format +
                       "): reprint is not byte-exact" +
                       (P ? "" : ": " + P.message()));
        Res.attempt(!Exact);
        if (P)
          Gaps += P->GapBytes;
        if (!T.On)
          continue;
        // The result handoff a service worker performs, on this thread.
        FrozenTree Frozen = [&] {
          Scope Sp(T, "tree.detach", static_cast<int64_t>(I));
          return R->detach();
        }();
        {
          Scope Sp(T, "tree.adopt", static_cast<int64_t>(I));
          TreeStore *Store = Frozen.releaseStore();
          if (!E.adoptStore(Store))
            TreeStore::destroy(Store);
        }
        for (const std::vector<uint8_t> &M : D.Deflated) {
          Scope Sp(T, "formats.inflate", static_cast<int64_t>(I));
          size_t Used = 0;
          if (!formats::miniZlibDecompress(ByteSpan::of(M), Used))
            Res.mismatch("inflate failed on a member of doc " +
                         std::to_string(I));
        }
      }
      double MbS = ParseNs > 0 ? Bytes * 1e3 / ParseNs : 0;
      (T.On ? Out.TracedMbS : Out.MbS)[K].push_back(MbS);
      if (K == 1)
        Out.GapBytes = Gaps;
    }
  }
  T.On = Tracing;
}

OpenOut runOpen(Setup &S, const std::vector<Doc> &Docs,
                const std::vector<std::shared_ptr<InputSource>> &Inputs,
                const std::vector<Ref> &Refs, const std::vector<uint32_t> &Seq,
                double Rate, Rng &R, Tracer &T, Results &Res) {
  struct Pending {
    std::future<ParseResult> F;
    int64_t SchedNs;
    uint32_t Doc;
  };
  OpenOut Out;
  std::vector<Pending> Live;
  size_t Next = 0;
  int64_t Sched = nowNs();
  auto Gap = [&] {
    return static_cast<int64_t>(-std::log(1.0 - R.unit()) / Rate * 1e9);
  };
  while (Next < Seq.size() || !Live.empty()) {
    int64_t Now = nowNs();
    if (Next < Seq.size() && Now >= Sched) {
      uint32_t Id = Seq[Next++];
      std::future<ParseResult> F;
      {
        Scope Sp(T, "service.submit", Id);
        F = S.Svc->submit(ParseRequest{Docs[Id].Format, Inputs[Id]});
      }
      int64_t Sent = nowNs();
      Out.LateUs.push_back((Now - Sched) / 1e3);
      Out.SubmitUs.push_back((Sent - Now) / 1e3);
      Live.push_back(Pending{std::move(F), Sched, Id});
      Out.BacklogMax = std::max(Out.BacklogMax, Live.size());
      Sched += Gap();
      continue;
    }
    for (size_t I = 0; I < Live.size();) {
      if (Live[I].F.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++I;
        continue;
      }
      int64_t Done = nowNs();
      ParseResult PR = Live[I].F.get();
      const uint32_t Id = Live[I].Doc;
      Out.LatUs.push_back((Done - Live[I].SchedNs) / 1e3);
      Out.DocOf.push_back(Id);
      Out.SchedNs.push_back(Live[I].SchedNs);
      Verdict V = PR.verdict();
      Out.Rejects += V == Verdict::Reject;
      Out.Timeouts += V == Verdict::Timeout;
      if (V != Refs[Id].V)
        Res.mismatch("service doc " + std::to_string(Id) + " (" +
                     Docs[Id].Format + "): verdict " + verdictName(V) +
                     ", reference " + verdictName(Refs[Id].V));
      bool Failed = V == Verdict::Timeout ||
                    (Docs[Id].valid() && V != Verdict::Accept);
      Res.attempt(Failed);
      Live[I] = std::move(Live.back());
      Live.pop_back();
    }
  }
  return Out;
}

} // namespace perfbench
