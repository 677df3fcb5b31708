//===- perfbench/src/Bench.h - shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, seeded RNG, order statistics, the result sink (metrics by name
/// and unit, correctness failures), the per-thread allocation counter and
/// the span recorder of traced runs. Everything here belongs to the
/// benchmark; the library is only ever called through its public headers.
///
//===----------------------------------------------------------------------===//
#ifndef IPG_PERFBENCH_BENCH_H
#define IPG_PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// splitmix64: small, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  uint64_t range(uint64_t Lo, uint64_t Hi) {
    return Lo + next() % (Hi - Lo + 1);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

/// Nearest-rank quantile (Q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(Q * static_cast<double>(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Metrics (name -> value, unit) plus the run's correctness ledger.
class Results {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// A wrong output: the run reports correct=false and exits nonzero.
  void mismatch(const std::string &What) {
    if (Mismatches++ < 20)
      std::fprintf(stderr, "MISMATCH: %s\n", What.c_str());
  }
  /// An attempted operation (parse, print, request) and whether it failed
  /// (errored, timed out, or a valid input that did not Accept).
  void attempt(bool Failed) {
    ++Attempted;
    NumFailed += Failed ? 1 : 0;
  }
  bool correct() const { return Mismatches == 0; }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return NumFailed; }
  const std::map<std::string, std::pair<double, std::string>> &all() const {
    return Metrics;
  }

private:
  std::map<std::string, std::pair<double, std::string>> Metrics;
  uint64_t Mismatches = 0;
  uint64_t Attempted = 0;
  uint64_t NumFailed = 0;
};

/// Heap allocations made by the calling thread so far (the benchmark
/// replaces the global operator new; see Alloc.cpp).
uint64_t threadAllocs();

/// Peak resident set of the process, MB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Spans of the traced run
//===----------------------------------------------------------------------===//

/// One timed call into a layer: name, start, end, enclosing span, and the
/// document it served (-1 for set-up work).
struct Span {
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int32_t Parent;
  int64_t Doc;
};

/// Records spans in memory on the client thread; written out at exit.
/// When off, scopes cost one branch and read no clock.
class Tracer {
public:
  bool On = false;
  std::vector<Span> Spans;

  int32_t begin(const char *Name, int64_t Doc) {
    if (!On)
      return -1;
    Spans.push_back(Span{Name, nowNs(), 0, Cur, Doc});
    Cur = static_cast<int32_t>(Spans.size() - 1);
    return Cur;
  }
  void end(int32_t Id) {
    if (Id < 0)
      return;
    Spans[Id].EndNs = nowNs();
    Cur = Spans[Id].Parent;
  }
  /// Sum of the durations of spans named \p Name, ns.
  int64_t totalNs(const std::string &Name) const {
    int64_t T = 0;
    for (const Span &S : Spans)
      if (Name == S.Name)
        T += S.EndNs - S.StartNs;
    return T;
  }
  /// Durations of spans named \p Name, microseconds.
  std::vector<double> durationsUs(const std::string &Name) const {
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (Name == S.Name)
        Out.push_back((S.EndNs - S.StartNs) / 1e3);
    return Out;
  }

private:
  int32_t Cur = -1;
};

class Scope {
public:
  Scope(Tracer &T, const char *Name, int64_t Doc = -1)
      : T(T), Id(T.begin(Name, Doc)) {}
  ~Scope() { T.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int32_t Id;
};

} // namespace perfbench

#endif // IPG_PERFBENCH_BENCH_H
