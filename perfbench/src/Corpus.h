//===- perfbench/src/Corpus.h - seeded workload inputs ----------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads and the documents they send. Every byte comes from
/// the format synthesizers under a seed-derived spec, so the same seed
/// gives the same documents; the library only ever sees those bytes.
///
//===----------------------------------------------------------------------===//
#ifndef IPG_PERFBENCH_CORPUS_H
#define IPG_PERFBENCH_CORPUS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Per-workload constants. They are part of the benchmark's definition:
/// the same on every commit, so a faster program shows as lower latency
/// at the same offered rate rather than as a different experiment.
struct WorkloadSpec {
  std::string Name;
  /// Offered rate of the fixed-rate window, docs/s.
  double FixedRate;
  /// p99 latency limit of svc_max_docs_s, microseconds.
  double LimitUs;
  /// First rate of the ladder, docs/s; rung k offers Base * 2^(k/8).
  double LadderBase;
};

/// Known workloads, or nullptr.
const WorkloadSpec *findWorkload(const std::string &Name);

enum class Damage : uint8_t { None, Truncated, BitFlip };

struct Doc {
  std::string Format;
  unsigned Scale = 1;
  std::vector<uint8_t> Bytes;
  Damage Dmg = Damage::None;
  /// Compressed member streams (deflated zip entries) for the inflate probe.
  std::vector<std::vector<uint8_t>> Deflated;
  bool valid() const { return Dmg == Damage::None; }
};

std::vector<Doc> makeCorpus(const WorkloadSpec &W, uint64_t Seed);

/// Distinct formats of \p Docs, in first-use order.
std::vector<std::string> formatsOf(const std::vector<Doc> &Docs);

} // namespace perfbench

#endif // IPG_PERFBENCH_CORPUS_H
