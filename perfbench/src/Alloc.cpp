//===- perfbench/src/Alloc.cpp - allocation counter and RSS ---------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replaces the global operator new with a per-thread counting wrapper so
/// allocs_per_parse can be read from outside the library. The count is
/// thread-local: the client thread reads its own parses' allocations
/// without atomics on the service workers' allocation paths.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdlib>
#include <new>
#include <sys/resource.h>

namespace {
thread_local uint64_t Allocs = 0;

void *countedAlloc(std::size_t N) {
  ++Allocs;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t N) { return countedAlloc(N); }
void *operator new[](std::size_t N) { return countedAlloc(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  ++Allocs;
  return std::malloc(N ? N : 1);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  ++Allocs;
  return std::malloc(N ? N : 1);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

uint64_t perfbench::threadAllocs() { return Allocs; }

double perfbench::peakRssMb() {
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // KiB on Linux
}
