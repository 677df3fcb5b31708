//===- support/GenRuntime.h - Shared parse-time semantics ------*- C++ -*-===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for the parse-time semantics shared by the
/// interpreter (runtime/Interp.cpp, expr/Eval.cpp) and by every parser the
/// code generator emits. This file is BOTH compiled into ipg_core AND
/// embedded verbatim into each generated parser (CMake wraps it into
/// GenRuntimeEmbed.inc, which codegen/CppEmitter.cpp pastes ahead of the
/// emitted rule functions), so the two execution modes cannot drift: a
/// semantic change here changes both at once.
///
/// Because of that dual life the file must stay self-contained: C++17,
/// direct std includes only, no other project headers. Everything lives in
/// namespace ipg_rt (not ipg) so generated parsers stay dependency-free.
///
/// Contents:
///
/// 1. Shared scalar semantics of Figure 8 — the first-update `updStartEnd`
///    (start/end appear in an environment only once a term actually touches
///    bytes; the first touch seeds them, later touches min/max them — there
///    is NO pre-seeded `start = EOI` / `end = 0` sentinel, so reading
///    `X.start` of a byte-untouched node fails with partiality), the
///    T-NTSucc child-span defaults (`value_or(sub-EOI)` / `value_or(0)`),
///    the interval guard, the read guards, and the checked arithmetic
///    (div/mod/shift) of the expression language.
///
/// 2. The shared memoization table: IntervalKey packs (rule, interval)
///    into 128 bits and FlatIntervalMap is the insert-only open-addressing
///    table with O(1) generational clear. The in-process engines use
///    it through runtime/ParseScratch.h; generated parsers embed it
///    directly (Ctx memoizes every non-local (rule, interval) result,
///    closing the paper's Fig.-12 gap on backtracking-heavy grammars).
///
/// 3. The embedded runtime of generated parsers: a bump-arena node store
///    with index-based children, flat attribute environments keyed by
///    emitter-assigned ids (O(1) through SlotIndex), lazy shifted-node
///    views (T-NTSucc shifts are recorded as a per-view delta and resolved
///    at read time instead of copying environments), zero-copy leaves
///    aliasing the input, per-depth frame pools, and the blackbox
///    registration hook (Section 3.4) — the same design the interpreter's
///    TreeStore uses (runtime/ParseTree.h), recycled across parses so
///    steady-state parsing performs no heap allocation.
///
/// 4. The cross-module tree export (exportTree): one linear pass that
///    hands each object reachable from a parse's root to a host callback
///    exactly once, children before parents, so the in-process generated
///    engine (codegen/GenEngine.cpp) rebuilds the tree with its sharing
///    intact. Printing and canonical dumps happen on that host tree
///    (serialize/Printer.h), so the runtime carries neither.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SUPPORT_GENRUNTIME_H
#define IPG_SUPPORT_GENRUNTIME_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace ipg_rt {

//===----------------------------------------------------------------------===//
// Shared scalar semantics (used by the interpreter AND generated parsers).
//===----------------------------------------------------------------------===//

/// Recursion-guard DEFAULT shared with EngineOptions::MaxDepth's. Like
/// the interpreter's, the limit is a HARD error (Ctx::hardFail): it
/// aborts the whole parse rather than soft-failing into sibling
/// alternatives, so a fallback alternative cannot mask runaway
/// recursion in one execution mode but not the other. The effective
/// limit is runtime-settable per parser (Ctx::setDepthLimit, surfaced
/// as Parser::setDepthLimit) so both engines can honor one
/// EngineOptions::MaxDepth value.
inline constexpr int MaxDepth = 8192;

/// Attribute ids of the special start/end attributes in generated
/// environments. The emitter guarantees its name table begins with
/// "start", "end" in exactly this order.
enum : unsigned { IdStart = 0, IdEnd = 1 };

/// The interval guard of every positional term: [Lo, Hi) must be a
/// sub-window of the local input [0, Eoi).
inline bool intervalOk(long long Lo, long long Hi, long long Eoi) {
  return 0 <= Lo && Lo <= Hi && Hi <= Eoi;
}

/// updStartEnd of Figure 8, first-update form: if \p Touched, seed
/// start/end on their first update and min/max afterwards. \p EnvT needs
/// `bool getAttr(KeyT, long long &)` over its own bindings and
/// `void setAttr(KeyT, long long)`. Encoding the first update via
/// "absent -> take Lo/Hi directly" (rather than defaulting S = 0) is what
/// makes the min-clamps-to-0 trap structurally impossible for structures
/// that do not begin at offset 0.
template <class EnvT, class KeyT>
inline void updStartEnd(EnvT &E, KeyT StartKey, KeyT EndKey, long long Lo,
                        long long Hi, bool Touched) {
  if (!Touched)
    return;
  long long S = 0, En = 0;
  E.setAttr(StartKey, E.getAttr(StartKey, S) && S < Lo ? S : Lo);
  E.setAttr(EndKey, E.getAttr(EndKey, En) && En > Hi ? En : Hi);
}

/// The T-NTSucc defaults for a finished subtree as seen by its parent
/// (before shifting into the parent's coordinates): an untouched subtree —
/// no start/end in its environment — reads as [sub-EOI, 0), the identity
/// elements of the min/max in updStartEnd.
inline void childSpan(bool HasStart, long long StartV, bool HasEnd,
                      long long EndV, long long SubEoi, long long &BStart,
                      long long &BEnd) {
  BStart = HasStart ? StartV : SubEoi;
  BEnd = HasEnd ? EndV : 0;
}

/// Two's-complement wrapping +, -, *: the expression language's
/// arithmetic is total, so overflow wraps instead of being UB. Computed
/// in unsigned arithmetic and converted back (modular since C++20, and
/// what every supported compiler does before that).
inline long long wrapAdd(long long L, long long R) {
  return static_cast<long long>(static_cast<unsigned long long>(L) +
                                static_cast<unsigned long long>(R));
}

inline long long wrapSub(long long L, long long R) {
  return static_cast<long long>(static_cast<unsigned long long>(L) -
                                static_cast<unsigned long long>(R));
}

inline long long wrapMul(long long L, long long R) {
  return static_cast<long long>(static_cast<unsigned long long>(L) *
                                static_cast<unsigned long long>(R));
}

/// The alternative guard check (lower/LIR.h's lir::AltGuard): the byte at
/// position \p Off of the window [Data, Data + Size) — or at Size - Off
/// when \p FromEoi — must be in the 256-bit set \p Set. A position outside
/// the window fails the guard: the guarded term could not match there.
inline bool guardAdmits(const unsigned char *Data, size_t Size, bool FromEoi,
                        size_t Off, const unsigned long long *Set) {
  size_t P = Off;
  if (FromEoi) {
    if (Off > Size)
      return false;
    P = Size - Off;
  }
  if (P >= Size)
    return false;
  const unsigned B = Data[P];
  return (Set[B >> 6] >> (B & 63u)) & 1u;
}

/// Division/modulo fail (partiality, not UB) on zero divisors and on the
/// one overflowing quotient.
inline bool checkedDiv(long long L, long long R, long long &Out) {
  if (R == 0 || (L == (-9223372036854775807LL - 1) && R == -1))
    return false;
  Out = L / R;
  return true;
}

inline bool checkedMod(long long L, long long R, long long &Out) {
  if (R == 0 || (L == (-9223372036854775807LL - 1) && R == -1))
    return false;
  Out = L % R;
  return true;
}

/// Shifts fail outside [0, 62]; the left shift is performed unsigned so it
/// is defined for every operand the guard admits.
inline bool checkedShl(long long L, long long R, long long &Out) {
  if (R < 0 || R > 62)
    return false;
  Out = static_cast<long long>(static_cast<unsigned long long>(L) << R);
  return true;
}

inline bool checkedShr(long long L, long long R, long long &Out) {
  if (R < 0 || R > 62)
    return false;
  Out = L >> R;
  return true;
}

/// ReadKind encoding shared between the interpreter and the emitter. The
/// numeric values MUST mirror ipg::ReadKind's declaration order
/// (expr/Expr.h); runtime/Interp.cpp static_asserts the correspondence.
enum : unsigned {
  RK_U8,
  RK_U16Le,
  RK_U32Le,
  RK_U64Le,
  RK_U16Be,
  RK_U32Be,
  RK_BtoiLe,
  RK_BtoiBe,
};

/// Fixed width/endianness of a read kind. Returns false for the
/// variable-width btoi kinds (the caller supplies the [lo, hi) window);
/// BigEndian is still set for them.
inline bool readKindSpec(unsigned RK, long long &Width, bool &BigEndian) {
  BigEndian = RK == RK_U16Be || RK == RK_U32Be || RK == RK_BtoiBe;
  switch (RK) {
  case RK_U8:
    Width = 1;
    return true;
  case RK_U16Le:
  case RK_U16Be:
    Width = 2;
    return true;
  case RK_U32Le:
  case RK_U32Be:
    Width = 4;
    return true;
  case RK_U64Le:
    Width = 8;
    return true;
  default:
    return false;
  }
}

/// Window width of a btoi(lo, hi) read. Fails (partiality) unless
/// 0 <= Lo < Hi — checked BEFORE the subtraction, which is therefore
/// overflow-free (Lo >= 0 and Hi > Lo bound Hi - Lo by Hi). readScalar
/// then enforces the [1, 8] width and the in-bounds window.
inline bool btoiWidth(long long Lo, long long Hi, long long &Width) {
  if (Lo < 0 || Hi <= Lo)
    return false;
  Width = Hi - Lo;
  return true;
}

/// Guarded scalar read over the local input [0, Size): width in [1, 8] and
/// the window in bounds, else partiality.
inline bool readScalar(const unsigned char *Base, long long Size,
                       long long Off, long long Width, bool BigEndian,
                       long long &Out) {
  if (Off < 0 || Width < 1 || Width > 8 || Off > Size - Width)
    return false;
  unsigned long long V = 0;
  if (BigEndian)
    for (long long I = 0; I < Width; ++I)
      V = (V << 8) | Base[Off + I];
  else
    for (long long I = Width; I-- > 0;)
      V = (V << 8) | Base[Off + I];
  Out = static_cast<long long>(V);
  return true;
}

//===----------------------------------------------------------------------===//
// Interval memoization (shared by the interpreter AND generated parsers).
//
// Section 3.3 keys parse results on (nonterminal, interval). The key is
// packed into a single 128-bit value —
//
//   A = rule-id (32 bits)  |  interval-lo bits 47..16
//   B = interval-lo bits 15..0  |  interval-hi (48 bits)
//
// — and entries live in one flat power-of-two slot array with linear
// probing. Offsets are absolute byte positions in the root input, so
// 48 bits allow 256 TiB inputs.
//
// Entries are only ever added: a slot is live exactly when it was written
// in the current epoch, so clear() keeps capacity and is O(1)
// (generational), which is what lets a reused parser reach an
// allocation-free steady state. The in-process engines hold these types
// in runtime/ParseScratch.h; generated parsers embed them directly.
//===----------------------------------------------------------------------===//

/// A (rule, interval) key packed into 128 bits. Equality is exact; the
/// packing is injective for lo/hi < 2^48.
struct IntervalKey {
  uint64_t A = 0;
  uint64_t B = 0;

  static IntervalKey pack(uint32_t Rule, uint64_t Lo, uint64_t Hi) {
    assert(Lo < (1ull << 48) && Hi < (1ull << 48) &&
           "interval offsets limited to 48 bits");
    IntervalKey K;
    K.A = (static_cast<uint64_t>(Rule) << 32) | (Lo >> 16);
    K.B = (Lo << 48) | Hi;
    return K;
  }

  bool operator==(const IntervalKey &O) const {
    return A == O.A && B == O.B;
  }
};

/// Insert-only open-addressing hash map from IntervalKey to a small
/// trivially copyable value (parse engines store packed node handles).
/// Linear probing, max load factor 3/4, geometric growth from a 64-slot
/// floor.
template <typename V> class FlatIntervalMap {
  // Each slot carries the epoch it was last written in; slots from older
  // epochs read as empty, which is what makes clear() O(1): it bumps the
  // epoch instead of sweeping a table that one large parse may have grown
  // far beyond what small parses need.
  struct Slot {
    uint64_t A = 0;
    uint64_t B = 0;
    V Value{};
    uint32_t Epoch = 0;
  };

public:
  FlatIntervalMap() = default;

  /// Looks up \p K; returns null when absent.
  V *find(const IntervalKey &K) {
    if (Slots.empty())
      return nullptr;
    size_t Mask = Slots.size() - 1;
    for (size_t I = hashOf(K) & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Epoch != Epoch)
        return nullptr; // stale epoch reads as empty
      if (S.A == K.A && S.B == K.B)
        return &S.Value;
    }
  }
  const V *find(const IntervalKey &K) const {
    return const_cast<FlatIntervalMap *>(this)->find(K);
  }

  /// Inserts \p K -> \p Value; returns false (leaving the existing value
  /// untouched) when the key was already present.
  bool insert(const IntervalKey &K, const V &Value) {
    if ((Size + 1) * 4 > capacity() * 3)
      rehash(capacity() ? capacity() * 2 : 64);
    size_t Mask = Slots.size() - 1;
    for (size_t I = hashOf(K) & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Epoch != Epoch) {
        S = Slot{K.A, K.B, Value, Epoch};
        ++Size;
        return true;
      }
      if (S.A == K.A && S.B == K.B)
        return false;
    }
  }

  /// Drops all entries but keeps the slot array. O(1): bumping the epoch
  /// invalidates every slot, so a long-lived table sized by one large
  /// parse costs nothing to clear before small ones.
  void clear() {
    Size = 0;
    ++Epoch;
    if (Epoch == 0) {
      // Epoch wrap (once per 2^32 clears): ancient slots could alias the
      // restarted counter, so pay one full sweep.
      for (Slot &S : Slots)
        S = Slot();
      Epoch = 1;
    }
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  size_t capacity() const { return Slots.size(); }

private:
  static size_t hashOf(const IntervalKey &K) {
    // splitmix64-style finalization over both words.
    uint64_t H = K.A * 0x9e3779b97f4a7c15ull;
    H ^= K.B + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    H ^= H >> 30;
    H *= 0xbf58476d1ce4e5b9ull;
    H ^= H >> 27;
    H *= 0x94d049bb133111ebull;
    H ^= H >> 31;
    return static_cast<size_t>(H);
  }

  void rehash(size_t NewCap) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewCap, Slot());
    size_t Mask = NewCap - 1;
    for (const Slot &S : Old) {
      if (S.Epoch != Epoch)
        continue;
      for (size_t I = hashOf({S.A, S.B}) & Mask;; I = (I + 1) & Mask) {
        if (Slots[I].Epoch != Epoch) {
          Slots[I] = S;
          break;
        }
      }
    }
  }

  std::vector<Slot> Slots;
  size_t Size = 0;     ///< live entries
  uint32_t Epoch = 1;  ///< current generation; 0 marks never-written slots
};

//===----------------------------------------------------------------------===//
// Slot indexing (shared by the interpreter's Env and generated Frames).
//===----------------------------------------------------------------------===//

/// A generation-stamped direct map from small integer keys (interned
/// symbols / emitter-assigned attribute ids) to slot positions in a flat
/// environment. Replaces the linear scans attribute-heavy rules used to
/// pay on every get/set: lookup and record are O(1), and clear() is O(1)
/// too — it bumps a generation instead of sweeping, so per-alternative
/// environment resets stay free no matter how large the key space grew.
class SlotIndex {
public:
  /// Invalidate every recorded position (new environment generation).
  void clear() {
    if (++Gen == 0) {
      // Generation wrap (once per 2^32 clears): ancient stamps could
      // alias the restarted counter, so pay one full sweep.
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Gen = 1;
    }
  }

  /// The recorded position of \p Key this generation, if any.
  bool lookup(uint32_t Key, uint32_t &Idx) const {
    if (Key >= Stamp.size())
      return false;
    uint64_t S = Stamp[Key];
    if (static_cast<uint32_t>(S >> 32) != Gen)
      return false;
    Idx = static_cast<uint32_t>(S);
    return true;
  }

  /// Records (or overwrites) the position of \p Key this generation.
  void record(uint32_t Key, uint32_t Idx) {
    if (Key >= Stamp.size())
      Stamp.resize(static_cast<size_t>(Key) + 1, 0);
    Stamp[Key] = (static_cast<uint64_t>(Gen) << 32) | Idx;
  }

  /// Drops \p Key from this generation.
  void forget(uint32_t Key) {
    if (Key < Stamp.size())
      Stamp[Key] = 0;
  }

private:
  std::vector<uint64_t> Stamp; ///< per-key (generation << 32) | index
  uint32_t Gen = 1;            ///< stamp 0 marks never-written keys
};

/// Packing of a memoized parse outcome into a 32-bit table value —
/// (node id << 1) | success bit; a memoized FAILURE packs as 0. One
/// definition shared by the interpreter and generated parsers so the
/// encoding cannot drift between the engines.
inline unsigned memoPack(unsigned NodeId, bool Ok) {
  assert(NodeId < (1u << 31) && "node id overflows the packed memo value");
  return (NodeId << 1) | (Ok ? 1u : 0u);
}

/// Inverse of memoPack: sets \p NodeId (meaningful only on success) and
/// returns the success bit.
inline bool memoUnpack(unsigned Value, unsigned &NodeId) {
  NodeId = Value >> 1;
  return (Value & 1u) != 0;
}

//===----------------------------------------------------------------------===//
// The embedded runtime of generated parsers. The interpreter does not use
// the types below (it has its own arena store in runtime/ParseTree.h with
// the same design); they compile as part of ipg_core only so the embedded
// text can never rot unbuilt.
//===----------------------------------------------------------------------===//

/// One attribute binding; Id indexes the generated parser's name table.
struct AttrSlot {
  unsigned Id;
  long long V;
};

/// Bump allocator mirroring support/Arena.h: geometrically growing blocks,
/// reset() keeps the blocks so a recycled arena reaches an allocation-free
/// steady state. Only trivially-destructible data lives here.
class Arena {
public:
  void *allocate(size_t Bytes, size_t Align) {
    for (; Cur < Blocks.size(); ++Cur) {
      Block &B = Blocks[Cur];
      size_t At = (B.Used + Align - 1) & ~(Align - 1);
      if (At + Bytes <= B.Cap) {
        B.Used = At + Bytes;
        return B.Mem.get() + At;
      }
    }
    // Block bases come from operator new[] and are aligned to at least
    // __STDCPP_DEFAULT_NEW_ALIGNMENT__, so offset-aligning Used (above)
    // suffices for every type this runtime stores (align <= 16).
    while (NextSize < Bytes)
      NextSize *= 2;
    Blocks.push_back(Block{std::unique_ptr<unsigned char[]>(
                               new unsigned char[NextSize]),
                           NextSize, Bytes});
    NextSize *= 2;
    return Blocks.back().Mem.get();
  }

  template <class T> T *makeArray(size_t N) {
    return static_cast<T *>(allocate(sizeof(T) * (N ? N : 1), alignof(T)));
  }

  template <class T> const T *copyArray(const T *Src, size_t N) {
    if (N == 0)
      return nullptr;
    T *Dst = makeArray<T>(N);
    std::memcpy(Dst, Src, sizeof(T) * N);
    return Dst;
  }

  void reset() {
    for (Block &B : Blocks)
      B.Used = 0;
    Cur = 0;
  }

private:
  struct Block {
    std::unique_ptr<unsigned char[]> Mem;
    size_t Cap = 0;
    size_t Used = 0;
  };
  std::vector<Block> Blocks;
  size_t Cur = 0;
  size_t NextSize = 4096;
};

class Ctx;
struct Node;

/// A borrowed child handle (the accessor surface generated-parser drivers
/// use: `Root->Children[0].get()`).
struct NodeRef {
  Node *P = nullptr;
  Node *get() const { return P; }
  Node *operator->() const { return P; }
  explicit operator bool() const { return P != nullptr; }
};

/// A filtered view over a node's unified child list exposing only child
/// *nodes* (terminal leaves and arrays are reachable through kidCount()/
/// kid()). Resolves ids against the owning Ctx at access time, so it
/// stays valid while the store grows.
struct ChildView {
  Ctx *C = nullptr;
  const unsigned *Ids = nullptr;
  unsigned N = 0;

  inline size_t size() const;
  bool empty() const { return size() == 0; }
  inline NodeRef operator[](size_t I) const;
};

/// One tree object. A single tagged struct covers the three tree forms of
/// the semantics (Node(A, E, Trs) / Array(Trs) / Leaf(s)); objects live in
/// the store's object vector, and their env/child arrays in its arena.
///
/// T-NTSucc's coordinate shift is LAZY: a shifted view of a finished
/// subtree shares the frozen env and child arrays of its base node and
/// records only the delta in Shift; every attribute read resolves the
/// shift on the fly (start/end only — other attributes are coordinate-
/// free). Views compose: a view of a view accumulates deltas.
struct Node {
  enum : unsigned char { KNode, KArray, KLeaf };

  unsigned char Kind = KNode;
  unsigned NameId = 0;     ///< node rule name / array element name
  const AttrSlot *Slots = nullptr;
  unsigned NumSlots = 0;
  const unsigned *KidIds = nullptr; ///< unified children / array elements
  unsigned NumKids = 0;
  Ctx *C = nullptr;
  long long Shift = 0; ///< lazy start/end delta of a shifted view
  // Leaf payload: zero-copy window into the input.
  const unsigned char *Data = nullptr;
  size_t Len = 0;
  long long Off = 0;
  bool Opaque = false;
  /// True for nodes built by blackboxNode: their one leaf child carries
  /// DECODED bytes, which exportTree flags so the host copies them out
  /// of this arena. Copied along by shifted() like every other field.
  bool Bb = false;
  /// For a shifted view: the id of the unshifted node it views (views of
  /// views record the innermost base, with Shift the composed delta).
  /// NotAView for every other object.
  unsigned ViewOf = NotAView;
  static constexpr unsigned NotAView = ~0u;

  /// Child-node view over this node's unified child list (the accessor
  /// surface generated-parser drivers use: `Root->children()[0].get()`).
  /// Derived from KidIds/NumKids on demand so the two can never
  /// desynchronize.
  ChildView children() const { return ChildView{C, KidIds, NumKids}; }

  /// Slot \p I's value with the lazy shift resolved — the ONE place the
  /// view delta is applied (every reader goes through it, so no path can
  /// observe unshifted coordinates).
  long long slotValue(unsigned I) const {
    long long V = Slots[I].V;
    if (Shift != 0 && (Slots[I].Id == IdStart || Slots[I].Id == IdEnd))
      V += Shift;
    return V;
  }

  /// \p Id's value with the lazy shift applied to start/end.
  bool getById(unsigned Id, long long &Out) const {
    for (unsigned I = 0; I < NumSlots; ++I)
      if (Slots[I].Id == Id) {
        Out = slotValue(I);
        return true;
      }
    return false;
  }
  inline bool get(const char *K, long long &Out) const;

  size_t kidCount() const { return NumKids; }
  inline Node *kid(size_t I) const;
};

/// What a registered blackbox parser (Section 3.4) reports back: success
/// or failure, an integer value (surfaced as attribute `val`), how many
/// slice bytes it consumed (drives the `end` attribute), and optional
/// decoded output bytes (surfaced as a Leaf child). Output must stay valid
/// until the callback is invoked again; the runtime copies it into the
/// node arena before returning.
struct BlackboxOut {
  long long Value = 0;
  long long End = 0;
  const unsigned char *Output = nullptr;
  size_t OutputLen = 0;
};

/// The blackbox registration hook of generated parsers: a plain function
/// pointer plus an opaque user cookie, so bridges to any host-side decoder
/// (or C-style closure) stay dependency-free. Returns success; on success
/// every BlackboxOut field must be set.
using BlackboxFn = bool (*)(void *User, const unsigned char *Data,
                            size_t Len, BlackboxOut &Out);

/// One pending level of a flattened linear-recursive rule: the interval
/// the level parses. 16 bytes per grammar-recursion level (instead of a
/// C-stack frame) is what lets a megabyte-deep PDF `Scan`/`XNum` spine
/// fit in a few MB of heap.
struct FlatLevel {
  size_t AbsLo = 0;
  size_t AbsHi = 0;
};

/// One suspended rule activation on the step machine's explicit work
/// stack (general recursion the flattener cannot handle). A step function
/// mutates its Task across resumptions; the Call*/Arr* fields carry the
/// parameters of a pending child call and of an in-flight array loop
/// across the suspension points.
struct Task {
  unsigned Rule = 0;   ///< rule this task runs
  unsigned Resume = 0; ///< 0 on first entry; else the resume label id
  size_t Idx = 0;      ///< position on the task stack == frame index
  size_t AbsLo = 0, AbsHi = 0; ///< absolute input window
  int LexTask = -1;    ///< task index of the lexical parent frame, or -1
  unsigned Out = 0;    ///< result node id (valid when the task finishes)
  // Child-call result, delivered by the machine before resuming.
  int ChildOk = 0;
  unsigned ChildNode = 0;
  // Pending child-call parameters (set before returning StepCall).
  unsigned CallRule = 0;
  size_t CallLo = 0, CallHi = 0;
  int CallLexSelf = 0; ///< child is a where-clause rule: pass our frame
  long long SaveL = 0; ///< child interval's Lo, for the post-call shift
  // In-flight array state (arrays whose element rule is a step rule).
  long long ArrK = 0, ArrTo = 0, ArrSaved = 0, ArrMax = 0;
  int ArrHadSaved = 0, ArrTouched = 0;
  size_t ArrLevel = 0;
};

/// A resumable rule body for the step machine. Returns StepDone/StepFail
/// with Task::Out set, or StepCall with the Call* fields describing the
/// child to push.
class Ctx;
using StepFn = int (*)(Ctx &, Task &);
enum : int { StepFail = 0, StepDone = 1, StepCall = 2 };

/// The recycled store + scratch state behind one generated parser: arena,
/// object index, per-depth frame pool and per-nesting array scratch — the
/// generated twin of the interpreter's InterpState. beginParse() recycles
/// everything without releasing capacity.
class Ctx {
public:
  void setNames(const char *const *Table, size_t Count) {
    NamesTab = Table;
    NumNames = Count;
  }
  const char *name(unsigned Id) const {
    return Id < NumNames ? NamesTab[Id] : "?";
  }

  void beginParse(const unsigned char *Data) {
    Base = Data;
    A.reset();
    Objs.clear();
    Memo.clear(); // O(1) generational clear; capacity is kept
    ArrayNest = 0;
    Hard = false;
    FailName = -1;
    FailOff = -1;
    Frozen = 0;
    Hits = 0;
    Misses = 0;
    Peak = 0;
    FlatLevels.clear();
    FlatKids.clear();
    Steps.clear();
  }

  /// The recursion-depth guard is a HARD failure, as in the interpreter
  /// (EngineOptions::MaxDepth): once tripped it aborts the whole parse —
  /// no backtracking into sibling alternatives. Generated rule functions
  /// check hardFailed() after every failed alternative.
  void hardFail() { Hard = true; }
  bool hardFailed() const { return Hard; }

  /// First-failure diagnostics, the generated twin of
  /// EngineStats::FailRule/FailOffset: the first noteFail() of a parse
  /// wins (deeper failures fire first on the way out, exactly as the
  /// interpreter records them). \p NameId indexes the module name table;
  /// \p Off is the absolute input offset of the failing window.
  void noteFail(unsigned NameId, long long Off) {
    if (FailName >= 0)
      return;
    FailName = static_cast<long long>(NameId);
    FailOff = Off;
  }
  long long failNameId() const { return FailName; } ///< -1 when none
  long long failOff() const { return FailOff; }

  /// The effective recursion limit (emitted rule functions compare their
  /// Depth against it). Defaults to MaxDepth; setDepthLimit lets a
  /// driver apply EngineOptions::MaxDepth at run time — floored at 1 so
  /// the guard can never be disabled entirely.
  long long depthLimit() const { return DepthLim; }
  void setDepthLimit(long long Limit) { DepthLim = Limit < 1 ? 1 : Limit; }

  /// High-water recursion depth of the current parse — the generated twin
  /// of EngineStats::PeakDepth. Every tier reports through it: direct
  /// rule functions note their own C-stack depth, flattened loops their
  /// virtual (per-level) depth, and the step machine its task-stack
  /// height, so the figure matches the interpreter's exactly.
  void notePeak(long long Depth) {
    if (Depth > Peak)
      Peak = Depth;
  }
  long long peakDepth() const { return Peak; }

  /// Nodes frozen by successful rule alternatives in the current parse —
  /// the generated twin of EngineStats::NodesCreated (shifted views,
  /// arrays, and leaves are not counted on either side).
  size_t frozenNodeCount() const { return Frozen; }

  /// Memo table hits/misses of the current parse — the generated twins of
  /// EngineStats::MemoHits/MemoMisses.
  size_t memoHits() const { return Hits; }
  size_t memoMisses() const { return Misses; }

  /// Memoized result of a previous parseRule_N(Rule, [AbsLo, AbsHi))
  /// call this parse, keyed exactly as the interpreter keys its table
  /// (Section 3.3: rule id + absolute interval). \p Ok and \p Id are set
  /// only on a hit; failures are memoized too (Ok = false). The value is
  /// the node id and the verdict packed into 32 bits, keeping the slot
  /// array small enough to stay cache-resident on large parses.
  bool memoFind(unsigned Rule, size_t AbsLo, size_t AbsHi, bool &Ok,
                unsigned &Id) {
    if (const unsigned *E =
            Memo.find(IntervalKey::pack(Rule, AbsLo, AbsHi))) {
      ++Hits;
      Ok = memoUnpack(*E, Id);
      return true;
    }
    ++Misses;
    return false;
  }

  void memoStore(unsigned Rule, size_t AbsLo, size_t AbsHi, bool Ok,
                 unsigned Id) {
    Memo.insert(IntervalKey::pack(Rule, AbsLo, AbsHi), memoPack(Id, Ok));
  }

  /// Binds (or rebinds) the blackbox named by \p NameId. Generated
  /// parsers expose this by name through Parser::registerBlackbox.
  void registerBlackbox(unsigned NameId, BlackboxFn Fn, void *User) {
    slotFor(NameId).Fn = Fn;
    slotFor(NameId).User = User;
  }

  /// Runs the registered blackbox over Data[0, Len). Returns 1 on success
  /// and 0 on failure; an unregistered blackbox and a decoder that claims
  /// to have consumed past its slice are HARD failures (they abort the
  /// whole parse, as in the interpreter), a decoder rejection is a soft
  /// one (the enclosing term fails).
  int callBlackbox(unsigned NameId, const unsigned char *Data, size_t Len,
                   BlackboxOut &Out) {
    for (const BlackboxSlot &S : Blackboxes)
      if (S.NameId == NameId) {
        if (!S.Fn)
          break; // registered as null: treat as unbound
        Out = BlackboxOut();
        if (!S.Fn(S.User, Data, Len, Out))
          return 0;
        if (Out.End < 0 ||
            static_cast<unsigned long long>(Out.End) > Len) {
          noteFail(NameId, static_cast<long long>(Data - Base));
          hardFail();
          return 0;
        }
        return 1;
      }
    noteFail(NameId, static_cast<long long>(Data - Base));
    hardFail();
    return 0;
  }

  const unsigned char *base() const { return Base; }
  Node *node(unsigned Id) { return &Objs[Id]; }
  const Node *node(unsigned Id) const { return &Objs[Id]; }
  size_t nodeCount() const { return Objs.size(); }

  inline struct Frame &frameAt(size_t Depth);

  std::vector<unsigned> &elemScratch(size_t Level) {
    if (ElemScratch.size() <= Level)
      ElemScratch.resize(Level + 1);
    return ElemScratch[Level];
  }
  size_t enterArray() {
    size_t Level = ArrayNest++;
    elemScratch(Level).clear();
    return Level;
  }
  void leaveArray() { --ArrayNest; }

  /// Pooled per-level records of flattened linear-recursive rules. Shared
  /// across rules and re-entrant: each activation remembers its base index
  /// and resizes back to it on every exit path.
  std::vector<FlatLevel> &flatLevels() { return FlatLevels; }
  /// Pooled storage for the node ids of prefix child nonterminals parsed
  /// on the way down a flattened rule (a static count per level, so a
  /// per-activation base index addresses them).
  std::vector<unsigned> &flatPrefixKids() { return FlatKids; }
  /// The step machine's pooled task stack (runMachine).
  std::vector<Task> &stepTasks() { return Steps; }
  /// exportTree's pooled reachability marks (one byte per object) and
  /// work stack.
  std::vector<unsigned char> &exportMarks() { return ExportMarks; }
  std::vector<unsigned> &exportWork() { return ExportWork; }

  /// Freezes a frame's scratch env + child ids into the arena as a node.
  inline unsigned freeze(struct Frame &F, unsigned NameId);

  unsigned leaf(const unsigned char *Data, size_t Len, long long Off,
                bool Opaque) {
    Node N;
    N.Kind = Node::KLeaf;
    N.C = this;
    N.Data = Data;
    N.Len = Len;
    N.Off = Off;
    N.Opaque = Opaque;
    return add(N);
  }

  unsigned array(unsigned ElemNameId, const std::vector<unsigned> &Ids) {
    Node N;
    N.Kind = Node::KArray;
    N.C = this;
    N.NameId = ElemNameId;
    N.KidIds = A.copyArray(Ids.data(), Ids.size());
    N.NumKids = static_cast<unsigned>(Ids.size());
    return add(N);
  }

  /// Lazy shifted view of a finished subtree (T-NTSucc): the frozen env
  /// and child arrays are SHARED with the base node and only the delta is
  /// recorded; start/end resolve shifted at read time (Node::getById).
  /// A zero delta needs no view at all — the base node is its own view —
  /// and shifting an existing view composes the deltas, so memoized
  /// subtrees can be re-anchored under any number of parents without ever
  /// copying an environment.
  unsigned shifted(unsigned SubId, long long Delta) {
    if (Delta == 0)
      return SubId;
    Node N = Objs[SubId]; // copy first: add() may grow the vector
    N.Shift += Delta;
    if (N.ViewOf == Node::NotAView)
      N.ViewOf = SubId; // a view of a view already names the base
    return add(N);
  }

  /// The parent-side view of a finished subtree (childSpan defaults).
  void childSpanOf(unsigned SubId, long long SubEoi, long long &BStart,
                   long long &BEnd) const {
    const Node &N = Objs[SubId];
    long long S = 0, E = 0;
    bool HasS = N.getById(IdStart, S);
    bool HasE = N.getById(IdEnd, E);
    childSpan(HasS, S, HasE, E, SubEoi, BStart, BEnd);
  }

  /// Leaf over an arena-owned copy of \p Data (blackbox output bytes,
  /// whose lifetime ends with the callback's next invocation).
  unsigned leafCopy(const unsigned char *Data, size_t Len, long long Off) {
    return leaf(A.copyArray(Data, Len), Len, Off, /*Opaque=*/false);
  }

  /// The tree a successful blackbox term contributes, mirroring the
  /// interpreter's execBlackbox byte for byte: attributes val/start/end
  /// (an empty consumption reads as the untouched span [sub-EOI, 0) in
  /// the parent's coordinates), plus one Leaf child copying any decoded
  /// output. Counts as a frozen node, as in EngineStats::NodesCreated.
  unsigned blackboxNode(unsigned NameId, unsigned ValId,
                        const BlackboxOut &BB, long long Lo, long long Hi) {
    AttrSlot S[3];
    S[0] = AttrSlot{ValId, BB.Value};
    if (BB.End > 0) {
      S[1] = AttrSlot{IdStart, Lo};
      S[2] = AttrSlot{IdEnd, Lo + BB.End};
    } else {
      S[1] = AttrSlot{IdStart, Hi - Lo};
      S[2] = AttrSlot{IdEnd, Lo};
    }
    unsigned Kids[1] = {0};
    unsigned NumKids = 0;
    if (BB.OutputLen) {
      Kids[0] = leafCopy(BB.Output, BB.OutputLen, 0);
      NumKids = 1;
    }
    Node N;
    N.Kind = Node::KNode;
    N.C = this;
    N.NameId = NameId;
    N.Slots = A.copyArray(S, 3);
    N.NumSlots = 3;
    N.KidIds = A.copyArray(Kids, NumKids);
    N.NumKids = NumKids;
    N.Bb = true; // exportTree flags its decoded leaf for copying
    ++Frozen;
    return add(N);
  }

private:
  unsigned add(const Node &N) {
    Objs.push_back(N);
    return static_cast<unsigned>(Objs.size() - 1);
  }

  struct BlackboxSlot {
    unsigned NameId = 0;
    BlackboxFn Fn = nullptr;
    void *User = nullptr;
  };

  BlackboxSlot &slotFor(unsigned NameId) {
    for (BlackboxSlot &S : Blackboxes)
      if (S.NameId == NameId)
        return S;
    Blackboxes.push_back(BlackboxSlot());
    Blackboxes.back().NameId = NameId;
    return Blackboxes.back();
  }

  Arena A;
  std::vector<Node> Objs;
  FlatIntervalMap<unsigned> Memo; ///< memoPack'd outcomes

  std::vector<BlackboxSlot> Blackboxes;
  std::vector<std::unique_ptr<struct Frame>> Frames;
  std::vector<std::vector<unsigned>> ElemScratch;
  std::vector<FlatLevel> FlatLevels;
  std::vector<unsigned> FlatKids;
  std::vector<Task> Steps;
  std::vector<unsigned char> ExportMarks;
  std::vector<unsigned> ExportWork;
  size_t ArrayNest = 0;
  bool Hard = false;
  long long FailName = -1;
  long long FailOff = -1;
  size_t Frozen = 0;
  size_t Hits = 0;
  size_t Misses = 0;
  long long Peak = 0;
  long long DepthLim = MaxDepth;
  const unsigned char *Base = nullptr;
  const char *const *NamesTab = nullptr;
  size_t NumNames = 0;
};

/// Per-alternative execution state: the scratch environment E, the ids of
/// already-built children, and per-term touch records — the generated twin
/// of the interpreter's InterpState::Frame. Frames are pooled per
/// recursion depth and reused across alternatives and parses.
struct Frame {
  const unsigned char *Base = nullptr;
  size_t Lo = 0, Hi = 0; ///< local input = Base[Lo, Hi)
  Ctx *C = nullptr;
  Frame *Lexical = nullptr; ///< enclosing frame for where-clause rules
  std::vector<AttrSlot> E;
  SlotIndex EIx; ///< O(1) id -> E position, regenerated per alternative
  /// start/end live in dedicated fields, not E slots: updStartEnd touches
  /// them on every byte-touching term, so the hottest two keys skip the
  /// index entirely. freeze() folds them back into the frozen env.
  bool HasStart = false, HasEnd = false;
  long long StartV = 0, EndV = 0;
  std::vector<unsigned> Kids;
  /// Per-term touch records, invalidated per alternative by generation
  /// stamp (a rule with many failing alternatives — every Digit-style
  /// dispatch — pays O(1) per attempt instead of refilling the array).
  struct Rec {
    unsigned Gen = 0;
    long long Start = 0;
    long long End = 0;
  };
  std::vector<Rec> Recs;
  unsigned RecGen = 0;

  void beginAlt(const unsigned char *B, size_t L, size_t H, Frame *Lex,
                size_t NumTerms) {
    Base = B;
    Lo = L;
    Hi = H;
    Lexical = Lex;
    E.clear();
    EIx.clear(); // O(1): generation bump, not a sweep
    HasStart = HasEnd = false;
    Kids.clear();
    if (Recs.size() < NumTerms)
      Recs.resize(NumTerms);
    if (++RecGen == 0) {
      // Generation wrap (once per 2^32 alternatives): ancient stamps
      // could alias the restarted counter, so pay one full sweep.
      for (Rec &R : Recs)
        R.Gen = 0;
      RecGen = 1;
    }
  }

  long long eoi() const { return static_cast<long long>(Hi - Lo); }

  // Own-frame environment (updStartEnd's EnvT surface). Attribute ids are
  // dense name-table indices, so a SlotIndex makes every get/set O(1)
  // where attribute-heavy rules used to pay a linear scan per access;
  // the two hottest ids (start/end) bypass even that through fields.
  bool getAttr(unsigned Id, long long &Out) const {
    if (Id <= IdEnd) {
      if (Id == IdStart ? !HasStart : !HasEnd)
        return false;
      Out = Id == IdStart ? StartV : EndV;
      return true;
    }
    uint32_t I = 0;
    if (!EIx.lookup(Id, I))
      return false;
    Out = E[I].V;
    return true;
  }
  void setAttr(unsigned Id, long long V) {
    if (Id <= IdEnd) {
      (Id == IdStart ? HasStart : HasEnd) = true;
      (Id == IdStart ? StartV : EndV) = V;
      return;
    }
    uint32_t I = 0;
    if (EIx.lookup(Id, I)) {
      E[I].V = V;
      return;
    }
    EIx.record(Id, static_cast<uint32_t>(E.size()));
    E.push_back(AttrSlot{Id, V});
  }
  void eraseAttr(unsigned Id) {
    if (Id <= IdEnd) {
      (Id == IdStart ? HasStart : HasEnd) = false;
      return;
    }
    uint32_t I = 0;
    if (!EIx.lookup(Id, I))
      return;
    E.erase(E.begin() + static_cast<long>(I));
    EIx.forget(Id);
    for (uint32_t J = I; J < E.size(); ++J)
      EIx.record(E[J].Id, J); // reseat the slots the erase slid down
  }

  /// Lexical-chain attribute lookup (sigma of Figure 8).
  bool attr(unsigned Id, long long &Out) const {
    for (const Frame *F = this; F; F = F->Lexical)
      if (F->getAttr(Id, Out))
        return true;
    return false;
  }

  /// Most recent child node named \p NameId along the lexical chain.
  Node *findNode(unsigned NameId) const {
    for (const Frame *F = this; F; F = F->Lexical)
      for (size_t I = F->Kids.size(); I-- > 0;) {
        Node *N = C->node(F->Kids[I]);
        if (N->Kind == Node::KNode && N->NameId == NameId)
          return N;
      }
    return nullptr;
  }

  /// Most recent child array with elements named \p NameId.
  Node *findArray(unsigned NameId) const {
    for (const Frame *F = this; F; F = F->Lexical)
      for (size_t I = F->Kids.size(); I-- > 0;) {
        Node *N = C->node(F->Kids[I]);
        if (N->Kind == Node::KArray && N->NameId == NameId)
          return N;
      }
    return nullptr;
  }

  void rec(unsigned TermIdx, long long Start, long long End) {
    Recs[TermIdx] = Rec{RecGen, Start, End};
  }
  bool termEnd(unsigned TermIdx, long long &Out) const {
    if (TermIdx >= Recs.size() || Recs[TermIdx].Gen != RecGen)
      return false;
    Out = Recs[TermIdx].End;
    return true;
  }
};

inline Frame &Ctx::frameAt(size_t Depth) {
  while (Frames.size() <= Depth)
    Frames.push_back(std::unique_ptr<Frame>(new Frame()));
  Frame &F = *Frames[Depth];
  F.C = this;
  return F;
}

inline unsigned Ctx::freeze(Frame &F, unsigned NameId) {
  // Fold the frame's start/end fields back into the frozen env (every
  // reader looks attributes up by id, so their position is immaterial).
  size_t Extra = (F.HasStart ? 1u : 0u) + (F.HasEnd ? 1u : 0u);
  size_t Num = F.E.size() + Extra;
  AttrSlot *Slots = nullptr;
  if (Num) {
    Slots = A.makeArray<AttrSlot>(Num);
    if (!F.E.empty())
      std::memcpy(Slots, F.E.data(), sizeof(AttrSlot) * F.E.size());
    size_t At = F.E.size();
    if (F.HasStart)
      Slots[At++] = AttrSlot{IdStart, F.StartV};
    if (F.HasEnd)
      Slots[At++] = AttrSlot{IdEnd, F.EndV};
  }
  Node N;
  N.Kind = Node::KNode;
  N.C = this;
  N.NameId = NameId;
  N.Slots = Slots;
  N.NumSlots = static_cast<unsigned>(Num);
  N.KidIds = A.copyArray(F.Kids.data(), F.Kids.size());
  N.NumKids = static_cast<unsigned>(F.Kids.size());
  ++Frozen;
  return add(N);
}

inline size_t ChildView::size() const {
  size_t Count = 0;
  for (unsigned I = 0; I < N; ++I)
    if (C->node(Ids[I])->Kind == Node::KNode)
      ++Count;
  return Count;
}

inline NodeRef ChildView::operator[](size_t I) const {
  for (unsigned K = 0; K < N; ++K) {
    Node *Kid = C->node(Ids[K]);
    if (Kid->Kind == Node::KNode && I-- == 0)
      return NodeRef{Kid};
  }
  return NodeRef{};
}

inline bool Node::get(const char *K, long long &Out) const {
  for (unsigned I = 0; I < NumSlots; ++I)
    if (C && !std::strcmp(C->name(Slots[I].Id), K)) {
      Out = slotValue(I);
      return true;
    }
  return false;
}

inline Node *Node::kid(size_t I) const { return C->node(KidIds[I]); }

//===----------------------------------------------------------------------===//
// The step machine: an explicit work-stack trampoline over resumable rule
// functions, used for general recursion (mutual cycles, multiple
// self-alternatives, self under array/switch) that the grammar-lowering
// flattener cannot turn into a loop. Grammar recursion depth becomes task
// stack height — heap, not C stack — so EngineOptions::MaxDepth is a
// genuine resource limit, not a proxy for the OS stack size.
//===----------------------------------------------------------------------===//

/// Runs \p StartRule over [AbsLo, AbsHi) to completion. \p Fns is indexed
/// by rule id (null for rules the machine never runs — the classifier
/// guarantees step rules are entered only from here). Depth accounting
/// matches the interpreter exactly: a push is refused (hard failure) once
/// the stack already holds depthLimit() tasks, and the peak is noted
/// after each push.
inline bool runMachine(Ctx &C, const StepFn *Fns, const unsigned *NameIds,
                       unsigned StartRule, size_t AbsLo, size_t AbsHi,
                       unsigned &Out) {
  std::vector<Task> &S = C.stepTasks();
  S.clear();
  if (static_cast<long long>(S.size()) >= C.depthLimit()) {
    C.noteFail(NameIds[StartRule], static_cast<long long>(AbsLo));
    C.hardFail();
    return false;
  }
  S.push_back(Task());
  S.back().Rule = StartRule;
  S.back().AbsLo = AbsLo;
  S.back().AbsHi = AbsHi;
  C.notePeak(static_cast<long long>(S.size()));
  while (!S.empty()) {
    Task &T = S.back();
    int R = Fns[T.Rule](C, T);
    if (C.hardFailed()) {
      S.clear();
      return false;
    }
    if (R == StepCall) {
      if (static_cast<long long>(S.size()) >= C.depthLimit()) {
        C.noteFail(NameIds[T.CallRule], static_cast<long long>(T.CallLo));
        C.hardFail();
        S.clear();
        return false;
      }
      Task Child;
      Child.Rule = T.CallRule;
      Child.Idx = S.size();
      Child.AbsLo = T.CallLo;
      Child.AbsHi = T.CallHi;
      Child.LexTask = T.CallLexSelf ? static_cast<int>(T.Idx) : -1;
      S.push_back(Child); // invalidates T
      C.notePeak(static_cast<long long>(S.size()));
      continue;
    }
    bool Ok = R == StepDone;
    unsigned NodeId = T.Out;
    S.pop_back();
    if (S.empty()) {
      Out = NodeId;
      return Ok;
    }
    S.back().ChildOk = Ok ? 1 : 0;
    S.back().ChildNode = NodeId;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Cross-module tree export. GenEngine (codegen/GenEngine.cpp) compiles a
// generated parser into a shared object and dlopens it; the parsed tree
// must then cross the .so boundary WITHOUT the host dereferencing the
// module's Node structures (two separately compiled translation units
// should share as little layout as possible). The walk therefore runs
// INSIDE the emitting module — exportTree below is embedded with the
// rest of this header — and hands each object over as one ExportObjC
// record, whose standard layout (plain scalars and pointers) is the
// entire cross-module contract.
//===----------------------------------------------------------------------===//

/// One tree object as exportTree hands it to the host. Every id is a
/// module object id (Ctx::node); the ids a record names (KidIds, ViewOf)
/// were all emitted by earlier records.
struct ExportObjC {
  unsigned Id = 0;
  unsigned char Kind = Node::KNode; ///< Node::KNode / KArray / KLeaf
  /// Node: built by blackboxNode (Node::Bb). Leaf: the decoded output of
  /// a blackbox node — its bytes live in the module's arena, which dies
  /// with the next parse, so the host must copy them (ordinary leaves
  /// alias the parsed input buffer, which the host owns).
  unsigned char Bb = 0;
  unsigned char Opaque = 0; ///< leaf: a wildcard match
  unsigned NameId = 0;      ///< node rule name / array element name
  /// Node: Node::NotAView, or the base node this record is a lazy shifted
  /// view of — Shift is then the whole delta, and the view shares the
  /// base's slots and children, so Slots/KidIds are left empty.
  unsigned ViewOf = Node::NotAView;
  long long Shift = 0;
  const AttrSlot *Slots = nullptr; ///< node: RAW (base-local) attributes
  unsigned NumSlots = 0;
  const unsigned *KidIds = nullptr; ///< node children / array elements
  unsigned NumKids = 0;
  const unsigned char *Data = nullptr; ///< leaf payload
  unsigned long long Len = 0;
  long long Off = 0;
};

using ExportFn = void (*)(void *User, const ExportObjC *Obj);

/// Hands every object reachable from \p Root to \p Fn exactly once, in
/// increasing id order. Every builder (freeze, leaf, array, shifted,
/// blackboxNode) adds an object after the objects it names, so that
/// order puts children before parents and \p Root last; objects built
/// by failed alternatives are unreachable and never emitted. Shared
/// subtrees (memoized nodes re-anchored under several parents as lazy
/// views) are emitted once, so a host rebuilding the records keeps the
/// module's sharing. Both passes are linear and iterative — tree depth
/// equals grammar recursion depth, which may be far beyond what the C
/// stack holds — and their buffers are the Ctx's pooled ones.
inline void exportTree(Ctx &C, unsigned Root, ExportFn Fn, void *User) {
  // Mark: 1 = reachable, 2 = reachable and the decoded leaf of a
  // blackbox node (only blackboxNode's leafCopy builds such a leaf, and
  // nothing else points at it).
  std::vector<unsigned char> &Mark = C.exportMarks();
  std::vector<unsigned> &Work = C.exportWork();
  Mark.assign(static_cast<size_t>(Root) + 1, 0);
  Work.clear();
  Mark[Root] = 1;
  Work.push_back(Root);
  unsigned Lowest = Root;
  auto reach = [&](unsigned Id, unsigned char M) {
    assert(Id < Root && "a child id must precede its parent's");
    if (Mark[Id])
      return;
    Mark[Id] = M;
    Lowest = std::min(Lowest, Id);
    Work.push_back(Id);
  };
  while (!Work.empty()) {
    const Node *N = C.node(Work.back());
    Work.pop_back();
    if (N->ViewOf != Node::NotAView) {
      reach(N->ViewOf, 1); // the base carries the shared children
      continue;
    }
    for (unsigned I = 0; I < N->NumKids; ++I)
      reach(N->KidIds[I], N->Bb ? 2 : 1);
  }

  ExportObjC R;
  for (unsigned Id = Lowest; Id <= Root; ++Id) {
    if (!Mark[Id])
      continue;
    const Node *N = C.node(Id);
    R = ExportObjC();
    R.Id = Id;
    R.Kind = N->Kind;
    if (N->Kind == Node::KLeaf) {
      R.Bb = Mark[Id] == 2;
      R.Opaque = N->Opaque;
      R.Data = N->Data;
      R.Len = N->Len;
      R.Off = N->Off;
    } else {
      R.Bb = N->Bb;
      R.NameId = N->NameId;
      R.ViewOf = N->ViewOf;
      R.Shift = N->Shift;
      if (N->ViewOf == Node::NotAView) {
        R.Slots = N->Slots;
        R.NumSlots = N->NumSlots;
        R.KidIds = N->KidIds;
        R.NumKids = N->NumKids;
      }
    }
    Fn(User, &R);
  }
}

} // namespace ipg_rt

#endif // IPG_SUPPORT_GENRUNTIME_H
