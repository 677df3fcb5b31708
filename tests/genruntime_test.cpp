//===- tests/genruntime_test.cpp - embedded runtime (ipg_rt) --------------===//
//
// Part of the IPG reproduction of "Interval Parsing Grammars for File Format
// Parsing" (PLDI 2023). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit coverage for the pieces of the shared runtime (support/GenRuntime.h)
/// that generated parsers embed: the (rule, interval) memo table (key
/// packing, insert-without-overwrite, adversarial collisions and the
/// generational clear; the in-process engines hold the same class), lazy
/// shifted-node views including deep nesting (a view whose base is itself
/// a view) and aliasing (many views over one base),
/// the O(1) SlotIndex behind environments, the blackbox hook's node
/// construction, and the cross-module tree export (exportTree). Runs
/// under the ASan+UBSan CI job like every suite.
///
//===----------------------------------------------------------------------===//

#include "support/GenRuntime.h"

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <map>
#include <unordered_map>
#include <vector>

using namespace ipg_rt;

namespace {

/// A tiny name table: ids 0/1 are fixed to start/end by the runtime
/// contract; the rest are free.
const char *const Names[] = {"start", "end", "A", "x", "bb", "val"};
constexpr unsigned IdA = 2, IdX = 3, IdBb = 4, IdVal = 5;

/// Builds a frozen node with the given start/end/x attributes through the
/// same Frame path generated code uses.
unsigned freezeNode(Ctx &C, long long Start, long long End, long long X) {
  Frame &F = C.frameAt(0);
  F.beginAlt(nullptr, 0, 16, nullptr, 0);
  F.setAttr(IdStart, Start);
  F.setAttr(IdEnd, End);
  F.setAttr(IdX, X);
  return C.freeze(F, IdA);
}

} // namespace

//===----------------------------------------------------------------------===//
// Scalar semantics: wrapping arithmetic and the alternative guard check
//===----------------------------------------------------------------------===//

TEST(GenRuntimeScalar, ArithmeticWrapsInsteadOfOverflowing) {
  const long long Max = 9223372036854775807LL;
  const long long Min = -Max - 1;
  EXPECT_EQ(ipg_rt::wrapAdd(Max, 1), Min);
  EXPECT_EQ(ipg_rt::wrapSub(Min, 1), Max);
  EXPECT_EQ(ipg_rt::wrapMul(1LL << 62, 4), 0);
  EXPECT_EQ(ipg_rt::wrapMul(1LL << 62, 2), Min);
  EXPECT_EQ(ipg_rt::wrapAdd(-3, 5), 2);
  EXPECT_EQ(ipg_rt::wrapMul(-3, 5), -15);
}

TEST(GenRuntimeScalar, GuardAdmitsOnlyInWindowBytesOfTheSet) {
  const unsigned char In[] = {'a', '7', 'z'};
  unsigned long long Digits[4] = {0, 0, 0, 0};
  for (unsigned B = '0'; B <= '9'; ++B)
    Digits[B >> 6] |= 1ull << (B & 63);
  EXPECT_TRUE(ipg_rt::guardAdmits(In, 3, false, 1, Digits));
  EXPECT_FALSE(ipg_rt::guardAdmits(In, 3, false, 0, Digits));
  EXPECT_TRUE(ipg_rt::guardAdmits(In, 3, true, 2, Digits));  // EOI - 2
  EXPECT_FALSE(ipg_rt::guardAdmits(In, 3, true, 1, Digits)); // 'z'
  // Positions outside the window never admit.
  EXPECT_FALSE(ipg_rt::guardAdmits(In, 3, false, 3, Digits));
  EXPECT_FALSE(ipg_rt::guardAdmits(In, 3, true, 4, Digits));
  EXPECT_FALSE(ipg_rt::guardAdmits(In, 0, false, 0, Digits));
  EXPECT_FALSE(ipg_rt::guardAdmits(In, 3, true, 0, Digits));
}

//===----------------------------------------------------------------------===//
// FlatIntervalMap (the memo table of every engine)
//===----------------------------------------------------------------------===//

TEST(GenRuntimeFlatHash, PackIsInjectiveOnEdgePatterns) {
  // Keys differing in exactly one component — including across the 16-bit
  // boundary the lo field is split at, and the full 32-bit rule range —
  // must stay distinct.
  const uint64_t Big = (1ull << 48) - 1;
  std::vector<IntervalKey> Keys = {
      IntervalKey::pack(0, 0, 0),          IntervalKey::pack(1, 0, 0),
      IntervalKey::pack(0, 1, 0),          IntervalKey::pack(0, 0, 1),
      IntervalKey::pack(0, 1ull << 16, 0), IntervalKey::pack(0, Big, Big),
      IntervalKey::pack(~0u, Big, 0),      IntervalKey::pack(~0u, Big, Big),
      IntervalKey::pack(0, 0, Big),        IntervalKey::pack(0, 0x1FFFF, 0),
      IntervalKey::pack(0, 0xFFFF, 0),
  };
  for (size_t I = 0; I < Keys.size(); ++I)
    for (size_t J = I + 1; J < Keys.size(); ++J)
      EXPECT_FALSE(Keys[I] == Keys[J]) << I << " vs " << J;
}

TEST(GenRuntimeFlatHash, InsertDoesNotOverwrite) {
  FlatIntervalMap<int> M;
  EXPECT_EQ(M.find(IntervalKey::pack(1, 2, 3)), nullptr);
  EXPECT_TRUE(M.insert(IntervalKey::pack(1, 2, 3), 7));
  EXPECT_FALSE(M.insert(IntervalKey::pack(1, 2, 3), 8));
  ASSERT_NE(M.find(IntervalKey::pack(1, 2, 3)), nullptr);
  EXPECT_EQ(*M.find(IntervalKey::pack(1, 2, 3)), 7);
  EXPECT_EQ(M.size(), 1u);
  // Rule id ~0u is an ordinary key: no slot state is encoded in keys.
  EXPECT_TRUE(M.insert(IntervalKey::pack(~0u, 0, 0), 9));
  EXPECT_EQ(*M.find(IntervalKey::pack(~0u, 0, 0)), 9);
}

TEST(GenRuntimeFlatHash, AdversarialIntervalPatternsCollideCorrectly) {
  // The memo table's real access pattern: one rule over thousands of
  // overlapping slices — (r, i, j) for all i <= j — which forces heavy
  // probe-sequence sharing in a small table. Mirror against a reference
  // map.
  FlatIntervalMap<int> M;
  std::unordered_map<uint64_t, int> Ref;
  int V = 0;
  const uint64_t N = 60;
  for (uint64_t Lo = 0; Lo < N; ++Lo)
    for (uint64_t Hi = Lo; Hi < N; ++Hi) {
      EXPECT_TRUE(M.insert(IntervalKey::pack(3, Lo, Hi), V));
      Ref[Lo * N + Hi] = V;
      ++V;
    }
  EXPECT_EQ(M.size(), Ref.size());
  for (uint64_t Lo = 0; Lo < N; ++Lo)
    for (uint64_t Hi = Lo; Hi < N; ++Hi) {
      int *P = M.find(IntervalKey::pack(3, Lo, Hi));
      ASSERT_NE(P, nullptr);
      EXPECT_EQ(*P, Ref[Lo * N + Hi]);
    }
  // Keys never inserted (Hi < Lo) must miss even though their probe paths
  // run through fully loaded clusters.
  for (uint64_t Lo = 1; Lo < N; ++Lo)
    EXPECT_EQ(M.find(IntervalKey::pack(3, Lo, Lo - 1)), nullptr);
}

TEST(GenRuntimeFlatHash, GenerationalClearKeepsCapacityAndIsolation) {
  // clear() bumps an epoch instead of sweeping. Each epoch inserts a
  // different two thirds of one keyset, so a key the previous epoch held
  // must read as absent now, and no value may bleed through.
  FlatIntervalMap<int> M;
  size_t CapAfterFirst = 0;
  for (int Epoch = 0; Epoch < 50; ++Epoch) {
    for (uint64_t I = 0; I < 1000; ++I) {
      if ((I + Epoch) % 3 != 0) {
        EXPECT_TRUE(M.insert(IntervalKey::pack(1, I, I + 1), Epoch));
      }
    }
    for (uint64_t I = 0; I < 1000; ++I) {
      int *P = M.find(IntervalKey::pack(1, I, I + 1));
      if ((I + Epoch) % 3 == 0) {
        EXPECT_EQ(P, nullptr) << Epoch << "/" << I;
      } else {
        ASSERT_NE(P, nullptr) << Epoch << "/" << I;
        EXPECT_EQ(*P, Epoch);
      }
    }
    M.clear();
    EXPECT_EQ(M.size(), 0u);
    EXPECT_EQ(M.find(IntervalKey::pack(1, 1, 2)), nullptr);
    if (Epoch == 0)
      CapAfterFirst = M.capacity();
    else
      EXPECT_EQ(M.capacity(), CapAfterFirst) << "clear() must keep capacity";
  }
}

//===----------------------------------------------------------------------===//
// SlotIndex (the O(1) environment index behind Env and Frame)
//===----------------------------------------------------------------------===//

TEST(GenRuntimeSlotIndex, RecordLookupForgetAndGenerationalClear) {
  SlotIndex Ix;
  uint32_t Out = 0;
  EXPECT_FALSE(Ix.lookup(0, Out));
  EXPECT_FALSE(Ix.lookup(1000, Out));

  Ix.record(7, 0);
  Ix.record(300, 1);
  ASSERT_TRUE(Ix.lookup(7, Out));
  EXPECT_EQ(Out, 0u);
  ASSERT_TRUE(Ix.lookup(300, Out));
  EXPECT_EQ(Out, 1u);

  Ix.record(7, 5); // overwrite
  ASSERT_TRUE(Ix.lookup(7, Out));
  EXPECT_EQ(Out, 5u);

  Ix.forget(7);
  EXPECT_FALSE(Ix.lookup(7, Out));
  ASSERT_TRUE(Ix.lookup(300, Out)); // unaffected

  Ix.clear(); // generation bump: everything gone, no sweep
  EXPECT_FALSE(Ix.lookup(300, Out));
  Ix.record(300, 9);
  ASSERT_TRUE(Ix.lookup(300, Out));
  EXPECT_EQ(Out, 9u);
}

TEST(GenRuntimeSlotIndex, FrameEnvironmentUsesTheIndexConsistently) {
  Ctx C;
  C.setNames(Names, sizeof(Names) / sizeof(Names[0]));
  Frame &F = C.frameAt(0);
  F.beginAlt(nullptr, 0, 8, nullptr, 0);

  long long V = 0;
  EXPECT_FALSE(F.getAttr(IdX, V));
  F.setAttr(IdX, 1);
  F.setAttr(IdA, 2);
  F.setAttr(IdVal, 3);
  F.setAttr(IdX, 10); // overwrite in place, no duplicate slot
  ASSERT_EQ(F.E.size(), 3u);
  ASSERT_TRUE(F.getAttr(IdX, V));
  EXPECT_EQ(V, 10);

  // Erasing a middle slot reseats the indices of the slots that slid.
  F.eraseAttr(IdA);
  ASSERT_EQ(F.E.size(), 2u);
  EXPECT_FALSE(F.getAttr(IdA, V));
  ASSERT_TRUE(F.getAttr(IdX, V));
  EXPECT_EQ(V, 10);
  ASSERT_TRUE(F.getAttr(IdVal, V));
  EXPECT_EQ(V, 3);

  // beginAlt invalidates every binding by generation, not by sweep.
  F.beginAlt(nullptr, 0, 8, nullptr, 0);
  EXPECT_FALSE(F.getAttr(IdX, V));
  EXPECT_FALSE(F.getAttr(IdVal, V));
  F.setAttr(IdVal, 4);
  ASSERT_TRUE(F.getAttr(IdVal, V));
  EXPECT_EQ(V, 4);
}

//===----------------------------------------------------------------------===//
// Lazy shifted views
//===----------------------------------------------------------------------===//

TEST(GenRuntimeShiftedViews, ViewsShareSlotsAndResolveAtReadTime) {
  Ctx C;
  C.setNames(Names, sizeof(Names) / sizeof(Names[0]));
  C.beginParse(nullptr);
  unsigned Base = freezeNode(C, 1, 3, 9);
  unsigned View = C.shifted(Base, 10);
  ASSERT_NE(View, Base);

  // The view shares the base's slot array — nothing was copied.
  EXPECT_EQ(C.node(View)->Slots, C.node(Base)->Slots);

  long long V = 0;
  ASSERT_TRUE(C.node(View)->getById(IdStart, V));
  EXPECT_EQ(V, 11);
  ASSERT_TRUE(C.node(View)->getById(IdEnd, V));
  EXPECT_EQ(V, 13);
  ASSERT_TRUE(C.node(View)->getById(IdX, V));
  EXPECT_EQ(V, 9); // coordinate-free attributes are untouched
  ASSERT_TRUE(C.node(View)->get("start", V));
  EXPECT_EQ(V, 11); // the by-name reader resolves the shift too

  // The base is unchanged (memoized nodes are shared across parents).
  ASSERT_TRUE(C.node(Base)->getById(IdStart, V));
  EXPECT_EQ(V, 1);

  // A zero delta needs no view object at all.
  EXPECT_EQ(C.shifted(Base, 0), Base);
}

TEST(GenRuntimeShiftedViews, DeepNestingComposesDeltas) {
  Ctx C;
  C.setNames(Names, sizeof(Names) / sizeof(Names[0]));
  C.beginParse(nullptr);
  unsigned Base = freezeNode(C, 1, 3, 9);
  // A view whose base is itself a view: deltas accumulate, and every
  // level still aliases the one frozen slot array.
  unsigned V1 = C.shifted(Base, 10);
  unsigned V2 = C.shifted(V1, 100);
  unsigned V3 = C.shifted(V2, 1000);
  EXPECT_EQ(C.node(V3)->Slots, C.node(Base)->Slots);
  long long V = 0;
  ASSERT_TRUE(C.node(V3)->getById(IdStart, V));
  EXPECT_EQ(V, 1111);
  ASSERT_TRUE(C.node(V3)->getById(IdEnd, V));
  EXPECT_EQ(V, 1113);
  // Intermediate views are independent readers of the shared slots.
  ASSERT_TRUE(C.node(V1)->getById(IdStart, V));
  EXPECT_EQ(V, 11);
  ASSERT_TRUE(C.node(V2)->getById(IdStart, V));
  EXPECT_EQ(V, 111);
}

TEST(GenRuntimeShiftedViews, AliasedViewsAndSpans) {
  Ctx C;
  C.setNames(Names, sizeof(Names) / sizeof(Names[0]));
  C.beginParse(nullptr);
  unsigned Base = freezeNode(C, 1, 3, 9);
  // Many parents re-anchor one memoized subtree at different offsets.
  unsigned AtFive = C.shifted(Base, 5);
  unsigned AtSeven = C.shifted(Base, 7);
  long long S1 = 0, S2 = 0;
  ASSERT_TRUE(C.node(AtFive)->getById(IdStart, S1));
  ASSERT_TRUE(C.node(AtSeven)->getById(IdStart, S2));
  EXPECT_EQ(S1, 6);
  EXPECT_EQ(S2, 8);

  // childSpanOf (the T-NTSucc parent view) resolves shifts too.
  long long BS = 0, BE = 0;
  C.childSpanOf(AtFive, 16, BS, BE);
  EXPECT_EQ(BS, 6);
  EXPECT_EQ(BE, 8);

  // An untouched node (no start/end) reads as [sub-EOI, 0) regardless.
  Frame &F = C.frameAt(0);
  F.beginAlt(nullptr, 0, 16, nullptr, 0);
  F.setAttr(IdX, 1);
  unsigned Untouched = C.freeze(F, IdA);
  C.childSpanOf(Untouched, 16, BS, BE);
  EXPECT_EQ(BS, 16);
  EXPECT_EQ(BE, 0);

  // Every slot of a view reads resolved: start/end shifted, the rest as
  // stored (exportTree hands the host the raw slots plus the delta).
  long long V = 0;
  ASSERT_TRUE(C.node(AtSeven)->getById(IdStart, V));
  EXPECT_EQ(V, 8);
  ASSERT_TRUE(C.node(AtSeven)->getById(IdEnd, V));
  EXPECT_EQ(V, 10);
  ASSERT_TRUE(C.node(AtSeven)->getById(IdX, V));
  EXPECT_EQ(V, 9);
}

//===----------------------------------------------------------------------===//
// Ctx memoization surface (what emitted parseRule_N calls)
//===----------------------------------------------------------------------===//

TEST(GenRuntimeMemo, StoresSuccessesAndFailuresAndCounts) {
  Ctx C;
  C.setNames(Names, sizeof(Names) / sizeof(Names[0]));
  C.beginParse(nullptr);
  unsigned Node = freezeNode(C, 0, 2, 5);

  bool Ok = false;
  unsigned Id = 0;
  EXPECT_FALSE(C.memoFind(4, 0, 16, Ok, Id)); // miss
  C.memoStore(4, 0, 16, true, Node);
  ASSERT_TRUE(C.memoFind(4, 0, 16, Ok, Id)); // hit
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Id, Node);

  C.memoStore(4, 2, 16, false, 0); // memoized failure
  ASSERT_TRUE(C.memoFind(4, 2, 16, Ok, Id));
  EXPECT_FALSE(Ok);

  // Different rule, same interval: distinct key.
  EXPECT_FALSE(C.memoFind(5, 0, 16, Ok, Id));

  EXPECT_EQ(C.memoHits(), 2u);
  EXPECT_EQ(C.memoMisses(), 2u);

  // beginParse invalidates the table (generational) and the counters.
  C.beginParse(nullptr);
  EXPECT_FALSE(C.memoFind(4, 0, 16, Ok, Id));
  EXPECT_EQ(C.memoHits(), 0u);
  EXPECT_EQ(C.memoMisses(), 1u);
}

//===----------------------------------------------------------------------===//
// Blackbox hook
//===----------------------------------------------------------------------===//

namespace {

bool consumingBb(void *, const unsigned char *, size_t Len,
                 BlackboxOut &Out) {
  static const unsigned char Decoded[4] = {1, 2, 3, 4};
  if (Len < 2)
    return false;
  Out.Value = 42;
  Out.End = 2;
  Out.Output = Decoded;
  Out.OutputLen = 4;
  return true;
}

bool emptyBb(void *, const unsigned char *, size_t, BlackboxOut &Out) {
  Out.Value = 7;
  Out.End = 0;
  return true;
}

bool overrunBb(void *, const unsigned char *, size_t Len,
               BlackboxOut &Out) {
  Out.End = static_cast<long long>(Len) + 1;
  return true;
}

} // namespace

TEST(GenRuntimeBlackbox, UnregisteredIsAHardFailure) {
  Ctx C;
  C.setNames(Names, sizeof(Names) / sizeof(Names[0]));
  C.beginParse(nullptr);
  BlackboxOut BB;
  unsigned char Buf[4] = {0};
  EXPECT_EQ(C.callBlackbox(IdBb, Buf, 4, BB), 0);
  EXPECT_TRUE(C.hardFailed());
}

TEST(GenRuntimeBlackbox, OverrunIsAHardFailureRejectionIsSoft) {
  Ctx C;
  C.setNames(Names, sizeof(Names) / sizeof(Names[0]));
  C.beginParse(nullptr);
  C.registerBlackbox(IdBb, consumingBb, nullptr);
  unsigned char Buf[4] = {0};
  BlackboxOut BB;
  // Soft: the decoder rejects (Len < 2) but the parse may backtrack.
  EXPECT_EQ(C.callBlackbox(IdBb, Buf, 1, BB), 0);
  EXPECT_FALSE(C.hardFailed());
  // Hard: consuming past the slice aborts the parse.
  C.registerBlackbox(IdBb, overrunBb, nullptr); // rebind
  EXPECT_EQ(C.callBlackbox(IdBb, Buf, 4, BB), 0);
  EXPECT_TRUE(C.hardFailed());
}

TEST(GenRuntimeBlackbox, NodeLayoutMatchesTheInterpreter) {
  Ctx C;
  C.setNames(Names, sizeof(Names) / sizeof(Names[0]));
  C.beginParse(nullptr);
  C.registerBlackbox(IdBb, consumingBb, nullptr);

  unsigned char Buf[8] = {0};
  BlackboxOut BB;
  ASSERT_EQ(C.callBlackbox(IdBb, Buf, 8, BB), 1);
  size_t FrozenBefore = C.frozenNodeCount();
  unsigned Id = C.blackboxNode(IdBb, IdVal, BB, /*Lo=*/3, /*Hi=*/8);
  EXPECT_EQ(C.frozenNodeCount(), FrozenBefore + 1);

  const Node *N = C.node(Id);
  long long V = 0;
  ASSERT_TRUE(N->getById(IdVal, V));
  EXPECT_EQ(V, 42);
  ASSERT_TRUE(N->getById(IdStart, V));
  EXPECT_EQ(V, 3); // Lo
  ASSERT_TRUE(N->getById(IdEnd, V));
  EXPECT_EQ(V, 5); // Lo + End
  // The decoded output became a leaf child COPYING the bytes (the
  // callback's buffer dies on its next invocation).
  ASSERT_EQ(N->kidCount(), 1u);
  const Node *Leaf = N->kid(0);
  EXPECT_EQ(Leaf->Kind, Node::KLeaf);
  EXPECT_NE(Leaf->Data, BB.Output); // arena copy, not the callback buffer
  EXPECT_EQ(Leaf->Len, 4u);
  EXPECT_EQ(Leaf->Data[0], 1);
  EXPECT_EQ(Leaf->Data[3], 4);
  EXPECT_FALSE(Leaf->Opaque);

  // An empty consumption mirrors the interpreter's untouched-span slots:
  // start = sub-EOI, end = Lo.
  C.registerBlackbox(IdBb, emptyBb, nullptr);
  ASSERT_EQ(C.callBlackbox(IdBb, Buf, 8, BB), 1);
  unsigned Empty = C.blackboxNode(IdBb, IdVal, BB, /*Lo=*/3, /*Hi=*/8);
  const Node *E = C.node(Empty);
  ASSERT_TRUE(E->getById(IdStart, V));
  EXPECT_EQ(V, 5); // Hi - Lo
  ASSERT_TRUE(E->getById(IdEnd, V));
  EXPECT_EQ(V, 3); // Lo
  EXPECT_EQ(E->kidCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Cross-module tree export
//===----------------------------------------------------------------------===//

namespace {

void collectRecord(void *User, const ExportObjC *Obj) {
  static_cast<std::vector<ExportObjC> *>(User)->push_back(*Obj);
}

} // namespace

TEST(GenRuntimeExport, EmitsEachReachableObjectOnceChildrenFirst) {
  Ctx C;
  C.setNames(Names, sizeof(Names) / sizeof(Names[0]));
  static const unsigned char In[] = {'a', 'b', 'c', 'd'};
  C.beginParse(In);

  // A failed alternative's node: built, then abandoned by its parent.
  unsigned Garbage = freezeNode(C, 0, 1, 0);

  // The memoized subtree: a node over one input leaf, re-anchored by
  // several parents (directly, through a view, and a view of a view
  // whose middle view nothing else references).
  Frame &FB = C.frameAt(1);
  FB.beginAlt(nullptr, 0, 2, nullptr, 0);
  FB.setAttr(IdStart, 0);
  FB.setAttr(IdEnd, 2);
  unsigned InLeaf = C.leaf(In, 2, 0, false);
  FB.Kids.push_back(InLeaf);
  unsigned Base = C.freeze(FB, IdA);
  unsigned AtTwo = C.shifted(Base, 2);
  unsigned Middle = C.shifted(Base, 1);
  unsigned AtThree = C.shifted(Middle, 2);

  C.registerBlackbox(IdBb, consumingBb, nullptr);
  BlackboxOut BB;
  ASSERT_EQ(C.callBlackbox(IdBb, In, 4, BB), 1);
  unsigned Bb = C.blackboxNode(IdBb, IdVal, BB, 0, 4);
  unsigned BbLeaf = C.node(Bb)->KidIds[0];

  std::vector<unsigned> Elems = {Base, AtTwo};
  unsigned Arr = C.array(IdA, Elems);
  unsigned Opaque = C.leaf(In + 2, 2, 2, true);

  Frame &FR = C.frameAt(0);
  FR.beginAlt(nullptr, 0, 4, nullptr, 0);
  FR.setAttr(IdStart, 0);
  FR.setAttr(IdEnd, 4);
  FR.Kids.push_back(Arr);
  FR.Kids.push_back(AtThree);
  FR.Kids.push_back(Bb);
  FR.Kids.push_back(Opaque);
  unsigned Root = C.freeze(FR, IdX);

  std::vector<ExportObjC> Recs;
  exportTree(C, Root, collectRecord, &Recs);

  std::map<unsigned, ExportObjC> ById;
  for (size_t I = 0; I < Recs.size(); ++I) {
    const ExportObjC &R = Recs[I];
    if (I) {
      EXPECT_LT(Recs[I - 1].Id, R.Id) << "ids must strictly increase";
    }
    for (unsigned K = 0; K < R.NumKids; ++K)
      EXPECT_TRUE(ById.count(R.KidIds[K]))
          << "child " << R.KidIds[K] << " of " << R.Id << " not yet emitted";
    if (R.ViewOf != Node::NotAView) {
      EXPECT_TRUE(ById.count(R.ViewOf)) << "view base not yet emitted";
    }
    EXPECT_TRUE(ById.emplace(R.Id, R).second) << "emitted twice: " << R.Id;
  }
  ASSERT_FALSE(Recs.empty());
  EXPECT_EQ(Recs.back().Id, Root);

  // Exactly the reachable objects: the abandoned node and the unshared
  // middle view are not; the base is, once, for all its re-anchorings.
  std::vector<unsigned> Want = {InLeaf, Base,   AtTwo, AtThree, BbLeaf,
                                Bb,     Arr,    Opaque, Root};
  EXPECT_EQ(Recs.size(), Want.size());
  for (unsigned Id : Want)
    EXPECT_TRUE(ById.count(Id)) << "missing " << Id;
  EXPECT_FALSE(ById.count(Garbage));
  EXPECT_FALSE(ById.count(Middle));

  // Views carry their whole delta over the unshifted base, and no slots
  // or children of their own.
  EXPECT_EQ(ById[AtTwo].ViewOf, Base);
  EXPECT_EQ(ById[AtTwo].Shift, 2);
  EXPECT_EQ(ById[AtThree].ViewOf, Base);
  EXPECT_EQ(ById[AtThree].Shift, 3);
  EXPECT_EQ(ById[AtThree].NumKids, 0u);
  EXPECT_EQ(ById[AtThree].NumSlots, 0u);
  EXPECT_EQ(ById[Base].ViewOf, Node::NotAView);
  EXPECT_EQ(ById[Base].Shift, 0);
  EXPECT_EQ(ById[Base].NumSlots, 2u);

  // The blackbox node and its decoded leaf are flagged; input leaves are
  // not, and keep their opacity.
  EXPECT_EQ(ById[Bb].Kind, Node::KNode);
  EXPECT_EQ(ById[Bb].Bb, 1);
  EXPECT_EQ(ById[BbLeaf].Kind, Node::KLeaf);
  EXPECT_EQ(ById[BbLeaf].Bb, 1);
  EXPECT_EQ(ById[BbLeaf].Len, 4u);
  EXPECT_EQ(ById[InLeaf].Bb, 0);
  EXPECT_EQ(ById[InLeaf].Data, In);
  EXPECT_EQ(ById[InLeaf].Opaque, 0);
  EXPECT_EQ(ById[Opaque].Opaque, 1);
  EXPECT_EQ(ById[Arr].Kind, Node::KArray);
  EXPECT_EQ(ById[Arr].NumKids, 2u);

  // The pooled buffers make a second export of the same tree identical.
  std::vector<ExportObjC> Again;
  exportTree(C, Root, collectRecord, &Again);
  ASSERT_EQ(Again.size(), Recs.size());
  for (size_t I = 0; I < Recs.size(); ++I)
    EXPECT_EQ(Again[I].Id, Recs[I].Id);
}
