//===- core/ConstraintGen.cpp - Equation 1 over span intervals ------------===//
//
// Part of the Light record/replay project.
//
//===----------------------------------------------------------------------===//
//
// Pairwise noninterference rules (per location, unordered span pair A, B):
//
//  R1. Both read-only (Read/Init) with the same source: compatible — reads
//      of one write may interleave freely. No constraint.
//  R2. Same source, exactly one side contains writes (a ReadSpan of w vs an
//      RMW-headed OwnSpan reading w): the reads must complete before the
//      overwrite. Hard: O(reader.Last) < O(writer.First).
//  R3. A span whose source write lies *inside* an OwnSpan of the writing
//      thread (a foreign read of the span's final write):
//        - read-only consumer: compatible (the own span's tail after the
//          source contains only reads of that same write). No constraint.
//        - write-bearing consumer: hard O(own.Last) < O(consumer.First).
//  R4. An Init span (reads of the never-written initial value) against any
//      span containing or implying a write: every write must come after the
//      init reads. Hard: O(init.Last) < O(other.Start).
//  R5. Same thread, and both spans' start vars belong to that thread: the
//      intra-thread order chain already serializes them. No constraint.
//  R6. Otherwise: interval disjointness, the span generalization of
//      Equation 1:  O(A.Last) < O(B.Start)  or  O(B.Last) < O(A.Start),
//      where Start is the source write when present, else the first access.
//
// Deciding R6 before search. The hard edges — the chains, the dependences
// and every unit above — form a DAG whose strict reachability is answered
// exactly by per-thread vector clocks (HardOrder). An R6 disjunct X < Y is
// implied when X reaches Y, and impossible when X == Y or Y reaches X. A
// pair with an implied side is dropped; a pair with an impossible side
// becomes its other side as a unit, which joins the DAG. Both steps keep
// the set of models, so the generator repeats them to a fixpoint and emits
// only the pairs left undecided. A cycle in the hard edges is a definitive
// UNSAT (ScheduleProblem::HardCycle).
//
// Which pairs are looked at. A span is *special* when it is an Init span
// or its source is frozen; every pair with a special span is classified.
// A pair of plain spans is skipped when the first round's clocks (chains
// and dependences) already order the two intervals: for each plain rule
// (R1, R2, R3, R5, R6) the unit it would emit is then implied, or the
// chains and dependences already close a cycle (DESIGN.md §7 has the case
// analysis). Per location and thread the spans lie on one chain, so the
// spans ordered before a span form a prefix of that thread's list and a
// conservative set of those ordered after it a suffix; only the middle is
// compared.
//
//===----------------------------------------------------------------------===//

#include "core/ConstraintGen.h"

#include <algorithm>
#include <cassert>

using namespace light;

namespace {

/// True when \p Consumer's source write lies inside \p Own (rule R3).
bool sourceInside(const SpanVarRefs &Consumer, const SpanVarRefs &Own) {
  if (!Own.hasWrites() || !Consumer.S->Src.valid())
    return false;
  const AccessId &Src = Consumer.S->Src;
  return Src.Thread == Own.S->Thread && Src.Count >= Own.S->First &&
         Src.Count <= Own.S->Last;
}

bool frozenSource(const SpanVarRefs &S) {
  return S.SrcFrozen && S.S->Src.valid();
}

/// Init and frozen-source spans are compared with every span of their
/// location: only their rules (R4, frozen R6) can demand an order the
/// clocks contradict.
bool special(const SpanVarRefs &S) {
  return S.S->Kind == SpanKind::Init || frozenSource(S);
}

/// Why a constraint holds; a cycle explanation names it.
enum class Why : uint8_t { Reads, R2, R3, R4, Frozen, R6 };

/// One emitted constraint, in emission order: the unit X1 < Y1, or (R6)
/// the disjunction X1 < Y1 or X2 < Y2 until saturation decides it.
struct Constraint {
  enum State : uint8_t { Unit, Either, Implied };
  smt::Var X1 = 0, Y1 = 0, X2 = 0, Y2 = 0;
  State St = Unit;
  Why Because = Why::Reads;
  const DepSpan *A = nullptr; ///< the span the rule names first
  const DepSpan *B = nullptr; ///< the other span (null for Reads)
};

/// Rules R1-R6 for the unordered same-location pair (A, B). Returns false
/// when the pair needs no constraint (R1, read-only R3, R5); otherwise
/// fills \p C with a unit (R2-R4, frozen R6) or an undecided disjunction.
bool pairRule(const SpanVarRefs &A, const SpanVarRefs &B, Constraint &C) {
  auto Unit = [&](Why W, const SpanVarRefs &X, smt::Var U,
                  const SpanVarRefs &Y, smt::Var V) {
    C.X1 = U, C.Y1 = V, C.St = Constraint::Unit, C.Because = W;
    C.A = X.S, C.B = Y.S;
    return true;
  };
  bool SameSrc = A.S->Src.valid() == B.S->Src.valid() &&
                 (!A.S->Src.valid() || A.S->Src == B.S->Src);

  // R1: shared source, read-only on both sides.
  if (SameSrc && A.readOnly() && B.readOnly())
    return false;

  // R2: shared *valid* source, exactly one side writes.
  if (SameSrc && A.S->Src.valid() && A.readOnly() != B.readOnly()) {
    const SpanVarRefs &Reader = A.readOnly() ? A : B;
    const SpanVarRefs &Writer = A.readOnly() ? B : A;
    return Unit(Why::R2, Reader, Reader.Last, Writer, Writer.First);
  }

  // R3: a consumer whose source lies inside the other (own) span.
  if (sourceInside(A, B) || sourceInside(B, A)) {
    const SpanVarRefs &Own = sourceInside(A, B) ? B : A;
    const SpanVarRefs &Consumer = sourceInside(A, B) ? A : B;
    if (!Consumer.hasWrites())
      return false;
    return Unit(Why::R3, Own, Own.Last, Consumer, Consumer.First);
  }

  // R4: init reads precede every write-implying span.
  if (A.S->Kind == SpanKind::Init || B.S->Kind == SpanKind::Init) {
    const SpanVarRefs &Init = A.S->Kind == SpanKind::Init ? A : B;
    const SpanVarRefs &Other = A.S->Kind == SpanKind::Init ? B : A;
    // Other is not Init (both-Init hits R1) and therefore contains or
    // depends on a write.
    return Unit(Why::R4, Init, Init.Last, Other, Other.startVar());
  }

  // R5: both intervals fully owned by one thread's chain.
  if (A.S->Thread == B.S->Thread &&
      (!A.S->Src.valid() || A.S->Src.Thread == A.S->Thread) &&
      (!B.S->Src.valid() || B.S->Src.Thread == B.S->Thread))
    return false;

  // R6: interval disjointness (Equation 1 generalized). A frozen source
  // kills the disjunct that would place the other span before it; the
  // survivor becomes a hard constraint (stronger than the clause, sound).
  if (frozenSource(A) && !frozenSource(B))
    return Unit(Why::Frozen, A, A.Last, B, B.startVar());
  if (frozenSource(B) && !frozenSource(A))
    return Unit(Why::Frozen, B, B.Last, A, A.startVar());
  C.X1 = A.Last, C.Y1 = B.startVar(), C.X2 = B.Last, C.Y2 = A.startVar();
  C.St = Constraint::Either, C.Because = Why::R6, C.A = A.S, C.B = B.S;
  return true;
}

/// Strict reachability over the hard edges: the thread chains plus the
/// added unit edges. After close(), Clock[v][t] is the chain position
/// (1-based) of the latest access of thread t that reaches v, v included.
/// Every variable sits on its thread's chain, so u reaches v exactly when
/// pos(u) <= Clock[v][thread(u)]. close() costs O((V + E) * T).
class HardOrder {
public:
  /// One edge of a cycle; Constraint is ~0u for a thread-chain edge.
  struct Step {
    smt::Var From, To;
    uint32_t Constraint;
  };

  explicit HardOrder(const std::vector<AccessId> &VarAccess)
      : Thread(VarAccess.size()), Pos(VarAccess.size()) {
    std::vector<ThreadId> Ids;
    for (const AccessId &A : VarAccess)
      Ids.push_back(A.Thread);
    std::sort(Ids.begin(), Ids.end());
    Ids.erase(std::unique(Ids.begin(), Ids.end()), Ids.end());
    Chains.resize(Ids.size());
    for (smt::Var V = 0; V < VarAccess.size(); ++V) {
      Thread[V] = static_cast<uint32_t>(
          std::lower_bound(Ids.begin(), Ids.end(), VarAccess[V].Thread) -
          Ids.begin());
      Chains[Thread[V]].push_back(V);
    }
    for (std::vector<smt::Var> &Chain : Chains) {
      std::sort(Chain.begin(), Chain.end(), [&](smt::Var X, smt::Var Y) {
        return VarAccess[X].Count < VarAccess[Y].Count;
      });
      for (uint32_t I = 0; I < Chain.size(); ++I)
        Pos[Chain[I]] = I + 1;
    }
  }

  /// Per thread, ascending: the thread's variables in counter order.
  const std::vector<std::vector<smt::Var>> &chains() const { return Chains; }
  uint32_t threadOf(smt::Var V) const { return Thread[V]; }
  uint32_t pos(smt::Var V) const { return Pos[V]; }

  /// Adds the hard edge From < To, justified by constraint \p Index.
  void add(smt::Var From, smt::Var To, uint32_t Index) {
    Edges.push_back({From, To, Index});
  }
  size_t edgeCount() const { return Edges.size(); }

  /// Recomputes the clocks over every edge added so far. Returns false,
  /// with cycle() filled, when the edges close a cycle.
  bool close();

  /// How many accesses of thread \p T strictly precede \p V in the hard
  /// order (they are a prefix of T's chain).
  uint32_t seen(smt::Var V, uint32_t T) const {
    return T == Thread[V] ? Pos[V] - 1 : Clock[size_t(V) * Chains.size() + T];
  }

  /// True when \p U < \p V holds in every model of the hard edges.
  bool before(smt::Var U, smt::Var V) const {
    return Pos[U] <= seen(V, Thread[U]);
  }

  const std::vector<Step> &cycle() const { return Cycle; }

private:
  smt::Var chainNext(smt::Var V) const {
    const std::vector<smt::Var> &C = Chains[Thread[V]];
    return Pos[V] < C.size() ? C[Pos[V]] : ~0u;
  }
  smt::Var chainPrev(smt::Var V) const {
    return Pos[V] > 1 ? Chains[Thread[V]][Pos[V] - 2] : ~0u;
  }
  void findCycle(const std::vector<uint32_t> &InDegree);

  std::vector<uint32_t> Thread, Pos;
  std::vector<std::vector<smt::Var>> Chains;
  std::vector<Step> Edges;
  std::vector<uint32_t> Clock;
  std::vector<Step> Cycle;
};

bool HardOrder::close() {
  size_t V = Pos.size(), T = Chains.size();
  // Out-edges in CSR form; the chain successor is implicit.
  std::vector<uint32_t> Start(V + 1, 0), InDegree(V, 0);
  for (const Step &E : Edges)
    ++Start[E.From + 1], ++InDegree[E.To];
  for (size_t I = 0; I < V; ++I)
    Start[I + 1] += Start[I];
  std::vector<smt::Var> Out(Edges.size());
  std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
  for (const Step &E : Edges)
    Out[Fill[E.From]++] = E.To;
  for (smt::Var X = 0; X < V; ++X)
    if (chainPrev(X) != ~0u)
      ++InDegree[X];

  Clock.assign(V * T, 0);
  std::vector<smt::Var> Ready;
  for (smt::Var X = 0; X < V; ++X)
    if (!InDegree[X])
      Ready.push_back(X);
  size_t Done = 0;
  auto Relax = [&](smt::Var From, smt::Var To) {
    const uint32_t *Src = &Clock[size_t(From) * T];
    uint32_t *Dst = &Clock[size_t(To) * T];
    for (size_t I = 0; I < T; ++I)
      Dst[I] = std::max(Dst[I], Src[I]);
    if (!--InDegree[To])
      Ready.push_back(To);
  };
  while (!Ready.empty()) {
    smt::Var X = Ready.back();
    Ready.pop_back();
    ++Done;
    Clock[size_t(X) * T + Thread[X]] = Pos[X];
    if (smt::Var N = chainNext(X); N != ~0u)
      Relax(X, N);
    for (uint32_t I = Start[X]; I < Start[X + 1]; ++I)
      Relax(X, Out[I]);
  }
  if (Done == V)
    return true;
  findCycle(InDegree);
  return false;
}

void HardOrder::findCycle(const std::vector<uint32_t> &InDegree) {
  // Every variable left with in-degree > 0 has a predecessor that is left
  // too; walking such predecessors from one of them must revisit a
  // variable, and the walk from that variable on is a cycle.
  size_t V = Pos.size();
  std::vector<uint32_t> Start(V + 1, 0);
  for (const Step &E : Edges)
    ++Start[E.To + 1];
  for (size_t I = 0; I < V; ++I)
    Start[I + 1] += Start[I];
  std::vector<uint32_t> In(Edges.size());
  std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
  for (uint32_t I = 0; I < Edges.size(); ++I)
    In[Fill[Edges[I].To]++] = I;

  smt::Var X = 0;
  while (!InDegree[X])
    ++X;
  std::vector<uint32_t> Visited(V, ~0u);
  std::vector<Step> Walk; // backwards: Walk[i].To is the previous From
  while (Visited[X] == ~0u) {
    Visited[X] = static_cast<uint32_t>(Walk.size());
    smt::Var P = chainPrev(X);
    Step S{P, X, ~0u};
    if (P == ~0u || !InDegree[P])
      for (uint32_t I = Start[X]; I < Start[X + 1]; ++I)
        if (InDegree[Edges[In[I]].From]) {
          S = Edges[In[I]];
          break;
        }
    Walk.push_back(S);
    X = S.From;
  }
  Cycle.assign(Walk.begin() + Visited[X], Walk.end());
  std::reverse(Cycle.begin(), Cycle.end());
}

/// Decides the R6 disjunction \p C against \p H: an implied side drops the
/// pair; an impossible side turns it into the other side as a unit.
/// Returns true when \p C became a unit (a new hard edge).
bool decide(Constraint &C, const HardOrder &H) {
  if (H.before(C.X1, C.Y1) || H.before(C.X2, C.Y2)) {
    C.St = Constraint::Implied;
    return false;
  }
  if (C.X1 == C.Y1 || H.before(C.Y1, C.X1)) {
    std::swap(C.X1, C.X2);
    std::swap(C.Y1, C.Y2);
    C.St = Constraint::Unit;
    return true;
  }
  if (C.X2 == C.Y2 || H.before(C.Y2, C.X2)) {
    C.St = Constraint::Unit;
    return true;
  }
  return false;
}

/// One cycle step in the recorded log's terms.
std::string describe(const HardOrder::Step &S,
                     const std::vector<Constraint> &Cs,
                     const std::vector<AccessId> &VarAccess) {
  std::string From = VarAccess[S.From].str(), To = VarAccess[S.To].str();
  if (S.Constraint == ~0u)
    return From + " precedes " + To;
  const Constraint &C = Cs[S.Constraint];
  switch (C.Because) {
  case Why::Reads:
    return To + " reads " + From + " [" + C.A->str() + "]";
  case Why::R2:
    return From + " reads before " + To + " overwrites [" + C.A->str() +
           " | " + C.B->str() + "]";
  case Why::R3:
    return From + " ends the span that " + To + " reads from [" +
           C.A->str() + " | " + C.B->str() + "]";
  case Why::R4:
    return From + " reads the initial value before " + To + " [" +
           C.A->str() + " | " + C.B->str() + "]";
  case Why::Frozen:
    return From + " precedes " + To + " [" + C.A->str() +
           " reads a frozen write | " + C.B->str() + "]";
  case Why::R6:
    return From + " must precede " + To + " (noninterference) [" +
           C.A->str() + " | " + C.B->str() + "]";
  }
  return From + " < " + To;
}

/// The spans of one location, indices into the location-sorted span list.
struct LocGroup {
  size_t Begin, End;
};

/// Lists, for each span of one location, the later spans of the location
/// it must be compared with: every pair with a special span, and every
/// pair of plain spans that the clocks do not order (see the file
/// comment). Members holds the location's spans sorted by (thread, First);
/// each Run is one thread's stretch of it.
class PairFinder {
public:
  PairFinder(const std::vector<SpanVarRefs> &ByLoc, LocGroup G,
             const HardOrder &H)
      : ByLoc(ByLoc), H(H) {
    for (size_t I = G.Begin; I < G.End; ++I) {
      Members.push_back(I);
      if (special(ByLoc[I]))
        Special.push_back(I);
    }
    std::sort(Members.begin(), Members.end(), [&](size_t X, size_t Y) {
      uint32_t TX = H.threadOf(ByLoc[X].First), TY = H.threadOf(ByLoc[Y].First);
      if (TX != TY)
        return TX < TY;
      return ByLoc[X].S->First != ByLoc[Y].S->First
                 ? ByLoc[X].S->First < ByLoc[Y].S->First
                 : X < Y;
    });
    for (size_t K = 0; K < Members.size(); ++K) {
      uint32_t T = H.threadOf(ByLoc[Members[K]].First);
      if (Runs.empty() || Runs.back().Thread != T)
        Runs.push_back({T, K, K});
      Runs.back().End = K + 1;
      uint32_t P = H.pos(ByLoc[Members[K]].Last);
      LastPrefixMax.push_back(
          Runs.back().Begin == K ? P : std::max(P, LastPrefixMax.back()));
    }
  }

  /// Fills \p Out, ascending, with the indices J > \p I to compare with I.
  void candidates(size_t I, std::vector<size_t> &Out) {
    Out.clear();
    const SpanVarRefs &A = ByLoc[I];
    if (special(A)) {
      for (size_t J : Members)
        if (J > I)
          Out.push_back(J);
      std::sort(Out.begin(), Out.end());
      return;
    }
    uint32_t TA = H.threadOf(A.First), LastPos = H.pos(A.Last);
    for (const Run &R : Runs) {
      // [Begin, Lo): spans whose Last precedes A's start.
      uint32_t Seen = H.seen(A.startVar(), R.Thread);
      size_t Lo = std::upper_bound(LastPrefixMax.begin() + R.Begin,
                                   LastPrefixMax.begin() + R.End, Seen) -
                  LastPrefixMax.begin();
      // [Hi, End): spans whose start A's Last precedes, every one of them.
      const std::vector<uint32_t> &Min = startSuffixMin(R, TA);
      size_t Hi = R.Begin + (std::lower_bound(Min.begin(), Min.end(),
                                              LastPos) -
                             Min.begin());
      for (size_t K = Lo; K < Hi; ++K)
        if (Members[K] > I)
          Out.push_back(Members[K]);
    }
    for (size_t J : Special)
      if (J > I)
        Out.push_back(J);
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  }

private:
  struct Run {
    uint32_t Thread;
    size_t Begin, End;
  };

  /// For run \p R and viewer thread \p TA: element k is the least, over
  /// the run's spans from k on, of how many of TA's accesses precede the
  /// span's start. Nondecreasing in k.
  const std::vector<uint32_t> &startSuffixMin(const Run &R, uint32_t TA) {
    auto [It, Fresh] = SuffixMin.try_emplace(
        (static_cast<uint64_t>(R.Begin) << 32) | TA);
    std::vector<uint32_t> &Min = It->second;
    if (Fresh) {
      Min.resize(R.End - R.Begin);
      uint32_t Low = ~0u;
      for (size_t K = R.End; K-- > R.Begin;) {
        Low = std::min(Low, H.seen(ByLoc[Members[K]].startVar(), TA));
        Min[K - R.Begin] = Low;
      }
    }
    return Min;
  }

  const std::vector<SpanVarRefs> &ByLoc;
  const HardOrder &H;
  std::vector<size_t> Members, Special;
  std::vector<Run> Runs;
  std::vector<uint32_t> LastPrefixMax;
  std::unordered_map<uint64_t, std::vector<uint32_t>> SuffixMin;
};

} // namespace

ScheduleProblem
light::generateScheduleProblem(std::vector<SpanVarRefs> &Spans) {
  ScheduleProblem P;

  auto GetVar = [&](AccessId A) -> smt::Var {
    auto [It, Inserted] = P.AccessVar.try_emplace(A.pack(), 0);
    if (Inserted) {
      It->second = P.System.newVar(A.str());
      P.VarAccess.push_back(A);
    }
    return It->second;
  };

  // 1. Order variables for every recorded access, in span order.
  for (SpanVarRefs &SV : Spans) {
    const DepSpan &S = *SV.S;
    if (S.Src.valid() && !SV.SrcFrozen)
      SV.Src = GetVar(S.Src);
    SV.First = GetVar(S.first());
    SV.Last = S.Last == S.First ? SV.First : GetVar(S.last());
  }

  // 2. Intra-thread order chains: same-thread accesses keep their counter
  //    order ("for two accesses c1 and c2 within the same thread ... we
  //    further assert O(c1) < O(c2)", Section 4.2), in ascending thread
  //    order so clause order — and with it solver decision order and the
  //    produced schedule — is identical across runs and platforms.
  HardOrder H(P.VarAccess);
  for (const std::vector<smt::Var> &Chain : H.chains())
    for (size_t I = 1; I < Chain.size(); ++I)
      P.System.addLess(Chain[I - 1], Chain[I]);

  // 3. Dependence constraints O(c_w) < O(c_r), per location in ascending
  //    location order for the same determinism reason; within a location,
  //    spans keep their input order.
  std::vector<SpanVarRefs> ByLoc(Spans);
  std::stable_sort(ByLoc.begin(), ByLoc.end(),
                   [](const SpanVarRefs &X, const SpanVarRefs &Y) {
                     return X.S->Loc < Y.S->Loc;
                   });
  std::vector<LocGroup> Groups;
  for (size_t Begin = 0, End; Begin < ByLoc.size(); Begin = End) {
    for (End = Begin + 1;
         End < ByLoc.size() && ByLoc[End].S->Loc == ByLoc[Begin].S->Loc;
         ++End)
      ;
    Groups.push_back({Begin, End});
    P.Pairs.Pairs += uint64_t(End - Begin) * (End - Begin - 1) / 2;
  }
  std::vector<Constraint> Cs;
  std::vector<size_t> DepEnd;
  for (const LocGroup &G : Groups) {
    for (size_t I = G.Begin; I < G.End; ++I)
      if (ByLoc[I].S->Src.valid() && !ByLoc[I].SrcFrozen) {
        Constraint C;
        C.X1 = ByLoc[I].Src, C.Y1 = ByLoc[I].First, C.A = ByLoc[I].S;
        H.add(C.X1, C.Y1, static_cast<uint32_t>(Cs.size()));
        Cs.push_back(C);
      }
    DepEnd.push_back(Cs.size());
  }

  // 4. The pair rules, decided against the hard order to a fixpoint. The
  //    first round's clocks (chains and dependences) also pick the pairs
  //    that are compared at all.
  size_t Closed = H.edgeCount();
  bool Acyclic = H.close();
  P.Pairs.Rounds = 1;
  std::vector<size_t> PairEnd, Open;
  if (Acyclic) {
    std::vector<size_t> Cand;
    for (const LocGroup &G : Groups) {
      PairFinder Finder(ByLoc, G, H);
      for (size_t I = G.Begin; I < G.End; ++I) {
        Finder.candidates(I, Cand);
        for (size_t J : Cand) {
          Constraint C;
          if (!pairRule(ByLoc[I], ByLoc[J], C))
            continue;
          if (C.St == Constraint::Either && !decide(C, H))
            Open.push_back(Cs.size());
          if (C.St == Constraint::Unit)
            H.add(C.X1, C.Y1, static_cast<uint32_t>(Cs.size()));
          Cs.push_back(C);
        }
      }
      PairEnd.push_back(Cs.size());
    }
  }
  while (Acyclic && H.edgeCount() != Closed) {
    Closed = H.edgeCount();
    ++P.Pairs.Rounds;
    if (!(Acyclic = H.close()))
      break;
    size_t Kept = 0;
    for (size_t I : Open) {
      if (decide(Cs[I], H))
        H.add(Cs[I].X1, Cs[I].Y1, static_cast<uint32_t>(I));
      else if (Cs[I].St == Constraint::Either)
        Open[Kept++] = I;
    }
    Open.resize(Kept);
  }
  P.Pairs.Decided = P.Pairs.Pairs - Open.size();
  if (!Acyclic) {
    P.HardCycle = "hard-order cycle:";
    for (const HardOrder::Step &S : H.cycle())
      P.HardCycle += " " + describe(S, Cs, P.VarAccess) + ";";
    P.HardCycle.pop_back();
  }

  // 5. Emission: per location its dependences, then its surviving pair
  //    constraints in pair order (none when the dependences already close
  //    a cycle).
  auto Emit = [&](size_t From, size_t To) {
    for (size_t I = From; I < To; ++I) {
      const Constraint &C = Cs[I];
      if (C.St == Constraint::Unit)
        P.System.addLess(C.X1, C.Y1);
      else if (C.St == Constraint::Either)
        P.System.addEitherLess(C.X1, C.Y1, C.X2, C.Y2);
    }
  };
  for (size_t G = 0; G < Groups.size(); ++G) {
    Emit(G ? DepEnd[G - 1] : 0, DepEnd[G]);
    if (G < PairEnd.size())
      Emit(G ? PairEnd[G - 1] : DepEnd.back(), PairEnd[G]);
  }
  return P;
}

std::vector<SpanVarRefs> light::spanRefsOf(const RecordingLog &Log) {
  std::vector<SpanVarRefs> Spans(Log.Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Spans[I].S = &Log.Spans[I];
  return Spans;
}

ScheduleProblem light::buildScheduleProblem(const RecordingLog &Log) {
  std::vector<SpanVarRefs> Spans = spanRefsOf(Log);
  ScheduleProblem P = generateScheduleProblem(Spans);
  // Component metadata for sharded solving: which variables can interact.
  P.Components = smt::connectedComponents(P.System);
  return P;
}

std::vector<AccessId>
ScheduleProblem::orderOf(const smt::SolveResult &R) const {
  std::vector<uint32_t> Perm(VarAccess.size());
  for (uint32_t I = 0; I < Perm.size(); ++I)
    Perm[I] = I;
  std::sort(Perm.begin(), Perm.end(), [&](uint32_t X, uint32_t Y) {
    if (R.Values[X] != R.Values[Y])
      return R.Values[X] < R.Values[Y];
    return VarAccess[X].pack() < VarAccess[Y].pack();
  });
  std::vector<AccessId> Order;
  Order.reserve(Perm.size());
  for (uint32_t I : Perm)
    Order.push_back(VarAccess[I]);
  return Order;
}

smt::SolveResult ScheduleProblem::solve(smt::SolverEngine Engine,
                                        smt::SolverLimits Limits,
                                        std::vector<AccessId> &Order) const {
  if (!HardCycle.empty()) {
    smt::SolveResult R;
    R.Outcome = smt::SolveResult::Status::Unsat;
    R.Message = HardCycle;
    return R;
  }
  smt::SolveResult R = smt::solveOrder(System, Engine, Limits);
  if (R.sat())
    Order = orderOf(R);
  return R;
}
