package core_test

import (
	"testing"

	"dgc/internal/core"
	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/refs"
	"dgc/internal/snapshot"
)

// ---- summary-level multi-process simulator ----------------------------
//
// Drives Detectors on hand-built heaps through an in-memory CDM queue,
// with no transport or node machinery: the algorithm in isolation.

type simProc struct {
	h   *heap.Heap
	tb  *refs.Table
	det *core.Detector
	sum *core.Summary

	// The detector counts nothing; the fixture records what it did: sent
	// counts the CDMs its SendCDMs calls handed over, outcomes the kinds
	// its starts and deliveries returned.
	sent     int
	outcomes map[core.OutcomeKind]int
}

type cdmEnv struct {
	det   core.DetectionID
	along ids.RefID
	alg   core.Alg
	hops  int
}

type sim struct {
	t       *testing.T
	procs   map[ids.NodeID]*simProc
	queue   []cdmEnv
	deleted []ids.RefID    // DeleteOwnScion calls, in order
	found   []core.Outcome // OutcomeCycleFound outcomes
}

type simActions struct {
	s    *sim
	self ids.NodeID
}

func (a simActions) SendCDMs(det core.DetectionID, alongs []ids.RefID, alg core.Alg, hops int) {
	a.s.procs[a.self].sent += len(alongs)
	for _, along := range alongs {
		a.s.queue = append(a.s.queue, cdmEnv{det: det, along: along, alg: alg.Clone(), hops: hops})
	}
}

func (a simActions) DeleteOwnScion(ref ids.RefID) {
	a.s.deleted = append(a.s.deleted, ref)
	a.s.procs[a.self].tb.DeleteScion(ref.Src, ref.Dst.Obj)
}

func newSim(t *testing.T, names ...ids.NodeID) *sim {
	s := &sim{t: t, procs: make(map[ids.NodeID]*simProc)}
	for _, n := range names {
		p := &simProc{h: heap.New(n), tb: refs.NewTable(n), outcomes: make(map[core.OutcomeKind]int)}
		p.det = core.NewDetector(n, simActions{s: s, self: n})
		s.procs[n] = p
	}
	return s
}

func (s *sim) proc(n ids.NodeID) *simProc { return s.procs[n] }

func (s *sim) summarizeAll(version uint64) {
	for _, p := range s.procs {
		p.sum = snapshot.Summarize(p.h, p.tb, version)
	}
}

func (s *sim) summarize(n ids.NodeID, version uint64) {
	p := s.procs[n]
	p.sum = snapshot.Summarize(p.h, p.tb, version)
}

// pump delivers queued CDMs until quiescence, recording cycle-found
// outcomes. Returns the number of CDMs processed.
func (s *sim) pump() int {
	processed := 0
	for len(s.queue) > 0 {
		env := s.queue[0]
		s.queue = s.queue[1:]
		s.deliver(env)
		processed++
		if processed > 10000 {
			s.t.Fatal("pump did not terminate: CDM loop")
		}
	}
	return processed
}

// deliver hands one CDM to the node owning its along scion, recording the
// outcome.
func (s *sim) deliver(env cdmEnv) core.Outcome {
	p := s.procs[env.along.Dst.Node]
	if p == nil {
		s.t.Fatalf("CDM to unknown node %s", env.along.Dst.Node)
	}
	return s.record(p, p.det.HandleCDM(p.sum, env.det, env.along, env.alg, env.hops))
}

// start initiates a detection at the node owning candidate's scion.
func (s *sim) start(candidate ids.RefID) core.Outcome {
	p := s.procs[candidate.Dst.Node]
	_, out := p.det.StartDetection(p.sum, candidate)
	return s.record(p, out)
}

func (s *sim) record(p *simProc, out core.Outcome) core.Outcome {
	p.outcomes[out.Kind]++
	if out.Kind == core.OutcomeCycleFound {
		s.found = append(s.found, out)
	}
	return out
}

func mustNoErr(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// ---- Figure 3: a simple distributed garbage cycle ---------------------
//
// P2{F->H->J, F->G->H} --J->Q--> P4{Q->R->S} --S->O--> P3{O->M->K}
// --K->D--> P1{D->C->B} --B->F--> P2. Object A in P1 is unrooted garbage.

type fig3 struct {
	*sim
	refF, refQ, refO, refD ids.RefID // the four inter-process references
	objB                   ids.ObjID // B at P1, holder of the F stub
	objF                   ids.ObjID
}

func buildFig3(t *testing.T) *fig3 {
	s := newSim(t, "P1", "P2", "P3", "P4")
	f := &fig3{sim: s}

	// P2: F(1) -> H(2), F -> G(3), G -> H, H -> J(4), J -> Q@P4.
	p2 := s.proc("P2")
	F, H, G, J := p2.h.Alloc(nil), p2.h.Alloc(nil), p2.h.Alloc(nil), p2.h.Alloc(nil)
	f.objF = F.ID
	mustNoErr(t,
		p2.h.AddLocalRef(F.ID, H.ID),
		p2.h.AddLocalRef(F.ID, G.ID),
		p2.h.AddLocalRef(G.ID, H.ID),
		p2.h.AddLocalRef(H.ID, J.ID),
	)

	// P4: Q(1) -> R(2) -> S(3), S -> O@P3.
	p4 := s.proc("P4")
	Q, R, S := p4.h.Alloc(nil), p4.h.Alloc(nil), p4.h.Alloc(nil)
	mustNoErr(t, p4.h.AddLocalRef(Q.ID, R.ID), p4.h.AddLocalRef(R.ID, S.ID))

	// P3: O(1) -> M(2) -> K(3), K -> D@P1.
	p3 := s.proc("P3")
	O, M, K := p3.h.Alloc(nil), p3.h.Alloc(nil), p3.h.Alloc(nil)
	mustNoErr(t, p3.h.AddLocalRef(O.ID, M.ID), p3.h.AddLocalRef(M.ID, K.ID))

	// P1: D(1) -> C(2) -> B(3), B -> F@P2; A(4) is local garbage.
	p1 := s.proc("P1")
	D, C, B := p1.h.Alloc(nil), p1.h.Alloc(nil), p1.h.Alloc(nil)
	p1.h.Alloc(nil) // A
	f.objB = B.ID
	mustNoErr(t, p1.h.AddLocalRef(D.ID, C.ID), p1.h.AddLocalRef(C.ID, B.ID))

	// Inter-process references with their stubs and scions.
	link := func(srcProc *simProc, holder ids.ObjID, dstProc *simProc, target ids.ObjID) ids.RefID {
		g := ids.GlobalRef{Node: dstProc.h.Node(), Obj: target}
		mustNoErr(t, srcProc.h.AddRemoteRef(holder, g))
		srcProc.tb.EnsureStub(g)
		dstProc.tb.EnsureScion(srcProc.h.Node(), target, 0)
		return ids.RefID{Src: srcProc.h.Node(), Dst: g}
	}
	f.refQ = link(p2, J.ID, p4, Q.ID)
	f.refO = link(p4, S.ID, p3, O.ID)
	f.refD = link(p3, K.ID, p1, D.ID)
	f.refF = link(p1, B.ID, p2, F.ID)

	s.summarizeAll(1)
	return f
}

func TestFig3DetectionFindsCycle(t *testing.T) {
	f := buildFig3(t)
	out := f.start(f.refF)
	if out.Kind != core.OutcomeForwarded || out.Forwarded != 1 {
		t.Fatalf("start outcome = %+v", out)
	}
	f.pump()
	if len(f.found) != 1 {
		t.Fatalf("cycles found = %d, want 1", len(f.found))
	}
	garbage := f.found[0].GarbageScions
	if len(garbage) != 4 {
		t.Fatalf("garbage scions = %v, want the 4 cycle references", garbage)
	}
	want := map[ids.RefID]bool{f.refF: true, f.refQ: true, f.refO: true, f.refD: true}
	for _, g := range garbage {
		if !want[g] {
			t.Errorf("unexpected garbage scion %v", g)
		}
	}
	// The finder is P1, the last process of the ring: its derivation already
	// closes, so it declares the cycle instead of sending the CDM home to
	// P2, and deletes its own scion.
	if len(f.deleted) != 1 || f.deleted[0] != f.refD {
		t.Fatalf("deleted = %v, want [%v]", f.deleted, f.refD)
	}
	if f.proc("P1").tb.HasScion("P3", f.refD.Dst.Obj) {
		t.Fatal("scion for D still in table")
	}
	// Other processes keep their scions; the acyclic DGC cascade reclaims
	// them (not simulated at this level).
	if f.proc("P4").tb.NumScions() != 1 {
		t.Fatal("P4 scion should survive at this layer")
	}
}

func TestFig3CDMHopCount(t *testing.T) {
	f := buildFig3(t)
	f.start(f.refF)
	processed := f.pump()
	// One CDM per process downstream of the origin in the 4-process ring:
	// P4, P3, P1. P1's derivation closes the cycle, so no CDM returns to P2.
	if processed != 3 {
		t.Fatalf("CDMs processed = %d, want 3", processed)
	}
	total := 0
	for _, p := range f.procs {
		total += p.sent
	}
	if total != 3 {
		t.Fatalf("CDMs sent = %d, want 3", total)
	}
}

func TestFig3LiveCycleStopsAtLocalReach(t *testing.T) {
	f := buildFig3(t)
	// Root C at P1: B (holder of the F stub) becomes locally reachable, so
	// the cycle is live.
	mustNoErr(t, f.proc("P1").h.AddRoot(2 /* C */))
	f.summarizeAll(2)

	out := f.start(f.refF)
	if out.Kind != core.OutcomeForwarded {
		t.Fatalf("start outcome = %+v", out)
	}
	f.pump()
	if len(f.found) != 0 {
		t.Fatal("live cycle was detected as garbage")
	}
	if len(f.deleted) != 0 {
		t.Fatal("live cycle scion deleted")
	}
	// The branch must have ended at P1 where Local.Reach(F stub) is true.
	if f.proc("P1").sent != 0 {
		t.Fatal("P1 forwarded past a locally reachable stub")
	}
}

// TestNoNewInfoMarksOnlyThatCut: Outcome.NoNewInfo, the cut after which a
// node returns its view to the origin, marks the §3.1 step 15 end — P4
// handed back its own derivation — and not the end at a locally reachable
// stub (P1 on a live Figure 3 ring).
func TestNoNewInfoMarksOnlyThatCut(t *testing.T) {
	f := buildFig3(t)
	f.start(f.refF)
	env, p4 := f.queue[0], f.proc("P4")
	out := p4.det.HandleCDM(p4.sum, env.det, env.along, env.alg, env.hops)
	if out.Kind != core.OutcomeForwarded || out.NoNewInfo {
		t.Fatalf("first delivery at P4 = %+v, want forwarded", out)
	}
	out = p4.det.HandleCDM(p4.sum, env.det, env.along, *out.Derived, env.hops)
	if out.Kind != core.OutcomeBranchEnded || !out.NoNewInfo {
		t.Fatalf("P4's own derivation delivered back = %+v, want the no-new-information cut", out)
	}

	live := buildFig3(t)
	mustNoErr(t, live.proc("P1").h.AddRoot(2 /* C */))
	live.summarizeAll(2)
	live.start(live.refF)
	reached := false
	for len(live.queue) > 0 {
		env := live.queue[0]
		live.queue = live.queue[1:]
		p := live.proc(env.along.Dst.Node)
		out := p.det.HandleCDM(p.sum, env.det, env.along, env.alg, env.hops)
		if env.along.Dst.Node == "P1" {
			reached = true
			if out.Kind != core.OutcomeBranchEnded || out.NoNewInfo {
				t.Fatalf("P1 behind a locally reachable stub = %+v, want a plain branch end", out)
			}
		}
	}
	if !reached {
		t.Fatal("the live ring's detection never reached P1")
	}
}

func TestFig3LocallyReachableCandidateRefused(t *testing.T) {
	f := buildFig3(t)
	// Root F itself at P2.
	mustNoErr(t, f.proc("P2").h.AddRoot(f.objF))
	f.summarizeAll(2)
	out := f.start(f.refF)
	if out.Kind != core.OutcomeBranchEnded {
		t.Fatalf("outcome = %+v, want branch-ended", out)
	}
	if len(f.queue) != 0 {
		t.Fatal("CDMs sent for a locally reachable candidate")
	}
}

func TestFig3UnknownScionCandidateDropped(t *testing.T) {
	f := buildFig3(t)
	bogus := ids.RefID{Src: "P9", Dst: ids.GlobalRef{Node: "P2", Obj: 99}}
	if out := f.start(bogus); out.Kind != core.OutcomeDropped {
		t.Fatalf("outcome = %+v, want dropped", out)
	}
}

func TestCDMToUnknownScionDropped(t *testing.T) {
	// Safety rule 1/2: a CDM arriving for a scion not in the summary is
	// discarded silently.
	f := buildFig3(t)
	p2 := f.proc("P2")
	alg := core.NewAlg()
	alg.AddTarget(ids.RefID{Src: "P9", Dst: ids.GlobalRef{Node: "P2", Obj: 42}}, 0)
	det := core.DetectionID{Origin: "P9", Seq: 1}
	out := f.deliver(cdmEnv{det: det, along: ids.RefID{Src: "P9", Dst: ids.GlobalRef{Node: "P2", Obj: 42}},
		alg: alg})
	if out.Kind != core.OutcomeDropped {
		t.Fatalf("outcome = %+v", out)
	}
	if got := p2.outcomes[core.OutcomeDropped]; got != 1 {
		t.Fatalf("dropped outcomes = %d", got)
	}
	if len(f.queue) != 0 {
		t.Fatalf("a dropped CDM sent %d more", len(f.queue))
	}
}

// ---- §3.2 races: invocation counters ----------------------------------

func TestRaceArrivalGuardAborts(t *testing.T) {
	// Fig 5 shape: an invocation crosses P1->F@P2 after P2's snapshot; P1
	// re-summarizes afterwards, P2 does not.
	f := buildFig3(t)
	if _, err := f.proc("P1").tb.BumpStubIC(f.refF.Dst); err != nil {
		t.Fatal(err)
	}
	if _, err := f.proc("P2").tb.BumpScionIC("P1", f.objF, 0); err != nil {
		t.Fatal(err)
	}
	// Only P1 re-summarizes ("snapshot information becomes available at Px
	// now stating..."). P2 keeps its stale summary.
	f.summarize("P1", 2)

	// A detection starting at P1 (candidate D) crosses F on its first hop,
	// before any process has put F's scion in the source set: no sender can
	// see the disagreement, so it is the receiver's arrival guard that
	// compares the CDM's stub-side counter (x+1) with P2's scion-side
	// snapshot counter (x). (The same race met by a detection already in
	// flight from F is caught a hop earlier, at P1: eager_test.go.)
	if out := f.start(f.refD); out.Kind != core.OutcomeForwarded {
		t.Fatalf("start = %+v", out)
	}
	f.pump()
	if len(f.found) != 0 || len(f.deleted) != 0 {
		t.Fatal("race produced a false cycle detection")
	}
	if got := f.proc("P1").outcomes[core.OutcomeAborted]; got != 0 {
		t.Fatalf("P1 aborted = %d, want 0 (nothing to compare yet)", got)
	}
	if got := f.proc("P2").outcomes[core.OutcomeAborted]; got != 1 {
		t.Fatalf("P2 aborted = %d, want 1", got)
	}
}

func TestRaceMatchAborts(t *testing.T) {
	// Variant: BOTH ends re-summarize after the invocation, but the
	// detection started from the pre-invocation summary. The source entry
	// for F carries the old counter; matching sees x vs x+1 at P1, the
	// first process whose derivation holds both.
	f := buildFig3(t)
	out := f.start(f.refF)
	if out.Kind != core.OutcomeForwarded {
		t.Fatalf("start = %+v", out)
	}
	if _, err := f.proc("P1").tb.BumpStubIC(f.refF.Dst); err != nil {
		t.Fatal(err)
	}
	if _, err := f.proc("P2").tb.BumpScionIC("P1", f.objF, 0); err != nil {
		t.Fatal(err)
	}
	f.summarize("P1", 2)
	f.summarize("P2", 2)

	f.pump()
	if len(f.found) != 0 || len(f.deleted) != 0 {
		t.Fatal("race produced a false cycle detection")
	}
	if got := f.proc("P1").outcomes[core.OutcomeAborted]; got != 1 {
		t.Fatalf("P1 aborted = %d, want 1", got)
	}
	if got := f.proc("P2").outcomes[core.OutcomeAborted]; got != 0 {
		t.Fatalf("P2 aborted = %d, want 0 (CDM never sent)", got)
	}
}

func TestQuiescentReSummarizationDoesNotAbort(t *testing.T) {
	// §3.2: "detections already in course for real cycles are never aborted
	// due to updates in summarized graph information" — re-summarizing
	// without mutator activity must not disturb a detection in flight.
	f := buildFig3(t)
	f.start(f.refF)
	f.summarizeAll(2) // fresh summaries, same counters
	f.pump()
	if len(f.found) != 1 {
		t.Fatalf("cycles found = %d, want 1 despite re-summarization", len(f.found))
	}
}

// ---- Figure 1: extra dependency ----------------------------------------

func TestFig1ExtraDependencyPreventsDetection(t *testing.T) {
	// A fifth process holds a (live) reference to F: the cycle has an extra
	// dependency that is never resolved, so no cycle may be declared.
	f := buildFig3(t)
	p5 := &simProc{h: heap.New("P5"), tb: refs.NewTable("P5")}
	p5.det = core.NewDetector("P5", simActions{s: f.sim, self: "P5"})
	f.procs["P5"] = p5
	w := p5.h.Alloc(nil)
	mustNoErr(t,
		p5.h.AddRemoteRef(w.ID, ids.GlobalRef{Node: "P2", Obj: f.objF}),
		p5.h.AddRoot(w.ID),
	)
	p5.tb.EnsureStub(ids.GlobalRef{Node: "P2", Obj: f.objF})
	f.proc("P2").tb.EnsureScion("P5", f.objF, 0)
	f.summarizeAll(2)

	f.start(f.refF)
	f.pump()
	if len(f.found) != 0 || len(f.deleted) != 0 {
		t.Fatal("cycle with live external dependency was collected")
	}

	// The dependency dies: P5 drops its reference (simulating W's death and
	// the acyclic DGC deleting the scion), and after re-summarization the
	// cycle is detected.
	f.proc("P2").tb.DeleteScion("P5", f.objF)
	f.summarizeAll(3)
	f.start(f.refF)
	f.pump()
	if len(f.found) != 1 {
		t.Fatalf("cycles found after dependency removal = %d, want 1", len(f.found))
	}
}

// ---- Figure 4: mutually-linked cycles ----------------------------------

type fig4 struct {
	*sim
	refF, refV, refK, refT, refD, refZB, refY ids.RefID
}

// buildFig4 reproduces the six-process, two-cycle topology of Figure 4:
//
//	left cycle:  F@P2 -> V@P5 -> T@P4 -> D@P1 -> F@P2
//	right cycle: F@P2 -> K@P3 -> ZB@P6 -> (ZD) -> Y@P5 -> T@P4 -> ...
//
// Y@P5 converges on the same T stub as V, so ScionsTo(T) = {V, Y}: the
// extra-dependency mechanism of §3.1.
func buildFig4(t *testing.T) *fig4 {
	s := newSim(t, "P1", "P2", "P3", "P4", "P5", "P6")
	f := &fig4{sim: s}

	p1, p2, p3 := s.proc("P1"), s.proc("P2"), s.proc("P3")
	p4, p5, p6 := s.proc("P4"), s.proc("P5"), s.proc("P6")

	F := p2.h.Alloc(nil)  // F(1)@P2
	V := p5.h.Alloc(nil)  // V(1)@P5
	Y := p5.h.Alloc(nil)  // Y(2)@P5
	T := p4.h.Alloc(nil)  // T(1)@P4
	D := p1.h.Alloc(nil)  // D(1)@P1
	K := p3.h.Alloc(nil)  // K(1)@P3
	ZB := p6.h.Alloc(nil) // ZB(1)@P6
	ZD := p6.h.Alloc(nil) // ZD(2)@P6
	mustNoErr(t, p6.h.AddLocalRef(ZB.ID, ZD.ID))

	link := func(srcProc *simProc, holder ids.ObjID, dstProc *simProc, target ids.ObjID) ids.RefID {
		g := ids.GlobalRef{Node: dstProc.h.Node(), Obj: target}
		mustNoErr(t, srcProc.h.AddRemoteRef(holder, g))
		srcProc.tb.EnsureStub(g)
		dstProc.tb.EnsureScion(srcProc.h.Node(), target, 0)
		return ids.RefID{Src: srcProc.h.Node(), Dst: g}
	}
	f.refV = link(p2, F.ID, p5, V.ID)
	f.refK = link(p2, F.ID, p3, K.ID)
	f.refT = link(p5, V.ID, p4, T.ID)
	// Y shares the T stub: AddRemoteRef again but the stub already exists.
	mustNoErr(t, p5.h.AddRemoteRef(Y.ID, ids.GlobalRef{Node: "P4", Obj: T.ID}))
	f.refD = link(p4, T.ID, p1, D.ID)
	f.refF = link(p1, D.ID, p2, F.ID)
	f.refZB = link(p3, K.ID, p6, ZB.ID)
	f.refY = link(p6, ZD.ID, p5, Y.ID)

	s.summarizeAll(1)
	return f
}

func TestFig4MutualCyclesDetected(t *testing.T) {
	f := buildFig4(t)
	out := f.start(f.refF)
	// StubsFrom(F) = {K@P3, V@P5}: two derivations (§3.1 steps 2-3).
	if out.Kind != core.OutcomeForwarded || out.Forwarded != 2 {
		t.Fatalf("start = %+v, want 2 derivations", out)
	}
	f.pump()
	if len(f.found) == 0 {
		t.Fatal("mutually-linked cycles not detected")
	}
	// The first completed detection must cover all seven references.
	garbage := f.found[0].GarbageScions
	if len(garbage) != 7 {
		t.Fatalf("garbage scions = %d (%v), want 7", len(garbage), garbage)
	}
	want := map[ids.RefID]bool{
		f.refF: true, f.refV: true, f.refK: true, f.refT: true,
		f.refD: true, f.refZB: true, f.refY: true,
	}
	for _, g := range garbage {
		if !want[g] {
			t.Errorf("unexpected garbage scion %v", g)
		}
	}
	// The finder deletes its own scions from the source set. (With the
	// merged derivation the finder is the origin P2, which holds the F
	// scion; in the paper's per-path derivation it happens to be P5 —
	// either is correct, any node where matching empties may conclude.)
	if len(f.deleted) == 0 {
		t.Fatal("finder deleted no scions")
	}
	for _, d := range f.deleted {
		if !want[d] {
			t.Errorf("deleted scion %v not part of the cycles", d)
		}
	}
}

func TestFig4SummaryShowsConvergingDependency(t *testing.T) {
	f := buildFig4(t)
	st, ok := f.proc("P5").sum.Stub(ids.GlobalRef{Node: "P4", Obj: 1})
	if !ok {
		t.Fatal("T stub summary missing at P5")
	}
	if len(st.ScionsTo) != 2 {
		t.Fatalf("ScionsTo(T) = %v, want {V scion, Y scion}", st.ScionsTo)
	}
}

func TestFig4BranchTerminationNoNewInformation(t *testing.T) {
	// §3.1 step 15: when the CDM returns to P2, the derivation through the
	// V stub equals the delivered algebra and must not be forwarded; the
	// pump must terminate (this test would loop forever otherwise).
	f := buildFig4(t)
	f.start(f.refF)
	processed := f.pump()
	if processed == 0 || processed > 50 {
		t.Fatalf("processed = %d, want a small finite number", processed)
	}
}

func TestFig4LiveViaRightCycleRoot(t *testing.T) {
	// Root ZD at P6: the right cycle is live, and because the left cycle is
	// reachable from it through Y -> T, nothing may be collected.
	f := buildFig4(t)
	mustNoErr(t, f.proc("P6").h.AddRoot(2 /* ZD */))
	f.summarizeAll(2)
	f.start(f.refF)
	f.pump()
	if len(f.found) != 0 || len(f.deleted) != 0 {
		t.Fatalf("live mutual cycles collected: found=%v deleted=%v", f.found, f.deleted)
	}
}

// ---- misc detector behaviour -------------------------------------------

func TestDetectionIDsIncrease(t *testing.T) {
	f := buildFig3(t)
	p2 := f.proc("P2")
	id1, _ := p2.det.StartDetection(p2.sum, f.refF)
	id2, _ := p2.det.StartDetection(p2.sum, f.refF)
	if id1.Origin != "P2" || id2.Seq != id1.Seq+1 {
		t.Fatalf("ids = %+v, %+v", id1, id2)
	}
}

func TestOutcomeKindStrings(t *testing.T) {
	kinds := map[core.OutcomeKind]string{
		core.OutcomeDropped:     "dropped",
		core.OutcomeAborted:     "aborted",
		core.OutcomeCycleFound:  "cycle-found",
		core.OutcomeForwarded:   "forwarded",
		core.OutcomeBranchEnded: "branch-ended",
		core.OutcomeKind(99):    "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", k, k.String(), want)
		}
	}
}
