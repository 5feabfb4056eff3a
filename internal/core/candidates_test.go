package core_test

import (
	"testing"

	"dgc/internal/core"
)

func TestSelectorNominatesQuiescentUnreachableScions(t *testing.T) {
	f := buildFig3(t)
	p2sum := f.proc("P2").sum

	// Stamped at creation, time zero: eligible from time minAge onwards.
	if got := core.Candidates(p2sum, 4, 5); len(got) != 0 {
		t.Fatalf("too-young candidates = %v", got)
	}
	got := core.Candidates(p2sum, 5, 5)
	if len(got) != 1 || got[0] != f.refF {
		t.Fatalf("candidates = %v, want [%v]", got, f.refF)
	}
}

// TestSelectorTouchPostponesCandidacy: activity on a scion (here a re-grant
// at tick 10) is stamped in its table record, and the next summary carries
// the stamp to candidacy.
func TestSelectorTouchPostponesCandidacy(t *testing.T) {
	f := buildFig3(t)
	if f.proc("P2").tb.EnsureScion("P1", f.objF, 10) {
		t.Fatal("re-grant created a second scion")
	}
	f.summarize("P2", 2)
	p2sum := f.proc("P2").sum
	if sc, _ := p2sum.Scion(f.refF); sc.Active != 10 {
		t.Fatalf("summary stamp = %d, want 10", sc.Active)
	}
	if got := core.Candidates(p2sum, 14, 5); len(got) != 0 {
		t.Fatalf("touched scion nominated too early: %v", got)
	}
	if got := core.Candidates(p2sum, 15, 5); len(got) != 1 {
		t.Fatalf("candidates = %v", got)
	}
}

func TestSelectorSkipsLocallyReachable(t *testing.T) {
	f := buildFig3(t)
	if err := f.proc("P2").h.AddRoot(f.objF); err != nil {
		t.Fatal(err)
	}
	f.summarizeAll(2)
	if got := core.Candidates(f.proc("P2").sum, 100, 0); len(got) != 0 {
		t.Fatalf("locally reachable scion nominated: %v", got)
	}
}

func TestSelectorSkipsScionsWithoutOutgoingPath(t *testing.T) {
	// A scion whose object reaches no stub cannot head a distributed cycle.
	f := buildFig3(t)
	p2 := f.proc("P2")
	leaf := p2.h.Alloc(nil)
	p2.tb.EnsureScion("P9", leaf.ID, 0)
	f.summarizeAll(2)
	got := core.Candidates(p2.sum, 100, 0)
	if len(got) != 1 || got[0] != f.refF {
		t.Fatalf("candidates = %v, want only %v", got, f.refF)
	}
}

func TestSelectorDeterministicOrder(t *testing.T) {
	f := buildFig4(t)
	p5sum := f.proc("P5").sum
	a := core.Candidates(p5sum, 1, 0)
	b := core.Candidates(p5sum, 1, 0)
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("nondeterministic candidates: %v vs %v", a, b)
	}
	if !a[0].Less(a[1]) {
		t.Fatalf("candidates not sorted: %v", a)
	}
}
