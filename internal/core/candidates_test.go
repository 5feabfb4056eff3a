package core

import (
	"testing"

	"dgc/internal/ids"
)

func TestSelectorNominatesQuiescentUnreachableScions(t *testing.T) {
	f := buildFig3(t)
	sel := NewSelector(5)
	p2sum := f.proc("P2").sum

	// Never touched: eligible from time MinAge onwards (created at 0).
	if got := sel.Candidates(p2sum, 4); len(got) != 0 {
		t.Fatalf("too-young candidates = %v", got)
	}
	got := sel.Candidates(p2sum, 5)
	if len(got) != 1 || got[0] != f.refF {
		t.Fatalf("candidates = %v, want [%v]", got, f.refF)
	}
}

func TestSelectorTouchPostponesCandidacy(t *testing.T) {
	f := buildFig3(t)
	sel := NewSelector(5)
	sel.Touch(f.refF, 10)
	p2sum := f.proc("P2").sum
	if got := sel.Candidates(p2sum, 14); len(got) != 0 {
		t.Fatalf("touched scion nominated too early: %v", got)
	}
	if got := sel.Candidates(p2sum, 15); len(got) != 1 {
		t.Fatalf("candidates = %v", got)
	}
}

func TestSelectorSkipsLocallyReachable(t *testing.T) {
	f := buildFig3(t)
	if err := f.proc("P2").h.AddRoot(f.objF); err != nil {
		t.Fatal(err)
	}
	f.summarizeAll(2)
	sel := NewSelector(0)
	if got := sel.Candidates(f.proc("P2").sum, 100); len(got) != 0 {
		t.Fatalf("locally reachable scion nominated: %v", got)
	}
}

func TestSelectorSkipsScionsWithoutOutgoingPath(t *testing.T) {
	// A scion whose object reaches no stub cannot head a distributed cycle.
	f := buildFig3(t)
	p2 := f.proc("P2")
	leaf := p2.h.Alloc(nil)
	p2.tb.EnsureScion("P9", leaf.ID)
	f.summarizeAll(2)
	sel := NewSelector(0)
	got := sel.Candidates(p2.sum, 100)
	if len(got) != 1 || got[0] != f.refF {
		t.Fatalf("candidates = %v, want only %v", got, f.refF)
	}
}

func TestSelectorForget(t *testing.T) {
	sel := NewSelector(5)
	r := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: 1}}
	sel.Touch(r, 100)
	sel.Forget(r)
	if sel.lastActivity[r] != 0 {
		t.Fatal("Forget did not clear activity")
	}
}

func TestSelectorDeterministicOrder(t *testing.T) {
	f := buildFig4(t)
	sel := NewSelector(0)
	p5sum := f.proc("P5").sum
	a := sel.Candidates(p5sum, 1)
	b := sel.Candidates(p5sum, 1)
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("nondeterministic candidates: %v vs %v", a, b)
	}
	if !a[0].Less(a[1]) {
		t.Fatalf("candidates not sorted: %v", a)
	}
}
