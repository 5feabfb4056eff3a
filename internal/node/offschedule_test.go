package node

import (
	"slices"
	"strings"
	"testing"

	"dgc/internal/ids"
	"dgc/internal/refs"
	"dgc/internal/trace"
	"dgc/internal/transport"
	"dgc/internal/wire"
)

// The stub-set trigger (PROPERTIES.md A5): a NewSetStubs that deletes scions
// is followed by a local collection in the same input on a machine that
// schedules its own LGC. Stepped nodes throughout, so every run is a pure
// function of the calls below.

// export makes a rooted object at holder reference a fresh unrooted object at
// owner — alive only through the scion — and returns both.
func export(t *testing.T, tn *testNet, holder, owner ids.NodeID) (from ids.ObjID, target ids.GlobalRef) {
	t.Helper()
	from = allocRooted(t, tn.n(holder))
	target = ids.GlobalRef{Node: owner, Obj: alloc(tn.n(owner))}
	tn.grant(holder, from, owner, target.Obj)
	return from, target
}

func drop(t *testing.T, n *Node, from ids.ObjID, target ids.GlobalRef) {
	t.Helper()
	n.With(func(m Mutator) {
		if err := m.Drop(from, target); err != nil {
			t.Fatal(err)
		}
	})
}

func exists(n *Node, obj ids.ObjID) (ok bool) {
	n.With(func(m Mutator) { ok = m.Exists(obj) })
	return ok
}

// tickTo says Tick until the node's clock reads clock.
func tickTo(n *Node, clock uint64) {
	for n.Clock() < clock {
		n.Tick()
	}
}

// (a) The owner collects on delivery of the stub set, without a tick of its own.
func TestStubSetCollectsWithoutOwnerTick(t *testing.T) {
	journal := trace.New(1 << 8).Only(trace.KindLGC)
	tn := newTestNet(t, Config{LGCEvery: 2, Trace: journal}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder, x := export(t, tn, "B", "A")
	drop(t, b, holder, x)

	tickTo(b, 2) // B's collection tick: the stub dies, the set is restated
	if !exists(a, x.Obj) {
		t.Fatal("object gone before the stub set was delivered")
	}
	tn.settle()
	if a.Clock() != 0 {
		t.Fatalf("A ticked (clock %d); the test must not tick it", a.Clock())
	}
	if exists(a, x.Obj) {
		t.Fatal("object still at A after the scion-deleting stub set was delivered")
	}
	if s := a.Stats(); s.LGCRuns != 1 || s.ScionsDropped != 1 {
		t.Fatalf("A: LGCRuns=%d ScionsDropped=%d, want 1 and 1", s.LGCRuns, s.ScionsDropped)
	}
	// The journal tells the two apart: B's scheduled line is as it always
	// was (the dgc-sim goldens carry it), A's names its trigger.
	events := journal.Snapshot()
	if len(events) != 2 || events[0].Node != "B" || events[1].Node != "A" ||
		strings.Contains(events[0].Detail, "trigger") || !strings.HasSuffix(events[1].Detail, " trigger=stub-set") {
		t.Fatalf("lgc events = %v", events)
	}
}

// (b) An acyclic chain unravels at one message per hop: when the head's
// collection has run and the fabric is quiet, the whole chain is gone.
func TestAcyclicChainUnravelsWithinOnePeriod(t *testing.T) {
	const every = 2
	names := []ids.NodeID{"A", "B", "C", "D"}
	tn := newTestNet(t, Config{LGCEvery: every}, names...)
	// A's rooted head -> b at B -> c at C -> d at D.
	head := allocRooted(t, tn.n("A"))
	from := head
	var chain []ids.GlobalRef
	for i := 1; i < len(names); i++ {
		obj := alloc(tn.n(names[i]))
		tn.grant(names[i-1], from, names[i], obj)
		chain = append(chain, ids.GlobalRef{Node: names[i], Obj: obj})
		from = obj
	}
	drop(t, tn.n("A"), head, chain[0])

	// Every node ticks in step; the head's collection is on tick `every`.
	for tick := 1; tick <= every; tick++ {
		for _, name := range names {
			tn.n(name).Tick()
		}
		tn.settle()
	}
	for _, ref := range chain {
		if exists(tn.n(ref.Node), ref.Obj) {
			t.Errorf("%s still holds %d within the period of the head's collection", ref.Node, ref.Obj)
		}
		// One scheduled collection (tick 2) and the one its stub set caused.
		if runs := tn.n(ref.Node).Stats().LGCRuns; runs != 2 {
			t.Errorf("%s ran %d collections, want 2", ref.Node, runs)
		}
	}
}

// (c) One off-schedule collection per tick interval; a second scion-deleting
// set in the interval makes the next tick a collection tick, whatever the
// schedule says of it.
func TestSecondStubSetInIntervalWaitsForNextTick(t *testing.T) {
	tn := newTestNet(t, Config{LGCEvery: 4}, "A", "B", "C")
	a := tn.n("A")
	hb, xb := export(t, tn, "B", "A")
	hc, xc := export(t, tn, "C", "A")
	drop(t, tn.n("B"), hb, xb)
	drop(t, tn.n("C"), hc, xc)
	tn.n("B").RunLGC()
	tn.n("C").RunLGC()
	tn.settle() // both sets delivered inside A's first tick interval

	if s := a.Stats(); s.LGCRuns != 1 || s.ScionsDropped != 2 {
		t.Fatalf("after delivery: LGCRuns=%d ScionsDropped=%d, want 1 and 2", s.LGCRuns, s.ScionsDropped)
	}
	if exists(a, xb.Obj) == exists(a, xc.Obj) {
		t.Fatal("the one collection at delivery should have swept exactly the first set's object")
	}
	a.Tick() // clock 1 of LGCEvery 4: not a scheduled collection
	if runs := a.Stats().LGCRuns; runs != 2 {
		t.Fatalf("after the next tick: LGCRuns=%d, want 2", runs)
	}
	if exists(a, xb.Obj) || exists(a, xc.Obj) {
		t.Fatal("overflow collection left an object behind")
	}
	tickTo(a, 3)
	if runs := a.Stats().LGCRuns; runs != 2 {
		t.Fatalf("ticks 2-3 collected (LGCRuns=%d): the overflow mark outlived its tick", runs)
	}
}

// (d) A machine that does not schedule its own LGC never collects on
// delivery: the explicit-round harnesses and the dgc-sim goldens see no change.
func TestStubSetNeverCollectsWithoutSchedule(t *testing.T) {
	tn := newTestNet(t, Config{}, "A", "B")
	a, b := tn.n("A"), tn.n("B")
	holder, x := export(t, tn, "B", "A")
	drop(t, b, holder, x)
	b.RunLGC()
	tn.settle()
	if s := a.Stats(); s.ScionsDropped != 1 || s.LGCRuns != 0 {
		t.Fatalf("A: ScionsDropped=%d LGCRuns=%d, want 1 and 0", s.ScionsDropped, s.LGCRuns)
	}
	if !exists(a, x.Obj) {
		t.Fatal("object collected on delivery with LGCEvery 0")
	}
	for i := 0; i < 3; i++ {
		a.Tick()
	}
	if runs := a.Stats().LGCRuns; runs != 0 {
		t.Fatalf("ticks collected with LGCEvery 0 (LGCRuns=%d)", runs)
	}
}

// outSeqs reads the node's outbound reference-listing sequence numbers.
func outSeqs(n *Node) (out []refs.SeqEntry) {
	n.With(func(m Mutator) { out, _ = m.n.acyclic.SeqState() })
	return out
}

// (e) The collection a stub set causes restates only changed sets, and the
// loss of the one it did send is repaired by the next scheduled collection
// (A2/A3 under the new sender). Holds at the parent too, where delivery
// causes no collection at all; (a) is what shows it does here.
func TestOffScheduleRestatesOnlyChangedSets(t *testing.T) {
	tn := newTestNet(t, Config{LGCEvery: 2}, "A", "B", "C")
	a, b, c := tn.n("A"), tn.n("B"), tn.n("C")
	// A holds y1 and y2 at B; y2 holds z at C; B also holds a rooted stub to
	// C, so its set to C changes (z leaves it) without becoming empty.
	h1, y1 := export(t, tn, "A", "B")
	h2, y2 := export(t, tn, "A", "B")
	tn.grant("B", y2.Obj, "C", alloc(c))
	export(t, tn, "B", "C")

	step := func() { // everyone ticks in step, to the next scheduled collection
		next := a.Clock() + 2
		for _, n := range []*Node{a, b, c} {
			tickTo(n, next)
		}
		tn.settle()
	}
	step() // every set stated once: fingerprints exist

	// Unchanged: y1 has no outgoing reference, so sweeping it changes no set.
	drop(t, a, h1, y1)
	tickTo(a, a.Clock()+2)
	sent, seqs := b.Stats().StubSetsSent, outSeqs(b)
	tn.settle()
	if got := b.Stats().StubSetsSent; got != sent {
		t.Fatalf("delivery of a stub set that changes none of B's sets made B send %d", got-sent)
	}
	if got := outSeqs(b); !slices.Equal(got, seqs) {
		t.Fatalf("outSeq moved across a skipped restatement: %v -> %v", seqs, got)
	}
	tickTo(b, a.Clock())
	tickTo(c, a.Clock())
	tn.settle()

	// Changed, and lost: sweeping y2 takes z out of B's set to C. The fabric
	// drops every stub set sent while A's is being delivered — B's restatement
	// to C is the only one.
	drop(t, a, h2, y2)
	tickTo(a, a.Clock()+2)
	sent = b.Stats().StubSetsSent
	tn.net.SetFaults(transport.Faults{LossRate: 1, Affects: []wire.Kind{wire.KindNewSetStubs}})
	tn.settle()
	tn.net.SetFaults(transport.Faults{})
	if got := b.Stats().StubSetsSent; got > sent+1 {
		t.Fatalf("delivery made B send %d stub sets, want at most the one changed set", got-sent)
	}
	if c.NumScions() != 2 {
		t.Fatalf("C has %d scions, want 2: the set that unlists z was dropped", c.NumScions())
	}
	tickTo(b, a.Clock()) // B's next scheduled collection restates every set
	tn.settle()
	if c.NumScions() != 1 {
		t.Fatalf("C has %d scions after B's scheduled restatement, want 1", c.NumScions())
	}
}
