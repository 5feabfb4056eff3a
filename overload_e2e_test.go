package dgc_test

import (
	"testing"
	"time"

	"dgc"
)

// TestLiveOverloadShedsAndStillCollects is the overload run behind
// PROPERTIES.md property O. Three started nodes on loopback TCP with an
// 8-slot mailbox hold a cross-node garbage ring and one live remote
// reference. One node's loop is wedged while a peer floods it, so its
// mailbox deterministically overflows and sheds; nothing upstream blocks or
// parks meanwhile. Once the loop is released the ring must still be
// reclaimed (completeness survives the loss) and the live reference — its
// holder, its stub and its scion — must still be there (safety survives it).
func TestLiveOverloadShedsAndStillCollects(t *testing.T) {
	names := []dgc.NodeID{"A", "B", "C"}
	eps := make(map[dgc.NodeID]*dgc.TCPEndpoint, 3)
	for _, n := range names {
		ep, err := dgc.ListenTCP(n, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		eps[n] = ep
	}
	for _, n := range names {
		for _, p := range names {
			if n != p {
				eps[n].AddPeer(p, eps[p].Addr())
			}
		}
	}
	cfg := dgc.Config{
		CallTimeoutTicks: 400, CandidateMinAge: 2,
		LGCEvery: 2, SnapshotEvery: 4, DetectEvery: 4,
	}
	rcfg := dgc.RuntimeConfig{Tick: 10 * time.Millisecond, Mailbox: 8}
	nodes := make(map[dgc.NodeID]*dgc.LiveRuntime, 3)
	for _, n := range names {
		nodes[n] = dgc.NewLiveRuntime(n, eps[n], cfg, rcfg)
	}
	release := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release) // a failed run must not leave C's loop wedged under Close
		}
		for _, n := range names {
			nodes[n].Close()
			eps[n].Close()
		}
	})
	a, b, c := nodes["A"], nodes["B"], nodes["C"]

	// The ring A -> B -> C -> A, rooted while it is linked (the local
	// collectors are already running), and the control reference: a rooted
	// holder on A whose target on C lives by that one scion alone.
	ringA := memberAlloc(t, a, true, "ring-A")
	ringB := memberAlloc(t, b, true, "ring-B")
	ringC := memberAlloc(t, c, true, "ring-C")
	memberLink(t, a, ringA, dgc.GlobalRef{Node: "B", Obj: ringB})
	memberLink(t, b, ringB, dgc.GlobalRef{Node: "C", Obj: ringC})
	memberLink(t, c, ringC, dgc.GlobalRef{Node: "A", Obj: ringA})
	holder := memberAlloc(t, a, true, "control-holder")
	target := memberAlloc(t, c, true, "control-target")
	control := dgc.GlobalRef{Node: "C", Obj: target}
	memberLink(t, a, holder, control)

	// Make the ring garbage and wedge C in the same stroke: C's loop unroots
	// its ring object and then sits inside With, draining nothing.
	for n, obj := range map[dgc.NodeID]dgc.ObjID{"A": ringA, "B": ringB} {
		if err := nodes[n].With(func(m dgc.Mutator) { m.Unroot(obj) }); err != nil {
			t.Fatal(err)
		}
	}
	wedged := make(chan struct{})
	unwedged := make(chan error, 1)
	go func() {
		unwedged <- c.With(func(m dgc.Mutator) {
			m.Unroot(ringC)
			m.Unroot(target)
			close(wedged)
			<-release
		})
	}()
	<-wedged

	// Flood C from A with invocations of the control reference (B's stub
	// sets and detection messages for the ring pile on by themselves). Every
	// Invoke returns at once: the sender neither blocks nor queues behind the
	// full mailbox, and C's transport keeps reading and shedding.
	deadline := time.Now().Add(e2eDeadline)
	sent := 0
	for c.Metrics().MailboxDropped.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("C shed nothing after %d invocations into a wedged 8-slot mailbox", sent)
		}
		if err := a.Invoke(control, "noop", nil, nil); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	t.Logf("C shed its first message after %d flood invocations", sent)

	close(release)
	if err := <-unwedged; err != nil {
		t.Fatal(err)
	}

	exists := func(rt *dgc.LiveRuntime, obj dgc.ObjID) bool {
		var ok bool
		if err := rt.With(func(m dgc.Mutator) { ok = m.Exists(obj) }); err != nil {
			t.Fatal(err)
		}
		return ok
	}
	e2eWait(t, "the garbage ring to be reclaimed after the overload", func() bool {
		return !exists(a, ringA) && !exists(b, ringB) && !exists(c, ringC)
	})

	// One more local collection everywhere, so a control object the overload
	// had wrongly cut loose would be swept before it is looked for.
	for _, n := range names {
		nodes[n].RunLGC()
	}
	if !exists(a, holder) || !exists(c, target) {
		t.Fatalf("control objects: holder on A %v, target on C %v, want both alive", exists(a, holder), exists(c, target))
	}
	if got := a.NumStubs(); got != 1 {
		t.Errorf("A holds %d stubs, want 1 (the control reference)", got)
	}
	want := dgc.RefID{Src: "A", Dst: control}
	if got := c.ScionRefs(); len(got) != 1 || got[0] != want {
		t.Errorf("C's scions = %v, want [%v]", got, want)
	}
	if b.NumObjects() != 0 || b.NumStubs() != 0 || b.NumScions() != 0 {
		t.Errorf("B still holds %d objects, %d stubs, %d scions", b.NumObjects(), b.NumStubs(), b.NumScions())
	}
}
