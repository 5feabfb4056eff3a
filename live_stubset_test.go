package dgc_test

import (
	"strings"
	"testing"
	"time"

	"dgc"
)

// TestLiveStubSetCollectionOrder is the live side of PROPERTIES.md A5: two
// started nodes on loopback TCP, journals on, acyclic garbage born in both
// directions at once — B drops a direct reference to an object at A, and A
// drops the head of a chain A -> y@B -> z@A, so B's collection on delivery
// restates a changed set back to A. On either node, a scion deleted by a stub
// set must be collected off-schedule before the schedule next collects —
// unless that interval's off-schedule collections were already spent
// (overflow). Order is asserted, never wall-clock latency.
func TestLiveStubSetCollectionOrder(t *testing.T) {
	names := []dgc.NodeID{"A", "B"}
	eps := make(map[dgc.NodeID]*dgc.TCPEndpoint, 2)
	for _, n := range names {
		ep, err := dgc.ListenTCP(n, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		eps[n] = ep
	}
	eps["A"].AddPeer("B", eps["B"].Addr())
	eps["B"].AddPeer("A", eps["A"].Addr())

	journals := make(map[dgc.NodeID]*dgc.TraceLog, 2)
	nodes := make(map[dgc.NodeID]*dgc.LiveRuntime, 2)
	for _, n := range names {
		journals[n] = dgc.NewTraceLog(1 << 14)
		nodes[n] = dgc.NewLiveRuntime(n, eps[n],
			dgc.Config{CallTimeoutTicks: 4000, LGCEvery: 2, Trace: journals[n]},
			dgc.RuntimeConfig{Tick: 5 * time.Millisecond})
	}
	t.Cleanup(func() {
		for _, n := range names {
			nodes[n].Close()
			eps[n].Close()
		}
	})
	a, b := nodes["A"], nodes["B"]

	rooted := func(rt *dgc.LiveRuntime) (ref dgc.GlobalRef) {
		t.Helper()
		if err := rt.With(func(m dgc.Mutator) {
			obj := m.Alloc(nil)
			if err := m.Root(obj); err != nil {
				t.Error(err)
			}
			ref = m.GlobalRef(obj)
		}); err != nil {
			t.Fatal(err)
		}
		return ref
	}
	// hold makes from (an object at rt) reference the remote target, through
	// the CreateScion protocol over the wire.
	hold := func(rt *dgc.LiveRuntime, from dgc.ObjID, target dgc.GlobalRef) {
		t.Helper()
		done := make(chan bool, 1)
		if err := rt.AcquireRemote(target, func(m dgc.Mutator, ok bool) {
			done <- ok && m.Store(from, target) == nil
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case ok := <-done:
			if !ok {
				t.Fatalf("acquiring %v failed", target)
			}
		case <-time.After(e2eDeadline):
			t.Fatalf("acquiring %v timed out", target)
		}
	}
	mutate := func(rt *dgc.LiveRuntime, fn func(m dgc.Mutator) error) {
		t.Helper()
		var ferr error
		if err := rt.With(func(m dgc.Mutator) { ferr = fn(m) }); err != nil || ferr != nil {
			t.Fatal(err, ferr)
		}
	}
	gone := func(rt *dgc.LiveRuntime, ref dgc.GlobalRef) bool {
		var there bool
		if err := rt.With(func(m dgc.Mutator) { there = m.Exists(ref.Obj) }); err != nil {
			t.Fatal(err)
		}
		return !there
	}

	holdA, holdB := rooted(a), rooted(b)
	const rounds = 25
	for round := 0; round < rounds; round++ {
		// Everything is rooted while it is linked: the collectors are running.
		x, y, z := rooted(a), rooted(b), rooted(a)
		hold(b, holdB.Obj, x)
		hold(b, y.Obj, z)
		hold(a, holdA.Obj, y)
		mutate(a, func(m dgc.Mutator) error { m.Unroot(x.Obj); m.Unroot(z.Obj); return nil })
		mutate(b, func(m dgc.Mutator) error { m.Unroot(y.Obj); return nil })
		// The garbage is born: x by B's drop, y and z by A's.
		mutate(b, func(m dgc.Mutator) error { return m.Drop(holdB.Obj, x) })
		mutate(a, func(m dgc.Mutator) error { return m.Drop(holdA.Obj, y) })
		e2eWait(t, "x, y and z to be reclaimed", func() bool {
			return gone(a, x) && gone(b, y) && gone(a, z)
		})
	}
	for _, n := range names {
		nodes[n].Close()
	}

	for _, n := range names {
		events := journals[n].Snapshot()
		if journals[n].Dropped() != 0 {
			t.Fatalf("%s: journal overflowed", n)
		}
		// waiting: a stub set deleted a scion and no collection has run since.
		// spent: an off-schedule collection has run since the last scheduled one.
		waiting, spent, offSchedule := false, false, 0
		for i, e := range events {
			switch {
			case e.Kind.String() == "scion-deleted" && strings.HasSuffix(e.Detail, "reason=stub-set"):
				waiting = true
			case e.Kind.String() != "lgc":
			case strings.HasSuffix(e.Detail, " trigger=stub-set"):
				waiting, spent = false, true
				offSchedule++
			default:
				if waiting && !spent {
					t.Fatalf("%s: event %d: a stub set's scion deletion waited for the schedule:\n%s", n, i, e)
				}
				waiting, spent = false, false
			}
		}
		if offSchedule < rounds {
			t.Errorf("%s: %d off-schedule collections in %d rounds; the order check is vacuous", n, offSchedule, rounds)
		}
	}
}
