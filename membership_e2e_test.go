package dgc_test

import (
	"testing"
	"time"

	"dgc"
)

// Live membership end-to-end tests over real TCP sockets: the gossip
// directory, phi-accrual failure detector and holder leases running under
// the wall-clock daemons with no manual driving. Two lifecycles are
// exercised — a crash (kill-reclaim: the dead node's scions are reclaimed
// after its lease lapses, and nobody else's are) and a graceful departure
// (drain-migrate: leases hand off custodially and release when the drained
// node retires) — and in both the surviving nodes must still collect a
// distributed garbage cycle afterwards.

// memberTrio starts A, B, C with membership enabled, full mesh, short
// wall-clock intervals. Returns runtimes and endpoints keyed by node.
func memberTrio(t *testing.T) (map[dgc.NodeID]*dgc.LiveRuntime, map[dgc.NodeID]*dgc.TCPEndpoint) {
	t.Helper()
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
		CallTimeoutTicks: 400,
		CandidateMinAge:  2,
		LGCEvery:         2,
		SnapshotEvery:    4,
		DetectEvery:      4,
		Membership: &dgc.MembershipConfig{
			GossipEvery:  2,
			SuspectAfter: 10,
			DeadAfter:    10,
			LeaseTicks:   30,
			DrainLinger:  4,
		},
	}
	rcfg := dgc.RuntimeConfig{Tick: 10 * time.Millisecond}
	nodes := make(map[dgc.NodeID]*dgc.LiveRuntime, 3)
	for _, n := range names {
		nodes[n] = dgc.NewLiveRuntime(n, eps[n], cfg, rcfg)
	}
	t.Cleanup(func() {
		for _, n := range names {
			nodes[n].Close()
			eps[n].Close()
		}
	})
	for _, n := range names {
		nodes[n].SetAdvertiseAddr(eps[n].Addr())
		for _, p := range names {
			if n != p {
				if err := nodes[n].AddMember(p, eps[p].Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return nodes, eps
}

// memberAlloc allocates one object on a node, optionally rooted.
func memberAlloc(t *testing.T, rt *dgc.LiveRuntime, rooted bool, payload string) dgc.ObjID {
	t.Helper()
	var obj dgc.ObjID
	if err := rt.With(func(m dgc.Mutator) {
		obj = m.Alloc([]byte(payload))
		if rooted {
			if err := m.Root(obj); err != nil {
				t.Error(err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return obj
}

// memberLink makes holder (an object on from) reference target over the wire.
func memberLink(t *testing.T, from *dgc.LiveRuntime, holder dgc.ObjID, target dgc.GlobalRef) {
	t.Helper()
	done := make(chan bool, 1)
	if err := from.AcquireRemote(target, func(m dgc.Mutator, ok bool) {
		if ok {
			ok = m.Store(holder, target) == nil
		}
		done <- ok
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatalf("linking to %s failed", target)
		}
	case <-time.After(e2eDeadline):
		t.Fatalf("linking to %s timed out", target)
	}
}

// memberView reports how rt's directory currently classifies peer.
func memberView(rt *dgc.LiveRuntime, peer dgc.NodeID) (dgc.MemberState, bool) {
	for _, m := range rt.Members() {
		if m.Node == peer {
			return m.State, true
		}
	}
	return 0, false
}

// memberTopology builds the shared fixture: a rooted A<->B cycle (anchorA
// holds anchorB and vice versa, anchorA rooted) plus an extra object X on A
// referenced only by C's rooted anchor. Returns anchorA, anchorB, x.
func memberTopology(t *testing.T, nodes map[dgc.NodeID]*dgc.LiveRuntime) (dgc.ObjID, dgc.ObjID, dgc.ObjID) {
	t.Helper()
	// Everything starts rooted so the periodic local collectors already
	// running underneath can't sweep a link target before its CreateScion
	// lands; the roots that shouldn't persist are dropped after linking.
	anchorA := memberAlloc(t, nodes["A"], true, "anchor-A")
	anchorB := memberAlloc(t, nodes["B"], true, "anchor-B")
	x := memberAlloc(t, nodes["A"], true, "x")
	anchorC := memberAlloc(t, nodes["C"], true, "anchor-C")
	memberLink(t, nodes["A"], anchorA, dgc.GlobalRef{Node: "B", Obj: anchorB})
	memberLink(t, nodes["B"], anchorB, dgc.GlobalRef{Node: "A", Obj: anchorA})
	memberLink(t, nodes["C"], anchorC, dgc.GlobalRef{Node: "A", Obj: x})
	if err := nodes["B"].With(func(m dgc.Mutator) { m.Unroot(anchorB) }); err != nil {
		t.Fatal(err)
	}
	if err := nodes["A"].With(func(m dgc.Mutator) { m.Unroot(x) }); err != nil {
		t.Fatal(err)
	}
	// Two scions at A (B -> anchorA, C -> x), one at B (A -> anchorB).
	e2eWait(t, "initial scion layout", func() bool {
		return nodes["A"].NumScions() == 2 && nodes["B"].NumScions() == 1
	})
	return anchorA, anchorB, x
}

func TestLiveMembershipKillReclaimsOnlyDeadHoldersScions(t *testing.T) {
	nodes, eps := memberTrio(t)
	anchorA, _, _ := memberTopology(t, nodes)

	e2eWait(t, "all-alive directory convergence", func() bool {
		for _, rt := range nodes {
			for _, p := range []dgc.NodeID{"A", "B", "C"} {
				if st, ok := memberView(rt, p); !ok || st != dgc.MemberAlive {
					return false
				}
			}
		}
		return true
	})

	// Quiet period while everyone is alive: leases renew off gossip traffic,
	// so nothing may be reclaimed even with a 300ms lease horizon.
	time.Sleep(600 * time.Millisecond)
	if got := nodes["A"].NumScions(); got != 2 {
		t.Fatalf("A scions = %d while all holders alive, want 2", got)
	}

	// Kill C for good: close its runtime and socket, no restart.
	nodes["C"].Close()
	eps["C"].Close()

	// A declares C dead, C's lease lapses, and exactly the scion C held
	// (for x) is reclaimed; the local collector then sweeps x itself.
	e2eWait(t, "A to declare C dead", func() bool {
		st, ok := memberView(nodes["A"], "C")
		return ok && st == dgc.MemberDead
	})
	e2eWait(t, "dead C's scion reclaimed and x swept", func() bool {
		return nodes["A"].NumScions() == 1 && nodes["A"].NumObjects() == 1
	})
	// Zero false reclamations: the live A<->B edges kept their scions.
	if got := nodes["B"].NumScions(); got != 1 {
		t.Fatalf("B scions = %d after C's death, want 1 (A's live reference reclaimed)", got)
	}

	// The survivors still collect distributed cycles: unroot anchorA and the
	// A<->B cycle is garbage only the detector can reclaim.
	if err := nodes["A"].With(func(m dgc.Mutator) { m.Unroot(anchorA) }); err != nil {
		t.Fatal(err)
	}
	e2eWait(t, "cycle reclamation with a dead member in the directory", func() bool {
		return nodes["A"].NumObjects() == 0 && nodes["B"].NumObjects() == 0
	})
}

func TestLiveMembershipDrainHandsOffAndCycleStillCollects(t *testing.T) {
	nodes, _ := memberTrio(t)
	anchorA, _, _ := memberTopology(t, nodes)

	e2eWait(t, "all-alive directory convergence", func() bool {
		for _, rt := range nodes {
			for _, p := range []dgc.NodeID{"A", "B", "C"} {
				if st, ok := memberView(rt, p); !ok || st != dgc.MemberAlive {
					return false
				}
			}
		}
		return true
	})

	// Graceful departure: C announces the drain, hands its lease on x over to
	// A custodially, lingers, and retires itself. A releases the custodial
	// pin when the directory marks C dead, and x is swept.
	if err := nodes["C"].BeginDrain(); err != nil {
		t.Fatal(err)
	}
	e2eWait(t, "A to see C retire after the drain", func() bool {
		st, ok := memberView(nodes["A"], "C")
		return ok && st == dgc.MemberDead
	})
	e2eWait(t, "drained C's scion released and x swept", func() bool {
		return nodes["A"].NumScions() == 1 && nodes["A"].NumObjects() == 1
	})
	if got := nodes["B"].NumScions(); got != 1 {
		t.Fatalf("B scions = %d after C drained, want 1", got)
	}

	// The remaining pair still collects the distributed cycle.
	if err := nodes["A"].With(func(m dgc.Mutator) { m.Unroot(anchorA) }); err != nil {
		t.Fatal(err)
	}
	e2eWait(t, "cycle reclamation after a drain", func() bool {
		return nodes["A"].NumObjects() == 0 && nodes["B"].NumObjects() == 0
	})
}
