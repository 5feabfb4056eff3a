package admin

import (
	"testing"
	"time"

	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/node"
)

// Membership chaos: repeated partitions, all shorter than the
// suspect+dead+lease reclamation horizon, injected through the operator
// FaultEndpoint while a live rooted reference mesh is up. The property under
// test is the lease-safety half of DESIGN.md §14: transient silence — even
// adversarially timed, even bidirectional — must never reclaim a scion whose
// holder is still alive. Run under -race this also shakes out the
// supervisor/runtime/gossip locking.

func startMemberTrio(t *testing.T) []*Supervisor {
	t.Helper()
	names := []ids.NodeID{"A", "B", "C"}
	mc := &membership.Config{
		GossipEvery:  2,
		SuspectAfter: 8,
		DeadAfter:    8,
		LeaseTicks:   400, // reclamation horizon far beyond any injected partition
	}
	sups := make([]*Supervisor, 0, len(names))
	for _, n := range names {
		cfg := node.Config{
			CallTimeoutTicks: 400, CandidateMinAge: 2,
			LGCEvery: 2, SnapshotEvery: 4, DetectEvery: 4,
		}
		cfg.Membership = mc
		sup, err := StartNode(NodeSpec{
			ID:      n,
			Config:  cfg,
			Runtime: node.RuntimeConfig{Tick: 5 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sup.Stop() })
		sups = append(sups, sup)
	}
	for _, a := range sups {
		for _, b := range sups {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
	return sups
}

// linkRooted makes from's rooted anchor hold a reference to to's rooted
// anchor: a live remote reference whose scion must survive any chaos.
func linkRooted(t *testing.T, from, to *Supervisor) {
	t.Helper()
	var holder, target ids.ObjID
	if err := from.Runtime().With(func(m node.Mutator) {
		holder = m.Alloc(nil)
		if err := m.Root(holder); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := to.Runtime().With(func(m node.Mutator) {
		target = m.Alloc(nil)
		if err := m.Root(target); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	ref := ids.GlobalRef{Node: to.ID(), Obj: target}
	if err := from.Runtime().AcquireRemote(ref, func(m node.Mutator, ok bool) {
		if !ok {
			done <- node.ErrRuntimeClosed
			return
		}
		done <- m.Store(holder, ref)
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("linking %s -> %s timed out", from.ID(), to.ID())
	}
}

func chaosWait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMembershipChaosShortPartitionsNeverReclaim(t *testing.T) {
	sups := startMemberTrio(t)
	a, b, c := sups[0], sups[1], sups[2]

	// Ring of live references: every node both holds and hosts one.
	linkRooted(t, a, b)
	linkRooted(t, b, c)
	linkRooted(t, c, a)
	scions := func(s *Supervisor) int {
		rt := s.Runtime()
		if rt == nil {
			return -1
		}
		return rt.NumScions()
	}
	for _, s := range sups {
		if got := scions(s); got != 1 {
			t.Fatalf("%s scions = %d before chaos, want 1", s.ID(), got)
		}
	}
	allAlive := func() bool {
		for _, s := range sups {
			rt := s.Runtime()
			if rt == nil {
				return false
			}
			ms := rt.Members()
			if len(ms) != 3 {
				return false
			}
			for _, m := range ms {
				if m.State != membership.Alive {
					return false
				}
			}
		}
		return true
	}
	chaosWait(t, "initial all-alive convergence", allAlive)

	// Chaos: each round isolates one node for 150ms — long enough for
	// suspicion (8 ticks * 5ms = 40ms) but a tiny fraction of the 2s lease
	// horizon — then heals and lets gossip recover before the next round.
	for round := 0; round < 6; round++ {
		victim := sups[round%3]
		victim.Faults().SetPartition(nil, true, 150*time.Millisecond)
		time.Sleep(200 * time.Millisecond)
		for _, s := range sups {
			if got := scions(s); got != 1 {
				t.Fatalf("round %d: %s scions = %d — live reference reclaimed during a short partition", round, s.ID(), got)
			}
		}
	}
	for _, s := range sups {
		s.Faults().Heal()
	}

	// Every view converges back to all-alive and every live reference is
	// intact: zero false reclamations.
	chaosWait(t, "post-chaos all-alive convergence", allAlive)
	for _, s := range sups {
		if got := scions(s); got != 1 {
			t.Fatalf("%s scions = %d after chaos, want 1", s.ID(), got)
		}
		if got := s.Runtime().NumObjects(); got != 2 {
			t.Fatalf("%s objects = %d after chaos, want 2", s.ID(), got)
		}
	}
}
