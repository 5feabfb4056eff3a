package cluster

import (
	"fmt"
	"testing"

	"dgc/internal/ids"

	"dgc/internal/node"
	"dgc/internal/transport"
	"dgc/internal/wire"
	"dgc/internal/workload"
)

// gcTraffic are the message kinds whose loss the PAPER claims to tolerate
// ("our algorithm ... tolerates message loss"): the collector's own
// protocol. Invocation traffic is the application's problem.
var gcTraffic = wire.CollectorKinds()

func TestLossToleranceRingStillCollected(t *testing.T) {
	// 30% of GC messages are lost; detection is retried every round, so the
	// ring must still be reclaimed, just later.
	c := New(12345, node.Config{})
	if _, err := c.Materialize(workload.Ring(3, 1), node.Config{}); err != nil {
		t.Fatal(err)
	}
	c.Net.SetFaults(transport.Faults{LossRate: 0.3, Affects: gcTraffic})
	for round := 0; round < 80; round++ {
		c.GCRound()
		if c.TotalObjects() == 0 {
			return
		}
	}
	t.Fatalf("ring not reclaimed under 30%% GC-message loss: %d objects left", c.TotalObjects())
}

func TestDuplicationAndReorderSafety(t *testing.T) {
	// Duplicated and reordered GC traffic must never reclaim live objects.
	c := New(777, node.Config{})
	if _, err := c.Materialize(workload.LiveRing(4, 2), node.Config{}); err != nil {
		t.Fatal(err)
	}
	c.Net.SetFaults(transport.Faults{DupRate: 0.5, ReorderRate: 0.5, Affects: gcTraffic})
	live := c.GlobalLive()
	for round := 0; round < 12; round++ {
		c.GCRound()
	}
	if v := c.LiveViolations(live); len(v) != 0 {
		t.Fatalf("live objects reclaimed under dup/reorder: %v", v)
	}
}

// TestRandomGraphSafetyAndCompleteness is the central property test: on
// seeded random distributed graphs,
//
//	safety        — no globally reachable object is ever reclaimed;
//	completeness  — every unreachable object (acyclic, cyclic or hybrid
//	                garbage) is eventually reclaimed.
func TestRandomGraphSafetyAndCompleteness(t *testing.T) {
	cfgs := []workload.RandomConfig{
		{Procs: 3, ObjsPerProc: 8, OutDegree: 1.5, RemoteFrac: 0.4, RootFrac: 0.15},
		{Procs: 5, ObjsPerProc: 6, OutDegree: 2.0, RemoteFrac: 0.5, RootFrac: 0.1},
		{Procs: 4, ObjsPerProc: 10, OutDegree: 1.2, RemoteFrac: 0.3, RootFrac: 0.05},
		{Procs: 6, ObjsPerProc: 5, OutDegree: 2.5, RemoteFrac: 0.6, RootFrac: 0.2},
	}
	for seed := int64(1); seed <= 10; seed++ {
		for ci, wcfg := range cfgs {
			seed, wcfg, ci := seed, wcfg, ci
			t.Run(fmt.Sprintf("cfg%d/seed%d", ci, seed), func(t *testing.T) {
				t.Parallel()
				c := New(seed, node.Config{})
				topo := workload.RandomGraph(seed, wcfg)
				if _, err := c.Materialize(topo, node.Config{}); err != nil {
					t.Fatal(err)
				}
				live := c.GlobalLive()
				total := c.TotalObjects()
				if len(live) > total {
					t.Fatalf("ground truth inconsistent: %d live of %d", len(live), total)
				}
				rounds := c.CollectFully(40)
				if v := c.LiveViolations(live); len(v) != 0 {
					t.Fatalf("SAFETY violation after %d rounds: reclaimed live %v", rounds, v)
				}
				if got := c.TotalObjects(); got != len(live) {
					t.Fatalf("COMPLETENESS violation after %d rounds: %d objects remain, want %d",
						rounds, got, len(live))
				}
			})
		}
	}
}

// TestRandomGraphSafetyUnderGCMessageLoss repeats the safety check with GC
// traffic loss: completeness within a bounded horizon is no longer
// guaranteed, but safety is absolute.
func TestRandomGraphSafetyUnderGCMessageLoss(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			c := New(seed, node.Config{})
			topo := workload.RandomGraph(seed, workload.RandomConfig{
				Procs: 4, ObjsPerProc: 8, OutDegree: 2.0, RemoteFrac: 0.5, RootFrac: 0.1,
			})
			if _, err := c.Materialize(topo, node.Config{}); err != nil {
				t.Fatal(err)
			}
			c.Net.SetFaults(transport.Faults{LossRate: 0.25, DupRate: 0.2, ReorderRate: 0.3, Affects: gcTraffic})
			live := c.GlobalLive()
			for round := 0; round < 25; round++ {
				c.GCRound()
			}
			if v := c.LiveViolations(live); len(v) != 0 {
				t.Fatalf("SAFETY violation under faults: %v", v)
			}
		})
	}
}

// TestMutationChurnSafety runs continuous mutator activity (allocations,
// link churn, remote invocations through the RPC path) interleaved with GC
// rounds, then verifies ground truth is preserved.
func TestMutationChurnSafety(t *testing.T) {
	c := New(9, node.Config{CallTimeoutTicks: 50})
	refs, err := c.Materialize(workload.LiveRing(3, 2), node.Config{CallTimeoutTicks: 50})
	if err != nil {
		t.Fatal(err)
	}
	head := refs[workload.RingHead()]

	// A rooted driver object on each node, all holding the ring head.
	for _, n := range c.Nodes() {
		var driver ids.ObjID
		n.With(func(m node.Mutator) {
			driver = m.Alloc(nil)
			if err := m.Root(driver); err != nil {
				t.Error(err)
			}
		})
		if err := c.Connect(n.ID(), driver, head.Node, head.Obj); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle()

	// Churn: every node keeps invoking alloc-child/get/noop on the head and
	// dropping what it learns, while GC rounds run.
	for round := 0; round < 15; round++ {
		for _, n := range c.Nodes() {
			n := n
			if n.ID() == head.Node {
				continue
			}
			if err := n.Invoke(head, "alloc-child", nil, func(m node.Mutator, r node.Reply) {
				// Unlink the child again right away: it becomes garbage at
				// the owner and must be collected, not leak.
				if r.OK && len(r.Returns) == 1 {
					if err := m.Invoke(head, "drop", r.Returns, nil); err != nil {
						t.Error(err)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			if err := n.Invoke(head, "noop", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		c.Settle()
		c.GCRound()
	}
	// Quiesce fully, then check ground truth equivalence.
	c.Settle()
	live := c.GlobalLive()
	c.CollectFully(25)
	if v := c.LiveViolations(live); len(v) != 0 {
		t.Fatalf("safety violation under churn: %v", v)
	}
	if got := c.TotalObjects(); got != len(live) {
		t.Fatalf("completeness under churn: %d objects, want %d", got, len(live))
	}
}
