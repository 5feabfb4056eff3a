package cluster

import (
	"testing"

	"dgc/internal/ids"
	"dgc/internal/node"
)

// raceRig builds the Figure 5 situation at full stack level: a three-process
// ring (o0@P1 -> o1@P2 -> o2@P3 -> o0) held live by rooted R@P1 -> o0, plus
// a rooted-but-empty rootB@P2 that the mutator will migrate the root to
// while a detection is in flight.
type raceRig struct {
	c               *Cluster
	r, o0           ids.ObjID // at P1
	rootB, o1       ids.ObjID // at P2
	o2              ids.ObjID // at P3
	o1Ref, rootBRef ids.GlobalRef
}

func buildRaceRig(t *testing.T) *raceRig {
	t.Helper()
	c := New(1, node.Config{}, "P1", "P2", "P3")
	rig := &raceRig{c: c}
	p1, p2, p3 := c.Node("P1"), c.Node("P2"), c.Node("P3")

	p1.With(func(m node.Mutator) {
		rig.r = m.Alloc(nil)
		rig.o0 = m.Alloc(nil)
		if err := m.Root(rig.r); err != nil {
			t.Error(err)
		}
		if err := m.Link(rig.r, rig.o0); err != nil {
			t.Error(err)
		}
	})
	p2.With(func(m node.Mutator) {
		rig.rootB = m.Alloc(nil)
		rig.o1 = m.Alloc(nil)
		if err := m.Root(rig.rootB); err != nil {
			t.Error(err)
		}
	})
	p3.With(func(m node.Mutator) {
		rig.o2 = m.Alloc(nil)
	})

	mustConnect := func(fn ids.NodeID, fo ids.ObjID, tn ids.NodeID, to ids.ObjID) {
		t.Helper()
		if err := c.Connect(fn, fo, tn, to); err != nil {
			t.Fatal(err)
		}
	}
	mustConnect("P1", rig.o0, "P2", rig.o1)
	mustConnect("P2", rig.o1, "P3", rig.o2)
	mustConnect("P3", rig.o2, "P1", rig.o0)
	mustConnect("P1", rig.r, "P2", rig.rootB) // R can reach rootB remotely

	rig.o1Ref = ids.GlobalRef{Node: "P2", Obj: rig.o1}
	rig.rootBRef = ids.GlobalRef{Node: "P2", Obj: rig.rootB}
	return rig
}

// migrateRoot performs the paper's root switch purely through the mutator
// API: P1 exports its o1 reference into rootB@P2 (creating rootB -> o1) and
// then drops its own path to the ring.
func (rig *raceRig) migrateRoot(t *testing.T) {
	t.Helper()
	p1 := rig.c.Node("P1")
	if err := p1.Invoke(rig.rootBRef, "store", []ids.GlobalRef{rig.o1Ref}, func(_ node.Mutator, r node.Reply) {
		if !r.OK {
			t.Errorf("store failed: %s", r.Err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func (rig *raceRig) dropOldRoot(t *testing.T) {
	t.Helper()
	rig.c.Node("P1").With(func(m node.Mutator) {
		if err := m.Unlink(rig.r, rig.o0); err != nil {
			t.Error(err)
		}
	})
}

// assertAbortedAtP1 fails the test unless the in-flight detection ended as
// a counter-mismatch abort at P1, with no cycle declared anywhere.
func (rig *raceRig) assertAbortedAtP1(t *testing.T) {
	t.Helper()
	for id, s := range rig.c.Stats() {
		if s.Detector.CyclesFound != 0 {
			t.Fatalf("false cycle detection at %s: live ring declared garbage", id)
		}
	}
	if got := rig.c.Node("P1").Stats().Detector.Aborted; got != 1 {
		t.Fatalf("P1 aborted = %d, want 1 (counter mismatch in its derivation)", got)
	}
	if got := rig.c.Node("P2").Stats().Detector.Aborted; got != 0 {
		t.Fatalf("P2 aborted = %d, want 0 (the doomed CDM is never sent)", got)
	}
}

// assertRingAlive fails the test if any ring object has been reclaimed.
func (rig *raceRig) assertRingAlive(t *testing.T) {
	t.Helper()
	checks := []struct {
		node ids.NodeID
		obj  ids.ObjID
	}{{"P1", rig.o0}, {"P2", rig.o1}, {"P3", rig.o2}}
	for _, chk := range checks {
		alive := false
		rig.c.Node(chk.node).With(func(m node.Mutator) { alive = m.Exists(chk.obj) })
		if !alive {
			t.Fatalf("live ring object %d@%s was reclaimed", chk.obj, chk.node)
		}
	}
}

// TestFigure5RaceArrivalGuard reproduces the paper's §3.2 race: the root
// migrates (via reference copying through the mutator) while a detection is
// in flight; P1 re-summarizes after the migration, P2 does not. The stale
// detection must be aborted on the invocation counters: P1's derivation puts
// its bumped stub counter next to the scion counter P2 recorded at the start,
// so P1 itself aborts — one hop before P2's arrival guard would have refused
// the same CDM (that guard on its own: core's TestRaceArrivalGuardAborts).
func TestFigure5RaceArrivalGuard(t *testing.T) {
	rig := buildRaceRig(t)
	c := rig.c

	// Baseline GC state: everyone has collected and summarized.
	for _, n := range c.Nodes() {
		n.RunLGC()
	}
	c.Settle()
	for _, n := range c.Nodes() {
		if err := n.Summarize(); err != nil {
			t.Fatal(err)
		}
	}

	// Detection starts at P2 (scion P1 -> o1 is its only candidate: rootB's
	// scion is locally reachable).
	if started := c.Node("P2").RunDetection(); started != 1 {
		t.Fatalf("detections started = %d, want 1", started)
	}
	// Queue now: CDM(P2 -> P3). Interleave the mutator's root migration.
	rig.migrateRoot(t)
	// Deliver the CDM hop to P3 and the invoke round trip, but NOT the
	// CDM(P3 -> P1) yet... order in queue: CDM(->P3), InvokeReq(->P2).
	c.Net.Drain(2) // CDM at P3 (enqueues CDM->P1), InvokeReq at P2 (enqueues reply)

	// The root switch completes and P1 re-summarizes with fresh counters.
	rig.dropOldRoot(t)
	c.Node("P1").RunLGC()
	if err := c.Node("P1").Summarize(); err != nil {
		t.Fatal(err)
	}

	// Let everything settle: CDM reaches P1 (whose new summary no longer
	// shows local reachability), whose derivation pairs the bumped stub
	// counter with the stale source counter: abort, nothing forwarded.
	c.Settle()

	rig.assertAbortedAtP1(t)
	rig.assertRingAlive(t)

	// And the ring survives any number of further honest GC rounds, now
	// rooted at P2.
	for i := 0; i < 6; i++ {
		c.GCRound()
	}
	rig.assertRingAlive(t)
	// R no longer references o0; o0 stays alive only via the ring (which is
	// held by rootB -> o1).
	if got := c.TotalObjects(); got != 5 {
		t.Fatalf("objects = %d, want all 5", got)
	}
}

// TestFigure5RaceMatchAbort is the variant where BOTH P1 and P2 re-summarize
// after the migration: P2's arrival guard would pass, but algebra matching
// sees the old counter in the source set and aborts — at P1, the first
// process to hold both counters.
func TestFigure5RaceMatchAbort(t *testing.T) {
	rig := buildRaceRig(t)
	c := rig.c

	for _, n := range c.Nodes() {
		n.RunLGC()
	}
	c.Settle()
	for _, n := range c.Nodes() {
		if err := n.Summarize(); err != nil {
			t.Fatal(err)
		}
	}
	if started := c.Node("P2").RunDetection(); started != 1 {
		t.Fatalf("detections started = %d, want 1", started)
	}
	rig.migrateRoot(t)
	c.Net.Drain(2)
	rig.dropOldRoot(t)
	c.Node("P1").RunLGC()
	if err := c.Node("P1").Summarize(); err != nil {
		t.Fatal(err)
	}
	// P2 re-summarizes too: its scion counter is now also fresh, so the
	// in-flight detection's SOURCE entry (recorded at start) is the stale
	// one.
	if err := c.Node("P2").Summarize(); err != nil {
		t.Fatal(err)
	}
	c.Settle()

	rig.assertAbortedAtP1(t)
	rig.assertRingAlive(t)
}

// TestRaceThenGarbageIsEventuallyCollected closes the loop: after the failed
// (aborted) detection, the mutator drops the NEW root too, and the ring —
// now genuinely garbage — must be collected by later rounds.
func TestRaceThenGarbageIsEventuallyCollected(t *testing.T) {
	rig := buildRaceRig(t)
	c := rig.c

	for _, n := range c.Nodes() {
		n.RunLGC()
	}
	c.Settle()
	for _, n := range c.Nodes() {
		if err := n.Summarize(); err != nil {
			t.Fatal(err)
		}
	}
	c.Node("P2").RunDetection()
	rig.migrateRoot(t)
	c.Net.Drain(2)
	rig.dropOldRoot(t)
	c.Node("P1").RunLGC()
	if err := c.Node("P1").Summarize(); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	rig.assertRingAlive(t)

	// Now rootB drops its reference: the ring is garbage.
	c.Node("P2").With(func(m node.Mutator) {
		if err := m.Drop(rig.rootB, rig.o1Ref); err != nil {
			t.Error(err)
		}
	})
	rounds := c.CollectFully(12)
	// R and rootB survive (rooted); the three ring objects must be gone.
	if got := c.TotalObjects(); got != 2 {
		t.Fatalf("objects = %d after %d rounds, want 2 (R, rootB)", got, rounds)
	}
}
