package lgc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/refs"
)

func newNode(t *testing.T, name ids.NodeID) (*heap.Heap, *refs.Table, *Collector) {
	t.Helper()
	h := heap.New(name)
	tb := refs.NewTable(name)
	return h, tb, New(h, tb)
}

func TestCollectReclaimsUnreachable(t *testing.T) {
	h, _, c := newNode(t, "P1")
	a := h.Alloc(nil)
	b := h.Alloc(nil)
	garbage := h.Alloc(nil)
	_ = garbage
	if err := h.AddLocalRef(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRoot(a.ID); err != nil {
		t.Fatal(err)
	}
	res := c.Collect()
	if res.Swept != 1 || res.Live != 2 {
		t.Fatalf("result = %+v", res)
	}
	if !h.Contains(a.ID) || !h.Contains(b.ID) || h.Contains(garbage.ID) {
		t.Fatal("wrong objects survived")
	}
	if c.Rounds != 1 {
		t.Fatalf("Rounds = %d", c.Rounds)
	}
}

func TestScionsActAsRoots(t *testing.T) {
	h, tb, c := newNode(t, "P2")
	// Object kept alive only by an incoming remote reference.
	remote := h.Alloc(nil)
	downstream := h.Alloc(nil)
	if err := h.AddLocalRef(remote.ID, downstream.ID); err != nil {
		t.Fatal(err)
	}
	tb.EnsureScion("P1", remote.ID, 0)
	res := c.Collect()
	if res.Swept != 0 {
		t.Fatalf("swept %d, want 0", res.Swept)
	}
	if res.LocallyReachable != 0 {
		t.Fatalf("LocallyReachable = %d, want 0", res.LocallyReachable)
	}
	// Remove the scion: both objects must now be reclaimed.
	tb.DeleteScion("P1", remote.ID)
	res = c.Collect()
	if res.Swept != 2 || h.Len() != 0 {
		t.Fatalf("result = %+v, heap len %d", res, h.Len())
	}
}

func TestCollectRegeneratesStubs(t *testing.T) {
	h, tb, c := newNode(t, "P1")
	live := h.Alloc(nil)
	dead := h.Alloc(nil)
	if err := h.AddRoot(live.ID); err != nil {
		t.Fatal(err)
	}
	liveTarget := ids.GlobalRef{Node: "P2", Obj: 6}
	deadTarget := ids.GlobalRef{Node: "P3", Obj: 9}
	if err := h.AddRemoteRef(live.ID, liveTarget); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRemoteRef(dead.ID, deadTarget); err != nil {
		t.Fatal(err)
	}
	// Pre-existing stub for the dead holder's ref and its IC-carrying twin.
	tb.EnsureStub(liveTarget)
	if _, err := tb.BumpStubIC(liveTarget); err != nil {
		t.Fatal(err)
	}
	tb.EnsureStub(deadTarget)

	res := c.Collect()
	if res.StubsDeleted != 1 || res.StubsCreated != 0 {
		t.Fatalf("result = %+v", res)
	}
	if tb.HasStub(deadTarget) {
		t.Fatal("stub for dead holder survived")
	}
	ic, ok := tb.StubIC(liveTarget)
	if !ok {
		t.Fatal("live stub deleted")
	}
	if ic != 1 {
		t.Fatalf("surviving stub lost its IC: %d", ic)
	}
}

func TestCollectCreatesMissingStubs(t *testing.T) {
	h, tb, c := newNode(t, "P1")
	a := h.Alloc(nil)
	if err := h.AddRoot(a.ID); err != nil {
		t.Fatal(err)
	}
	target := ids.GlobalRef{Node: "P2", Obj: 1}
	if err := h.AddRemoteRef(a.ID, target); err != nil {
		t.Fatal(err)
	}
	res := c.Collect()
	if res.StubsCreated != 1 {
		t.Fatalf("StubsCreated = %d", res.StubsCreated)
	}
	if !tb.HasStub(target) {
		t.Fatal("stub not created")
	}
}

func TestLocalCycleIsReclaimed(t *testing.T) {
	h, _, c := newNode(t, "P1")
	a, b := h.Alloc(nil), h.Alloc(nil)
	if err := h.AddLocalRef(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.AddLocalRef(b.ID, a.ID); err != nil {
		t.Fatal(err)
	}
	res := c.Collect()
	if res.Swept != 2 || h.Len() != 0 {
		t.Fatalf("local cycle not reclaimed: %+v", res)
	}
}

func TestDistributedCycleFragmentLeaksWithoutDCDA(t *testing.T) {
	// The motivating leak: an object kept alive only by a scion, holding a
	// remote reference back out. The LGC alone must never reclaim it.
	h, tb, c := newNode(t, "P2")
	f := h.Alloc(nil)
	tb.EnsureScion("P1", f.ID, 0)
	if err := h.AddRemoteRef(f.ID, ids.GlobalRef{Node: "P1", Obj: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res := c.Collect()
		if res.Swept != 0 {
			t.Fatalf("round %d swept %d, want 0", i, res.Swept)
		}
	}
	if !tb.HasStub(ids.GlobalRef{Node: "P1", Obj: 4}) {
		t.Fatal("outgoing stub of scion-rooted object missing")
	}
}

// Safety property: Collect never reclaims an object reachable from roots or
// scions, and always reclaims everything else, on random heaps.
func TestCollectSafetyAndCompletenessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := heap.New("P1")
		tb := refs.NewTable("P1")
		c := New(h, tb)
		n := 3 + rng.Intn(40)
		objs := make([]ids.ObjID, n)
		for i := range objs {
			objs[i] = h.Alloc(nil).ID
		}
		for i := 0; i < 2*n; i++ {
			if err := h.AddLocalRef(objs[rng.Intn(n)], objs[rng.Intn(n)]); err != nil {
				return false
			}
		}
		if rng.Intn(4) > 0 {
			_ = h.AddRoot(objs[rng.Intn(n)])
		}
		if rng.Intn(4) > 0 {
			tb.EnsureScion("P9", objs[rng.Intn(n)], 0)
		}
		seeds := h.Roots()
		seeds = append(seeds, tb.ScionTargets()...)
		expected := h.ReachableFrom(seeds...)

		c.Collect()

		if h.Len() != len(expected) {
			return false
		}
		for id := range expected {
			if !h.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
