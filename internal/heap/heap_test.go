package heap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dgc/internal/ids"
)

func TestAllocAssignsDenseIDs(t *testing.T) {
	h := New("P1")
	a := h.Alloc(nil)
	b := h.Alloc(nil)
	if a.ID != 1 || b.ID != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", a.ID, b.ID)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
}

func TestGetAndContains(t *testing.T) {
	h := New("P1")
	a := h.Alloc([]byte("x"))
	if got := h.Get(a.ID); got != a {
		t.Errorf("Get returned %v, want %v", got, a)
	}
	if h.Get(99) != nil {
		t.Error("Get(99) should be nil")
	}
	if !h.Contains(a.ID) || h.Contains(99) {
		t.Error("Contains mismatch")
	}
}

func TestDeleteRemovesObjectAndRoot(t *testing.T) {
	h := New("P1")
	a := h.Alloc(nil)
	if err := h.AddRoot(a.ID); err != nil {
		t.Fatal(err)
	}
	h.Delete(a.ID)
	if h.Contains(a.ID) {
		t.Error("object still present after Delete")
	}
	if h.IsRoot(a.ID) {
		t.Error("root entry still present after Delete")
	}
	h.Delete(a.ID) // must be a no-op
}

func TestAddRootErrors(t *testing.T) {
	h := New("P1")
	if err := h.AddRoot(7); err == nil {
		t.Error("AddRoot on missing object should fail")
	}
}

func TestRootsSorted(t *testing.T) {
	h := New("P1")
	var allocated []ids.ObjID
	for i := 0; i < 5; i++ {
		allocated = append(allocated, h.Alloc(nil).ID)
	}
	// add in reverse
	for i := len(allocated) - 1; i >= 0; i-- {
		if err := h.AddRoot(allocated[i]); err != nil {
			t.Fatal(err)
		}
	}
	roots := h.Roots()
	for i := 1; i < len(roots); i++ {
		if roots[i-1] >= roots[i] {
			t.Fatalf("roots not sorted: %v", roots)
		}
	}
	h.RemoveRoot(allocated[0])
	if h.IsRoot(allocated[0]) {
		t.Error("RemoveRoot did not remove")
	}
}

func TestLocalRefLifecycle(t *testing.T) {
	h := New("P1")
	a, b := h.Alloc(nil), h.Alloc(nil)
	if err := h.AddLocalRef(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if len(a.Locals) != 1 || a.Locals[0] != b.ID {
		t.Fatalf("Locals = %v", a.Locals)
	}
	if err := h.RemoveLocalRef(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if len(a.Locals) != 0 {
		t.Fatalf("Locals = %v after remove", a.Locals)
	}
	if err := h.RemoveLocalRef(a.ID, b.ID); err == nil {
		t.Error("removing a missing reference should fail")
	}
	if err := h.AddLocalRef(a.ID, 99); err == nil {
		t.Error("AddLocalRef to missing target should fail")
	}
	if err := h.AddLocalRef(99, a.ID); err == nil {
		t.Error("AddLocalRef from missing source should fail")
	}
}

func TestRemoteRefLifecycle(t *testing.T) {
	h := New("P1")
	a := h.Alloc(nil)
	target := ids.GlobalRef{Node: "P2", Obj: 6}
	if err := h.AddRemoteRef(a.ID, target); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRemoteRef(a.ID, ids.GlobalRef{Node: "P1", Obj: 1}); err == nil {
		t.Error("AddRemoteRef to own node should fail")
	}
	if err := h.RemoveRemoteRef(a.ID, target); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveRemoteRef(a.ID, target); err == nil {
		t.Error("removing missing remote ref should fail")
	}
	if err := h.RemoveRemoteRef(99, target); err == nil {
		t.Error("removing from missing object should fail")
	}
}

func TestReachableFromChain(t *testing.T) {
	h := New("P1")
	objs := make([]*Object, 5)
	for i := range objs {
		objs[i] = h.Alloc(nil)
	}
	for i := 0; i < 4; i++ {
		if err := h.AddLocalRef(objs[i].ID, objs[i+1].ID); err != nil {
			t.Fatal(err)
		}
	}
	got := h.ReachableFrom(objs[2].ID)
	if len(got) != 3 {
		t.Fatalf("reachable set size = %d, want 3 (%v)", len(got), got)
	}
	for _, o := range objs[2:] {
		if _, ok := got[o.ID]; !ok {
			t.Errorf("object %d missing from reachable set", o.ID)
		}
	}
}

func TestReachableFromCycleTerminates(t *testing.T) {
	h := New("P1")
	a, b, c := h.Alloc(nil), h.Alloc(nil), h.Alloc(nil)
	mustRef(t, h, a.ID, b.ID)
	mustRef(t, h, b.ID, c.ID)
	mustRef(t, h, c.ID, a.ID)
	got := h.ReachableFrom(a.ID)
	if len(got) != 3 {
		t.Fatalf("cycle reachable set size = %d, want 3", len(got))
	}
}

func TestReachableFromIgnoresDanglingAndMissingSeeds(t *testing.T) {
	h := New("P1")
	a, b := h.Alloc(nil), h.Alloc(nil)
	mustRef(t, h, a.ID, b.ID)
	h.Delete(b.ID) // leaves dangling local ref in a
	got := h.ReachableFrom(a.ID, 77)
	if len(got) != 1 {
		t.Fatalf("reachable = %v, want only {a}", got)
	}
}

func TestReachableFromRoots(t *testing.T) {
	h := New("P1")
	a, b, c := h.Alloc(nil), h.Alloc(nil), h.Alloc(nil)
	mustRef(t, h, a.ID, b.ID)
	_ = c
	if err := h.AddRoot(a.ID); err != nil {
		t.Fatal(err)
	}
	got := h.ReachableFromRoots()
	if len(got) != 2 {
		t.Fatalf("locally reachable = %v, want {a,b}", got)
	}
	if _, ok := got[c.ID]; ok {
		t.Error("c should be unreachable")
	}
}

func TestRemoteRefsFromDeduplicatesAndSorts(t *testing.T) {
	h := New("P1")
	a, b := h.Alloc(nil), h.Alloc(nil)
	t1 := ids.GlobalRef{Node: "P3", Obj: 1}
	t2 := ids.GlobalRef{Node: "P2", Obj: 5}
	mustRemote(t, h, a.ID, t1)
	mustRemote(t, h, b.ID, t1)
	mustRemote(t, h, b.ID, t2)
	set := map[ids.ObjID]struct{}{a.ID: {}, b.ID: {}}
	got := h.RemoteRefsFrom(set)
	if len(got) != 2 || got[0] != t2 || got[1] != t1 {
		t.Fatalf("RemoteRefsFrom = %v, want [%v %v]", got, t2, t1)
	}
}

func TestHoldersOf(t *testing.T) {
	h := New("P1")
	a, b, c := h.Alloc(nil), h.Alloc(nil), h.Alloc(nil)
	target := ids.GlobalRef{Node: "P2", Obj: 1}
	mustRemote(t, h, a.ID, target)
	mustRemote(t, h, c.ID, target)
	holders := h.HoldersOf(target)
	if len(holders) != 2 {
		t.Fatalf("holders = %v", holders)
	}
	if _, ok := holders[b.ID]; ok {
		t.Error("b should not hold the reference")
	}
}

func TestEdgeCount(t *testing.T) {
	h := New("P1")
	a, b := h.Alloc(nil), h.Alloc(nil)
	mustRef(t, h, a.ID, b.ID)
	mustRemote(t, h, b.ID, ids.GlobalRef{Node: "P2", Obj: 1})
	l, r := h.EdgeCount()
	if l != 1 || r != 1 {
		t.Fatalf("EdgeCount = %d, %d, want 1, 1", l, r)
	}
}

func TestCloneIsDeepAndIndependent(t *testing.T) {
	h := New("P1")
	a, b := h.Alloc([]byte("payload")), h.Alloc(nil)
	mustRef(t, h, a.ID, b.ID)
	mustRemote(t, h, a.ID, ids.GlobalRef{Node: "P2", Obj: 3})
	if err := h.AddRoot(a.ID); err != nil {
		t.Fatal(err)
	}

	c := h.Clone()
	if c.Len() != h.Len() || !c.IsRoot(a.ID) {
		t.Fatal("clone differs from original")
	}
	// Mutate original; clone must not change.
	if err := h.RemoveLocalRef(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	h.Get(a.ID).Payload[0] = 'X'
	h.Delete(b.ID)
	h.RemoveRoot(a.ID)

	ca := c.Get(a.ID)
	if len(ca.Locals) != 1 || ca.Locals[0] != b.ID {
		t.Error("clone lost local ref after original mutation")
	}
	if string(ca.Payload) != "payload" {
		t.Errorf("clone payload mutated: %q", ca.Payload)
	}
	if !c.Contains(b.ID) || !c.IsRoot(a.ID) {
		t.Error("clone lost object or root after original mutation")
	}
	// Clone allocates independently of original.
	n := c.Alloc(nil)
	if h.Contains(n.ID) {
		t.Error("allocation in clone leaked into original")
	}
}

func TestForEachVisitsAllInOrder(t *testing.T) {
	h := New("P1")
	for i := 0; i < 10; i++ {
		h.Alloc(nil)
	}
	var prev ids.ObjID
	count := 0
	h.ForEach(func(o *Object) {
		if o.ID <= prev {
			t.Fatalf("ForEach out of order: %d after %d", o.ID, prev)
		}
		prev = o.ID
		count++
	})
	if count != 10 {
		t.Fatalf("visited %d objects, want 10", count)
	}
}

// Property: reachability is monotone in the seed set, and the reachable set
// is closed under following live local references.
func TestReachabilityClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New("P1")
		n := 2 + rng.Intn(30)
		objs := make([]ids.ObjID, n)
		for i := range objs {
			objs[i] = h.Alloc(nil).ID
		}
		edges := rng.Intn(3 * n)
		for i := 0; i < edges; i++ {
			from := objs[rng.Intn(n)]
			to := objs[rng.Intn(n)]
			if err := h.AddLocalRef(from, to); err != nil {
				return false
			}
		}
		start := objs[rng.Intn(n)]
		set := h.ReachableFrom(start)
		// Closure: every local ref out of the set lands in the set.
		for id := range set {
			for _, next := range h.Get(id).Locals {
				if _, ok := set[next]; !ok {
					return false
				}
			}
		}
		// Monotone: adding a seed can only grow the set.
		extra := objs[rng.Intn(n)]
		bigger := h.ReachableFrom(start, extra)
		if len(bigger) < len(set) {
			return false
		}
		for id := range set {
			if _, ok := bigger[id]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func mustRef(t *testing.T, h *Heap, from, to ids.ObjID) {
	t.Helper()
	if err := h.AddLocalRef(from, to); err != nil {
		t.Fatal(err)
	}
}

func mustRemote(t *testing.T, h *Heap, from ids.ObjID, target ids.GlobalRef) {
	t.Helper()
	if err := h.AddRemoteRef(from, target); err != nil {
		t.Fatal(err)
	}
}

// TestMarkScratchFollowsLiveObjects: the marking scratch holds an entry per
// LIVE marked object, not per object ever marked. 10 000 rounds each allocate
// a rooted chain next to a permanent one, mark everything, then sweep the
// round's chain the way the LGC does; the scratch must stay within the peak
// live population, however many objects have passed through.
func TestMarkScratchFollowsLiveObjects(t *testing.T) {
	const (
		rounds    = 10000
		permanent = 8
		perRound  = 4
		slack     = 4
	)
	h := New("P1")
	prev := h.Alloc(nil).ID
	if err := h.AddRoot(prev); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < permanent; i++ {
		next := h.Alloc(nil).ID
		mustRef(t, h, prev, next)
		prev = next
	}
	for round := 0; round < rounds; round++ {
		chain := make([]ids.ObjID, perRound)
		for i := range chain {
			chain[i] = h.Alloc(nil).ID
			if i > 0 {
				mustRef(t, h, chain[i-1], chain[i])
			}
		}
		if err := h.AddRoot(chain[0]); err != nil {
			t.Fatal(err)
		}
		if got := h.MarkReachable(h.Roots()...).Len(); got != permanent+perRound {
			t.Fatalf("round %d: marked %d objects, want %d", round, got, permanent+perRound)
		}
		h.RemoveRoot(chain[0])
		live := h.MarkReachable(h.Roots()...)
		for _, id := range chain {
			if live.Contains(id) {
				t.Fatalf("round %d: unrooted object %d still marked", round, id)
			}
			h.Delete(id)
		}
		if got := h.MarkScratchLen(); got > permanent+perRound+slack {
			t.Fatalf("round %d: mark scratch holds %d entries for %d live objects (peak %d)",
				round, got, h.Len(), permanent+perRound)
		}
	}
	if h.Len() != permanent {
		t.Fatalf("heap holds %d objects, want %d", h.Len(), permanent)
	}
}
