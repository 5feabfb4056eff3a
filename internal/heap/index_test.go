package heap

import (
	"testing"

	"dgc/internal/ids"
)

func TestMarkReachableAndInvalidation(t *testing.T) {
	h := New("P1")
	a, b, c := h.Alloc(nil), h.Alloc(nil), h.Alloc(nil)
	if err := h.AddLocalRef(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	m := h.MarkReachable(a.ID)
	if !m.Contains(a.ID) || !m.Contains(b.ID) || m.Contains(c.ID) {
		t.Fatalf("mark contents wrong")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	// A newer traversal invalidates the old mark.
	m2 := h.MarkReachable(c.ID)
	if !m2.Contains(c.ID) || m2.Contains(a.ID) {
		t.Fatalf("second mark contents wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stale Mark did not panic")
		}
	}()
	m.Contains(a.ID)
}

func TestReachableFromResultSurvivesLaterTraversals(t *testing.T) {
	h := New("P1")
	a, b := h.Alloc(nil), h.Alloc(nil)
	if err := h.AddLocalRef(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	set := h.ReachableFrom(a.ID)
	_ = h.ReachableFrom(b.ID) // recycles scratch; set must be unaffected
	if len(set) != 2 {
		t.Fatalf("set size %d after later traversal, want 2", len(set))
	}
}

func buildIndexedHeap(t *testing.T) (*Heap, [4]ids.ObjID) {
	t.Helper()
	h := New("P1")
	var o [4]ids.ObjID
	for i := range o {
		o[i] = h.Alloc(nil).ID
	}
	// 0 <-> 1 form an SCC; 1 -> 2; 3 isolated. 0 and 2 hold remote refs.
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}} {
		if err := h.AddLocalRef(o[e[0]], o[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddRemoteRef(o[0], ids.GlobalRef{Node: "P2", Obj: 9}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRemoteRef(o[2], ids.GlobalRef{Node: "P2", Obj: 9}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRemoteRef(o[2], ids.GlobalRef{Node: "P3", Obj: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRoot(o[3]); err != nil {
		t.Fatal(err)
	}
	return h, o
}

func TestIndexHoldersMatchHoldersOf(t *testing.T) {
	h, _ := buildIndexedHeap(t)
	ix := h.BuildIndex()
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for i, tgt := range ix.Targets() {
		want := h.HoldersOf(tgt)
		got := ix.Holders(int32(i))
		if len(got) != len(want) {
			t.Fatalf("target %v: %d holders via index, %d via scan", tgt, len(got), len(want))
		}
		for _, hp := range got {
			if _, ok := want[ix.ids[hp]]; !ok {
				t.Fatalf("target %v: index holder %d not in scan set", tgt, ix.ids[hp])
			}
		}
	}
}

func TestIndexSCCAndCondensationOrder(t *testing.T) {
	h, o := buildIndexedHeap(t)
	ix := h.BuildIndex()
	comp, ncomp := ix.SCC()
	if ncomp != 3 {
		t.Fatalf("ncomp = %d, want 3 ({0,1}, {2}, {3})", ncomp)
	}
	p0, _ := ix.Pos(o[0])
	p1, _ := ix.Pos(o[1])
	p2, _ := ix.Pos(o[2])
	if comp[p0] != comp[p1] {
		t.Fatal("cycle members in different components")
	}
	if comp[p2] == comp[p0] {
		t.Fatal("chain target merged into the cycle component")
	}
	// Completion order: every condensation edge u->v has comp[u] > comp[v].
	for v := range ix.ids {
		for _, w := range ix.out(int32(v)) {
			if comp[v] != comp[w] && comp[v] <= comp[w] {
				t.Fatalf("edge %d->%d violates reverse-topological component ids", v, w)
			}
		}
	}
	compAdj := ix.Condense(comp, ncomp)
	for c, succs := range compAdj {
		for _, d := range succs {
			if int32(c) == d {
				t.Fatalf("self edge in condensation at %d", c)
			}
		}
	}
}

func TestIndexRootFlags(t *testing.T) {
	h, o := buildIndexedHeap(t)
	ix := h.BuildIndex()
	reach := ix.RootFlags()
	want := h.ReachableFromRoots()
	for i, id := range ix.ids {
		if _, ok := want[id]; ok != reach[i] {
			t.Fatalf("RootFlags[%d] (obj %d) = %v, scan says %v", i, id, reach[i], ok)
		}
	}
	_ = o
}

// TestIndexPosAfterMutation: an Index describes the heap at its build. Its
// positions come from the store's slots, which later deletes and compaction
// renumber; Pos must keep answering for the build.
func TestIndexPosAfterMutation(t *testing.T) {
	h, o := buildIndexedHeap(t)
	h.Delete(o[0]) // a tombstone before the build: slots are compacted first
	ix := h.BuildIndex()
	for i, id := range o[1:] {
		if p, ok := ix.Pos(id); !ok || int(p) != i {
			t.Fatalf("Pos(%d) = %d, %v before mutation, want %d", id, p, ok, i)
		}
	}
	h.Delete(o[1])
	h.Delete(o[2])
	h.compact()
	fresh := h.Alloc(nil).ID
	for i, id := range o[1:] {
		if p, ok := ix.Pos(id); !ok || int(p) != i {
			t.Fatalf("Pos(%d) = %d, %v after mutation, want %d", id, p, ok, i)
		}
	}
	if _, ok := ix.Pos(o[0]); ok {
		t.Fatal("Pos found an object deleted before the build")
	}
	if _, ok := ix.Pos(fresh); ok {
		t.Fatal("Pos found an object allocated after the build")
	}
}
