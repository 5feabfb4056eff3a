package lgc

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/refs"
)

// referenceMark is the textbook mark: a breadth-first search over a visited
// map, from scratch, skipping seeds and local refs to objects that do not
// exist.
func referenceMark(h *heap.Heap, seeds []ids.ObjID) map[ids.ObjID]bool {
	seen := make(map[ids.ObjID]bool)
	var queue []ids.ObjID
	for _, s := range seeds {
		if h.Contains(s) && !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		o := h.Get(queue[0])
		queue = queue[1:]
		for _, next := range o.Locals {
			if h.Contains(next) && !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return seen
}

// referenceCollect is Collect's specification: mark from the roots, mark
// again from the roots plus the scion targets, sweep by deleting every
// unmarked id, then keep a stub (with its invocation counter) exactly for the
// remote refs the survivors hold plus the pinned ones. It returns the result,
// the swept ids and the stub table as target -> IC.
func referenceCollect(h *heap.Heap, tb *refs.Table, pinned []ids.GlobalRef) (Result, []ids.ObjID, map[ids.GlobalRef]uint64) {
	var res Result
	roots := h.Roots()
	res.LocallyReachable = len(referenceMark(h, roots))
	live := referenceMark(h, append(roots, tb.ScionTargets()...))
	var swept []ids.ObjID
	for _, id := range h.IDs() {
		if !live[id] {
			h.Delete(id)
			swept = append(swept, id)
		}
	}
	res.Swept = len(swept)
	res.Live = h.Len()

	stubs := make(map[ids.GlobalRef]uint64)
	keep := func(r ids.GlobalRef) {
		if _, ok := stubs[r]; ok {
			return
		}
		if ic, ok := tb.StubIC(r); ok {
			stubs[r] = ic
		} else {
			stubs[r] = 0
			res.StubsCreated++
		}
	}
	h.ForEach(func(o *heap.Object) {
		for _, r := range o.Remotes {
			keep(r)
		}
	})
	for _, r := range pinned {
		keep(r)
	}
	for _, s := range tb.Stubs() {
		if _, ok := stubs[s.Target]; !ok {
			res.StubsDeleted++
		}
	}
	return res, swept, stubs
}

func stubTable(tb *refs.Table) map[ids.GlobalRef]uint64 {
	out := make(map[ids.GlobalRef]uint64)
	for _, s := range tb.Stubs() {
		out[s.Target] = s.IC
	}
	return out
}

// TestCollectMatchesReference runs Collect and referenceCollect side by side
// on random heaps over several rounds of mutation: random local graphs, roots,
// remote refs with bumped stub counters, deletes that leave dangling local
// refs, scions whose target was already swept, and pinned refs. The swept
// set, the result and the stub table must be identical every round.
func TestCollectMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, tb, c := newNode(t, "P1")
		for round := 0; round < 8; round++ {
			where := fmt.Sprintf("seed %d round %d", seed, round)
			pick := func() ids.ObjID { return ids.ObjID(1 + rng.Intn(int(h.NextID()))) }
			for n := rng.Intn(40); n > 0; n-- {
				h.Alloc(nil)
			}
			for n := rng.Intn(60); n > 0; n-- {
				_ = h.AddLocalRef(pick(), pick()) // misses a swept id now and then
			}
			for n := rng.Intn(8); n > 0; n-- {
				target := ids.GlobalRef{Node: ids.NodeID(fmt.Sprintf("P%d", 2+rng.Intn(3))), Obj: ids.ObjID(1 + rng.Intn(20))}
				if h.AddRemoteRef(pick(), target) == nil && rng.Intn(2) == 0 {
					tb.EnsureStub(target)
					if _, err := tb.BumpStubIC(target); err != nil {
						t.Fatal(err)
					}
				}
			}
			for n := rng.Intn(3); n > 0; n-- {
				_ = h.AddRoot(pick())
			}
			if rng.Intn(3) == 0 {
				for _, r := range h.Roots() {
					if rng.Intn(2) == 0 {
						h.RemoveRoot(r)
					}
				}
			}
			for n := rng.Intn(4); n > 0; n-- {
				tb.EnsureScion(ids.NodeID(fmt.Sprintf("P%d", 2+rng.Intn(3))), pick(), 0) // may name a swept object
			}
			for n := rng.Intn(10); n > 0; n-- {
				h.Delete(pick()) // leaves dangling local refs
			}
			var pinned []ids.GlobalRef
			if rng.Intn(3) == 0 {
				pinned = append(pinned, ids.GlobalRef{Node: "P9", Obj: ids.ObjID(rng.Intn(3))})
			}

			ref := h.Clone()
			refTable := refs.NewTable("P1")
			for _, s := range tb.Stubs() {
				refTable.RestoreStub(s.Target, s.IC)
			}
			for _, s := range tb.Scions() {
				refTable.RestoreScion(s.Src, s.Obj, s.IC)
			}
			wantRes, wantSwept, wantStubs := referenceCollect(ref, refTable, pinned)

			before := h.IDs()
			res := c.Collect(pinned...)
			after := h.IDs()
			var swept []ids.ObjID
			for _, id := range before {
				if !slices.Contains(after, id) {
					swept = append(swept, id)
				}
			}
			if res != wantRes {
				t.Fatalf("%s: Collect = %+v, reference %+v", where, res, wantRes)
			}
			if !slices.Equal(swept, wantSwept) {
				t.Fatalf("%s: swept %v, reference %v", where, swept, wantSwept)
			}
			if !slices.Equal(after, ref.IDs()) {
				t.Fatalf("%s: survivors %v, reference %v", where, after, ref.IDs())
			}
			if got := stubTable(tb); !maps.Equal(got, wantStubs) {
				t.Fatalf("%s: stub table %v, reference %v", where, got, wantStubs)
			}
		}
	}
}

// TestCollectSteadyStateAllocation bounds what one collection allocates over
// a 10 000-object heap with nothing to sweep: marking stamps the objects'
// records in place and the sweep walks the ordered store, so the cost is a
// few small slices and maps, independent of the heap's size. A sort of the
// ids, a copy of the id list or a visited map would each exceed the bound.
func TestCollectSteadyStateAllocation(t *testing.T) {
	const (
		objects = 10000
		runs    = 20
		bound   = 4 << 10 // bytes per collection
	)
	h, tb, c := newNode(t, "P1")
	var prev ids.ObjID
	for i := 0; i < objects; i++ {
		o := h.Alloc(nil)
		if i == 0 {
			if err := h.AddRoot(o.ID); err != nil {
				t.Fatal(err)
			}
		} else if err := h.AddLocalRef(prev, o.ID); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 500 {
			tb.EnsureScion("P2", o.ID, 0)
			if err := h.AddRemoteRef(o.ID, ids.GlobalRef{Node: "P3", Obj: ids.ObjID(i)}); err != nil {
				t.Fatal(err)
			}
		}
		prev = o.ID
	}
	c.Collect() // warm: the traversal queue reaches its size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if res := c.Collect(); res.Swept != 0 || res.Live != objects {
			t.Fatalf("collection %d: %+v, want nothing swept", i, res)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= bound {
		t.Fatalf("a steady-state collection of %d objects allocates %d B, bound %d B", objects, per, bound)
	}
}
