package snapshot

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/refs"
)

// randomProcess builds a random single-process graph with scions, stubs and
// roots, returning everything the summarizer consumes.
func randomProcess(seed int64) (*heap.Heap, *refs.Table) {
	rng := rand.New(rand.NewSource(seed))
	h := heap.New("P1")
	tb := refs.NewTable("P1")
	n := 3 + rng.Intn(25)
	objs := make([]ids.ObjID, n)
	for i := range objs {
		objs[i] = h.Alloc(nil).ID
	}
	for i := 0; i < 2*n; i++ {
		_ = h.AddLocalRef(objs[rng.Intn(n)], objs[rng.Intn(n)])
	}
	// Remote references + stubs.
	for i := 0; i < n/2; i++ {
		tgt := ids.GlobalRef{Node: "P2", Obj: ids.ObjID(rng.Intn(10))}
		if err := h.AddRemoteRef(objs[rng.Intn(n)], tgt); err == nil {
			tb.EnsureStub(tgt)
		}
	}
	// Scions.
	for i := 0; i < n/3; i++ {
		src := ids.NodeID([]string{"P3", "P4", "P5"}[rng.Intn(3)])
		tb.EnsureScion(src, objs[rng.Intn(n)], 0)
	}
	// Roots.
	for i := 0; i < n/4; i++ {
		_ = h.AddRoot(objs[rng.Intn(n)])
	}
	return h, tb
}

// TestSummaryInversionProperty checks the core duality of the summarized
// graph: a scion s lists stub st in StubsFrom EXACTLY when st lists s in
// ScionsTo. The detector's dependency mechanism (§3.1) relies on this
// inversion being exact.
func TestSummaryInversionProperty(t *testing.T) {
	f := func(seed int64) bool {
		h, tb := randomProcess(seed)
		sum := Summarize(h, tb, 1)
		// Forward direction.
		for _, sc := range sum.Scions {
			for _, tgt := range sc.StubsFrom {
				st, ok := sum.Stub(tgt)
				if !ok {
					return false
				}
				found := false
				for _, back := range st.ScionsTo {
					if back == sc.Ref {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		// Backward direction.
		for _, st := range sum.Stubs {
			for _, ref := range st.ScionsTo {
				sc, ok := sum.Scion(ref)
				if !ok {
					return false
				}
				found := false
				for _, fwd := range sc.StubsFrom {
					if fwd == st.Target {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSummaryReachabilityConsistency verifies the summary against direct
// heap reachability: StubsFrom(s) is exactly the set of stub targets whose
// holders are reachable from s's object, and LocalReach flags agree with a
// direct root trace.
func TestSummaryReachabilityConsistency(t *testing.T) {
	f := func(seed int64) bool {
		h, tb := randomProcess(seed)
		sum := Summarize(h, tb, 1)
		rootReach := h.ReachableFromRoots()
		for _, sc := range tb.Scions() {
			ref := sc.RefID("P1")
			ss, ok := sum.Scion(ref)
			if !ok {
				return false
			}
			reach := h.ReachableFrom(sc.Obj)
			want := map[ids.GlobalRef]bool{}
			for _, tgt := range h.RemoteRefsFrom(reach) {
				if tb.HasStub(tgt) {
					want[tgt] = true
				}
			}
			if len(want) != len(ss.StubsFrom) {
				return false
			}
			for _, tgt := range ss.StubsFrom {
				if !want[tgt] {
					return false
				}
			}
			if _, lr := rootReach[sc.Obj]; lr != ss.LocalReach {
				return false
			}
		}
		for _, st := range tb.Stubs() {
			ss, ok := sum.Stub(st.Target)
			if !ok {
				return false
			}
			wantLocal := false
			for holder := range h.HoldersOf(st.Target) {
				if _, ok := rootReach[holder]; ok {
					wantLocal = true
					break
				}
			}
			if wantLocal != ss.LocalReach {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
