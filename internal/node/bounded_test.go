package node

import (
	"runtime"
	"slices"
	"testing"

	"dgc/internal/core"
	"dgc/internal/ids"
)

// TestRetainedStateFollowsLiveGraph is the bounded-state property
// (PROPERTIES.md B): what a process retains is a function of its live heap,
// its tables, its in-flight detections and the number of node names — not of
// how many references or objects it has ever seen. A stepped 3-node cluster
// creates, detects and reclaims 4000 garbage rings, every one over fresh
// objects and therefore fresh references; once warm, the second 2000 rings
// must leave the live Go heap where the first 2000 left it, the algebra's
// node table must hold the cluster's names and nothing else new, and each
// heap's mark scratch must hold no more than its live objects.
func TestRetainedStateFollowsLiveGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("4000 create-detect-reclaim rounds")
	}
	const (
		rings     = 4000
		batch     = 20 // rings created between collections
		maxRounds = 12 // GC rounds allowed per batch
		slack     = 8
		maxGrowth = 256 << 10 // bytes of live Go heap, rings 2000 -> 4000 (1.2 MB before PR 14)
	)
	names := []ids.NodeID{"bounded-A", "bounded-B", "bounded-C"}
	namesBefore := slices.Clone(core.NodeNames())
	tn := newTestNet(t, Config{}, names...)

	gcRound := func() {
		for _, id := range names {
			tn.n(id).RunLGC()
		}
		tn.settle()
		for _, id := range names {
			if err := tn.n(id).Summarize(); err != nil {
				t.Fatal(err)
			}
			tn.n(id).RunDetection()
		}
		tn.settle()
	}
	objects := func() int {
		total := 0
		for _, id := range names {
			total += tn.n(id).NumObjects() + tn.n(id).NumScions() + tn.n(id).NumStubs()
		}
		return total
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var atHalf uint64
	for done := 0; done < rings; done += batch {
		for r := 0; r < batch; r++ {
			var objs [3]ids.ObjID
			for i, id := range names {
				objs[i] = alloc(tn.n(id))
			}
			for i, id := range names {
				next := (i + 1) % len(names)
				tn.grant(id, objs[i], names[next], objs[next])
			}
		}
		for round := 0; objects() != 0; round++ {
			if round == maxRounds {
				t.Fatalf("after %d rings: %d objects+scions+stubs left after %d GC rounds", done+batch, objects(), maxRounds)
			}
			gcRound()
		}
		for _, id := range names {
			h := tn.n(id).mach.heap
			if got := h.MarkScratchLen(); got > h.Len()+slack {
				t.Fatalf("after %d rings: %s's mark scratch holds %d entries for %d live objects", done+batch, id, got, h.Len())
			}
		}
		if done+batch == rings/2 {
			atHalf = liveHeap()
		}
	}
	atEnd := liveHeap()
	runtime.KeepAlive(tn) // both samples include the cluster itself
	t.Logf("live Go heap after %d rings: %d B; after %d: %d B", rings/2, atHalf, rings, atEnd)
	if atEnd > atHalf+maxGrowth {
		t.Errorf("live Go heap grew %d B over the last %d rings (limit %d): retention follows references seen",
			atEnd-atHalf, rings/2, maxGrowth)
	}

	// The table is process-global and other tests (or an earlier -count
	// iteration of this one) add to it too: it must hold the cluster's names
	// and have gained nothing else while the rings went by.
	after := core.NodeNames()
	for _, n := range names {
		if !slices.Contains(after, n) {
			t.Errorf("node table lacks the cluster's name %q", n)
		}
	}
	for _, n := range after {
		if !slices.Contains(namesBefore, n) && !slices.Contains(names, n) {
			t.Errorf("node table gained %q, not a name of the cluster", n)
		}
	}
}
