package experiments

import (
	"math/rand"

	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/refs"
)

// BuildSummarizeHeap constructs the summarization stress graph of
// BenchmarkSummarize: `objects` objects on one process with a spine chain
// (so scions near the head reach almost the whole heap), one
// extra random edge per object, a remote reference every 32 objects (the
// stub population) and `scions` incoming references spread evenly across
// the heap. Deterministic for a given (objects, scions).
func BuildSummarizeHeap(objects, scions int) (*heap.Heap, *refs.Table) {
	rng := rand.New(rand.NewSource(42))
	h := heap.New("P1")
	tb := refs.NewTable("P1")

	objs := make([]ids.ObjID, objects)
	for i := range objs {
		objs[i] = h.Alloc(nil).ID
	}
	// Spine: object i -> i+1, making per-scion reachability deep.
	for i := 1; i < objects; i++ {
		if err := h.AddLocalRef(objs[i-1], objs[i]); err != nil {
			panic(err)
		}
	}
	// One extra random edge per object (cycles included).
	for i := 0; i < objects; i++ {
		if err := h.AddLocalRef(objs[rng.Intn(objects)], objs[rng.Intn(objects)]); err != nil {
			panic(err)
		}
	}
	// Remote references: one stub-holding object every 32, across 4 peers.
	peers := []ids.NodeID{"P2", "P3", "P4", "P5"}
	for i := 0; i < objects; i += 32 {
		tgt := ids.GlobalRef{Node: peers[rng.Intn(len(peers))], Obj: ids.ObjID(rng.Intn(64))}
		if err := h.AddRemoteRef(objs[i], tgt); err != nil {
			panic(err)
		}
		tb.EnsureStub(tgt)
	}
	// Scions spread evenly over the heap from 3 source processes.
	srcs := []ids.NodeID{"P2", "P3", "P4"}
	if scions > 0 {
		stride := objects / scions
		if stride == 0 {
			stride = 1
		}
		for s := 0; s < scions; s++ {
			tb.EnsureScion(srcs[s%len(srcs)], objs[(s*stride)%objects])
		}
	}
	// A small rooted region at the head of the spine.
	if err := h.AddRoot(objs[0]); err != nil {
		panic(err)
	}
	return h, tb
}
