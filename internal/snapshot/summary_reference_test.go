package snapshot

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dgc/internal/core"
	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/refs"
	"dgc/internal/workload"
)

// summarizeReference is the original per-scion BFS summarizer, kept as the
// executable specification the single-pass engine is checked against. It
// builds keyed records and sorts them into the summary's canonical slices at
// the end. Cost is O(scions x heap) worst case.
func summarizeReference(h *heap.Heap, table *refs.Table, version uint64) *core.Summary {
	scions := make(map[ids.RefID]*core.ScionSummary)
	stubs := make(map[ids.GlobalRef]*core.StubSummary)

	// Local.Reach: objects reachable from real local roots.
	fromRoots := h.ReachableFromRoots()

	// Initialize stub summaries from the stub table.
	for _, st := range table.Stubs() {
		localReach := false
		for holder := range h.HoldersOf(st.Target) {
			if _, ok := fromRoots[holder]; ok {
				localReach = true
				break
			}
		}
		stubs[st.Target] = &core.StubSummary{
			Target:     st.Target,
			IC:         st.IC,
			LocalReach: localReach,
		}
	}

	// Per-scion reachability: which stubs does each scion lead to?
	self := h.Node()
	for _, sc := range table.Scions() {
		ref := sc.RefID(self)
		reach := h.ReachableFrom(sc.Obj)
		stubTargets := h.RemoteRefsFrom(reach)
		kept := stubTargets[:0]
		for _, tgt := range stubTargets {
			if _, ok := stubs[tgt]; ok {
				kept = append(kept, tgt)
			}
		}
		_, localReach := fromRoots[sc.Obj]
		scions[ref] = &core.ScionSummary{
			Ref:        ref,
			IC:         sc.IC,
			Active:     sc.Active,
			StubsFrom:  append([]ids.GlobalRef(nil), kept...),
			LocalReach: localReach,
		}
		// Invert into ScionsTo.
		for _, tgt := range kept {
			ss := stubs[tgt]
			ss.ScionsTo = append(ss.ScionsTo, ref)
		}
	}

	// Canonical order for ScionsTo lists and for both record lists.
	sum := &core.Summary{Node: self, Version: version}
	for _, ss := range stubs {
		ids.SortRefIDs(ss.ScionsTo)
		sum.Stubs = append(sum.Stubs, *ss)
	}
	for _, sc := range scions {
		sum.Scions = append(sum.Scions, *sc)
	}
	sort.Slice(sum.Stubs, func(i, j int) bool { return sum.Stubs[i].Target.Less(sum.Stubs[j].Target) })
	sort.Slice(sum.Scions, func(i, j int) bool { return sum.Scions[i].Ref.Less(sum.Scions[j].Ref) })
	return sum
}

// diffSummaries reports the first difference between two summaries, down to
// nil-versus-empty slices: the engines must agree byte for byte once encoded,
// so the in-memory structures must be indistinguishable too.
func diffSummaries(got, want *core.Summary) string {
	if got.Node != want.Node || got.Version != want.Version {
		return fmt.Sprintf("header: got (%s,%d) want (%s,%d)", got.Node, got.Version, want.Node, want.Version)
	}
	if len(got.Scions) != len(want.Scions) {
		return fmt.Sprintf("scion count: got %d want %d", len(got.Scions), len(want.Scions))
	}
	for i, w := range want.Scions {
		if g := got.Scions[i]; !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("scion %d: got %+v want %+v", i, g, w)
		}
	}
	if len(got.Stubs) != len(want.Stubs) {
		return fmt.Sprintf("stub count: got %d want %d", len(got.Stubs), len(want.Stubs))
	}
	for i, w := range want.Stubs {
		if g := got.Stubs[i]; !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("stub %d: got %+v want %+v", i, g, w)
		}
	}
	return ""
}

// TestSummarizeMatchesReferenceRandomProcess checks the single-pass engine
// against the per-scion BFS reference on the single-process random corpus.
func TestSummarizeMatchesReferenceRandomProcess(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		h, tb := randomProcess(seed)
		got := Summarize(h, tb, uint64(seed)+1)
		want := summarizeReference(h, tb, uint64(seed)+1)
		if d := diffSummaries(got, want); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// materialize builds per-node heaps and reference tables directly from a
// workload topology: a cross-process edge becomes a remote reference plus a
// stub on the holder and a scion on the owner, exactly as the cluster
// harness would install them.
func materialize(t *testing.T, topo *workload.Topology) (map[ids.NodeID]*heap.Heap, map[ids.NodeID]*refs.Table) {
	t.Helper()
	if err := topo.Validate(); err != nil {
		t.Fatalf("topology %s: %v", topo.Name, err)
	}
	heaps := make(map[ids.NodeID]*heap.Heap)
	tables := make(map[ids.NodeID]*refs.Table)
	for _, n := range topo.Nodes() {
		heaps[n] = heap.New(n)
		tables[n] = refs.NewTable(n)
	}
	place := make(map[string]ids.GlobalRef, len(topo.Objects))
	for _, o := range topo.Objects {
		id := heaps[o.Node].Alloc(nil).ID
		place[o.Name] = ids.GlobalRef{Node: o.Node, Obj: id}
		if o.Rooted {
			if err := heaps[o.Node].AddRoot(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range topo.Edges {
		from, to := place[e.From], place[e.To]
		if from.Node == to.Node {
			if err := heaps[from.Node].AddLocalRef(from.Obj, to.Obj); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := heaps[from.Node].AddRemoteRef(from.Obj, to); err != nil {
			t.Fatal(err)
		}
		tables[from.Node].EnsureStub(to)
		tables[to.Node].EnsureScion(from.Node, to.Obj, 0)
	}
	return heaps, tables
}

// TestSummarizeMatchesReferenceWorkloads checks engine-versus-reference
// equivalence on every node of randomized multi-process workload topologies
// and the paper's figure presets.
func TestSummarizeMatchesReferenceWorkloads(t *testing.T) {
	topos := []*workload.Topology{
		workload.Ring(4, 3),
		workload.LiveRing(5, 2),
		workload.Figure1(),
		workload.Figure3(),
		workload.Figure4(),
		workload.AcyclicChain(6),
	}
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 60; seed++ {
		topos = append(topos, workload.RandomGraph(seed, workload.RandomConfig{
			Procs:       2 + rng.Intn(5),
			ObjsPerProc: 1 + rng.Intn(40),
			OutDegree:   rng.Float64() * 4,
			RemoteFrac:  rng.Float64(),
			RootFrac:    rng.Float64() * 0.5,
		}))
	}
	for _, topo := range topos {
		heaps, tables := materialize(t, topo)
		nodes := make([]ids.NodeID, 0, len(heaps))
		for n := range heaps {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, n := range nodes {
			got := Summarize(heaps[n], tables[n], 1)
			want := summarizeReference(heaps[n], tables[n], 1)
			if d := diffSummaries(got, want); d != "" {
				t.Fatalf("topology %s node %s: %s", topo.Name, n, d)
			}
		}
	}
}

// TestSummarizeMatchesReferenceAfterMutation re-checks equivalence after
// structural churn (deletions, root flips, extra edges) on the same heap, so
// the engines stay in lockstep on graphs with dangling references.
func TestSummarizeMatchesReferenceAfterMutation(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		h, tb := randomProcess(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		all := h.IDs()
		for _, id := range all {
			switch rng.Intn(5) {
			case 0:
				h.Delete(id) // leaves dangling local/remote refs behind
			case 1:
				_ = h.AddRoot(id)
			case 2:
				h.RemoveRoot(id)
			}
		}
		got := Summarize(h, tb, 2)
		want := summarizeReference(h, tb, 2)
		if d := diffSummaries(got, want); d != "" {
			t.Fatalf("seed %d after mutation: %s", seed, d)
		}
	}
}
