package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dgc/internal/ids"
	"dgc/internal/node"
	"dgc/internal/transport"
	"dgc/internal/wire"
	"dgc/internal/workload"
)

// outcome is the observable result of collecting one topology: what
// survived, per node in canonical order, and the cluster-wide traffic
// counters.
type outcome struct {
	rounds   int
	perNode  []nodeSurvivors
	msgs     uint64 // transport-level CDM+BatchCDM messages
	derived  uint64 // detector derivations: one per detection per edge
	batch    uint64 // BatchCDM messages
	sections uint64 // sections carried by those BatchCDMs
	cycles   uint64 // detections that proved a cycle, cluster-wide
}

// nodeSurvivors is one node's post-collection state: objects by id, scions
// and stubs by the reference they stand for.
type nodeSurvivors struct {
	ID                     ids.NodeID
	Objects, Scions, Stubs []string
}

// groundTruth is what an omniscient collector would leave behind: per node,
// the globally reachable objects, and a scion (at the target's node) and a
// stub (at the holder's node) for exactly the cross-node references held by
// those objects. Computed from the heaps alone, before any collection.
func groundTruth(c *Cluster) (map[ids.GlobalRef]struct{}, []nodeSurvivors) {
	live := c.GlobalLive()
	want := make([]nodeSurvivors, len(c.Nodes()))
	byNode := make(map[ids.NodeID]*nodeSurvivors, len(want))
	for i, n := range c.Nodes() {
		want[i].ID = n.ID()
		byNode[n.ID()] = &want[i]
	}
	scions, stubs := make(map[string]ids.NodeID), make(map[string]ids.NodeID)
	for _, n := range c.Nodes() {
		h := n.CloneHeap()
		for _, obj := range h.IDs() {
			if _, ok := live[ids.GlobalRef{Node: n.ID(), Obj: obj}]; !ok {
				continue
			}
			byNode[n.ID()].Objects = append(byNode[n.ID()].Objects, fmt.Sprint(obj))
			for _, r := range h.Get(obj).Remotes {
				ref := ids.RefID{Src: n.ID(), Dst: r}.String()
				scions[ref], stubs[ref] = r.Node, n.ID()
			}
		}
	}
	for ref, at := range scions {
		byNode[at].Scions = append(byNode[at].Scions, ref)
	}
	for ref, at := range stubs {
		byNode[at].Stubs = append(byNode[at].Stubs, ref)
	}
	for i := range want {
		sortSurvivors(&want[i])
	}
	return live, want
}

func sortSurvivors(s *nodeSurvivors) {
	sort.Strings(s.Objects)
	sort.Strings(s.Scions)
	sort.Strings(s.Stubs)
}

// collect collects topo fully and returns what survived, next to the ground
// truth computed before the first round.
func collect(t *testing.T, seed int64, topo *workload.Topology, maxRounds int) (out outcome, want []nodeSurvivors) {
	t.Helper()
	c := New(seed, node.Config{})
	if _, err := c.Materialize(topo, node.Config{}); err != nil {
		t.Fatal(err)
	}
	live, want := groundTruth(c)
	out.rounds = c.CollectFully(maxRounds)
	if v := c.LiveViolations(live); len(v) != 0 {
		t.Fatalf("%s: SAFETY violation: reclaimed live %v", topo.Name, v)
	}
	for _, n := range c.Nodes() {
		got := nodeSurvivors{ID: n.ID()}
		for _, obj := range n.CloneHeap().IDs() {
			got.Objects = append(got.Objects, fmt.Sprint(obj))
		}
		dump := n.TableDump()
		for _, sc := range dump.Scions {
			got.Scions = append(got.Scions, sc.Ref)
		}
		for _, st := range dump.Stubs {
			got.Stubs = append(got.Stubs, st.Ref)
		}
		sortSurvivors(&got)
		out.perNode = append(out.perNode, got)
	}
	for _, s := range c.Stats() {
		out.msgs += s.CDMMsgsSent
		out.derived += s.Detector.CDMsSent
		out.batch += s.BatchCDMsSent
		out.sections += s.BatchSectionsSent
		out.cycles += s.Detector.CyclesFound
	}
	return out, want
}

// TestDetectionCollectsExactlyGarbage is the detector's property test,
// judged against ground truth: on seeded ring, shared-trunk, web and random
// graphs, what survives full collection is exactly what an omniscient
// collector would keep — per node, the globally reachable objects and the
// scions and stubs backing a live cross-node reference, nothing more
// (completeness) and nothing less (safety). The last two webs are dense
// overlapping-cycle graphs — the second is dgc-bench -exp batch's
// webgraph-64 — on which branches are cut for carrying no new information
// while the closure is still split across them: they collect only because
// the cut branches return their partial views to the origin, which merges
// them.
func TestDetectionCollectsExactlyGarbage(t *testing.T) {
	topos := []*workload.Topology{
		workload.Ring(5, 2),
		workload.SharedTrunk(8, 4),
		workload.WebGraph(11, 4, 3, 4),
		workload.WebGraph(13, 5, 4, 6),
		workload.WebGraph(17, 5, 4, 6),
		workload.WebGraph(11, 5, 6, 8),
		workload.WebGraph(81, 6, 16, 16),
	}
	for _, seed := range []int64{101, 102, 104, 105, 106, 108} {
		topos = append(topos, workload.RandomGraph(seed, workload.RandomConfig{
			Procs: 4, ObjsPerProc: 8, OutDegree: 2.0, RemoteFrac: 0.5, RootFrac: 0.1,
		}))
	}
	for _, topo := range topos {
		topo := topo
		t.Run(topo.Name, func(t *testing.T) {
			t.Parallel()
			out, want := collect(t, 42, topo, 120)
			for i, got := range out.perNode {
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("node %s survivors\n got %+v\nwant %+v", got.ID, got, want[i])
				}
			}
		})
	}
}

// TestSharedTrunkBatchingReducesMessages is the traffic claim behind
// per-edge batching: K cycles exiting the first process via the same
// reference must cost fewer transport messages than the one message per
// detection per edge that per-detection framing would send (the run's own
// Detector.CDMsSent), and the run must actually ship multi-section
// BatchCDMs.
func TestSharedTrunkBatchingReducesMessages(t *testing.T) {
	out, _ := collect(t, 7, workload.SharedTrunk(16, 4), 40)
	if out.cycles == 0 {
		t.Fatal("found no cycles")
	}
	if out.batch == 0 {
		t.Fatal("no BatchCDMs sent on a shared-trunk workload")
	}
	if out.sections <= out.batch {
		t.Fatalf("batches carry no extra sections (%d sections / %d batches)", out.sections, out.batch)
	}
	if out.msgs >= out.derived {
		t.Fatalf("%d CDM messages for %d per-detection derivations", out.msgs, out.derived)
	}
	t.Logf("msgs %d vs %d derivations (batches=%d sections=%d)",
		out.msgs, out.derived, out.batch, out.sections)
}

// TestBatchedDetectionLossTolerance: BatchCDM loss must degrade batched
// detection into retries, never into unsafety or permanent leaks.
func TestBatchedDetectionLossTolerance(t *testing.T) {
	c := New(54321, node.Config{})
	if _, err := c.Materialize(workload.SharedTrunk(6, 3), node.Config{}); err != nil {
		t.Fatal(err)
	}
	c.Net.SetFaults(transport.Faults{LossRate: 0.3, Affects: wire.CollectorKinds()})
	for round := 0; round < 80; round++ {
		c.GCRound()
		if c.TotalObjects() == 0 {
			return
		}
	}
	t.Fatalf("shared trunk not reclaimed under 30%% loss: %d objects left", c.TotalObjects())
}
