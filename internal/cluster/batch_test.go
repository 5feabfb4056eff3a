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

// modeConfig returns the node configuration for one detection mode: the
// detector ("batched") or the detector with hierarchical aggregation.
func modeConfig(mode string) node.Config {
	return node.Config{AggregateDetection: mode == "aggregate"}
}

// modeOutcome is the observable result of collecting one topology under one
// detection mode: what survived, per node in canonical order, and the
// cluster-wide traffic counters.
type modeOutcome struct {
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

// runMode collects topo under one detection mode and returns what survived,
// next to the ground truth computed before the first round.
func runMode(t *testing.T, seed int64, topo *workload.Topology, mode string, maxRounds int) (out modeOutcome, want []nodeSurvivors) {
	t.Helper()
	cfg := modeConfig(mode)
	c := New(seed, cfg)
	if _, err := c.Materialize(topo, cfg); err != nil {
		t.Fatal(err)
	}
	live, want := groundTruth(c)
	out.rounds = c.CollectFully(maxRounds)
	if v := c.LiveViolations(live); len(v) != 0 {
		t.Fatalf("%s/%s: SAFETY violation: reclaimed live %v", topo.Name, mode, v)
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
// graphs, with aggregation off and on, what survives full collection is
// exactly what an omniscient collector would keep — per node, the globally
// reachable objects and the scions and stubs backing a live cross-node
// reference, nothing more (completeness) and nothing less (safety).
func TestDetectionCollectsExactlyGarbage(t *testing.T) {
	topos := []*workload.Topology{
		workload.Ring(5, 2),
		workload.SharedTrunk(8, 4),
		workload.WebGraph(11, 4, 3, 4),
		workload.WebGraph(13, 5, 4, 6),
		workload.WebGraph(17, 5, 4, 6),
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
			for _, mode := range []string{"batched", "aggregate"} {
				out, want := runMode(t, 42, topo, mode, 120)
				for i, got := range out.perNode {
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s: node %s survivors\n got %+v\nwant %+v", mode, got.ID, got, want[i])
					}
				}
			}
		})
	}
}

// TestAggregationCollectsDenseWeb: on a dense overlapping-cycle web where
// per-node expansion stalls (without aggregation the detector leaves objects
// behind on this graph), hierarchical aggregation must still fully collect —
// the origin merges the partial fragments every branch returns and
// re-launches only the unresolved residue — and must never reclaim a live
// object doing so (checked inside runMode).
func TestAggregationCollectsDenseWeb(t *testing.T) {
	topo := workload.WebGraph(11, 5, 6, 8)
	out, want := runMode(t, 42, topo, "aggregate", 120)
	if got, live := sumObjects(out.perNode), sumObjects(want); got != live {
		t.Errorf("aggregate: %d objects remain, want %d live", got, live)
	}
	if out.msgs == 0 {
		t.Error("no detection traffic recorded")
	}
}

func sumObjects(perNode []nodeSurvivors) int {
	n := 0
	for _, s := range perNode {
		n += len(s.Objects)
	}
	return n
}

// TestSharedTrunkBatchingReducesMessages is the traffic claim behind
// per-edge batching: K cycles exiting the first process via the same
// reference must cost fewer transport messages than the one message per
// detection per edge that per-detection framing would send (the run's own
// Detector.CDMsSent), and the run must actually ship multi-section
// BatchCDMs.
func TestSharedTrunkBatchingReducesMessages(t *testing.T) {
	topo := workload.SharedTrunk(16, 4)
	for _, mode := range []string{"batched", "aggregate"} {
		out, _ := runMode(t, 7, topo, mode, 40)
		if out.cycles == 0 {
			t.Fatalf("%s: found no cycles", mode)
		}
		if out.batch == 0 {
			t.Fatalf("%s: no BatchCDMs sent on a shared-trunk workload", mode)
		}
		if out.sections <= out.batch {
			t.Fatalf("%s: batches carry no extra sections (%d sections / %d batches)",
				mode, out.sections, out.batch)
		}
		if out.msgs >= out.derived {
			t.Fatalf("%s: %d CDM messages for %d per-detection derivations", mode, out.msgs, out.derived)
		}
		t.Logf("%s: msgs %d vs %d derivations (batches=%d sections=%d)",
			mode, out.msgs, out.derived, out.batch, out.sections)
	}
}

// TestBatchedDetectionLossTolerance: BatchCDM loss must degrade batched
// detection into retries, never into unsafety or permanent leaks.
func TestBatchedDetectionLossTolerance(t *testing.T) {
	cfg := modeConfig("batched")
	c := New(54321, cfg)
	if _, err := c.Materialize(workload.SharedTrunk(6, 3), cfg); err != nil {
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
