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
	return measure(t, c, topo.Name, live, c.CollectFully(maxRounds)), want
}

// measure reads what survived a collection of rounds rounds, after checking
// that nothing in live was reclaimed.
func measure(t *testing.T, c *Cluster, name string, live map[ids.GlobalRef]struct{}, rounds int) (out outcome) {
	t.Helper()
	out.rounds = rounds
	if v := c.LiveViolations(live); len(v) != 0 {
		t.Fatalf("%s: SAFETY violation: reclaimed live %v", name, v)
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
	sent, _, _ := c.Net.Counts()
	out.msgs = sent[wire.KindCDM] + sent[wire.KindBatchCDM]
	for _, n := range c.Nodes() {
		met := n.Metrics()
		out.derived += met.CDMsSent.Value()
		out.batch += met.BatchCDMsSent.Value()
		out.sections += uint64(met.BatchSections.Sum())
		out.cycles += met.CyclesFound.Value()
	}
	return out
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

// peerFramingTap is a node's endpoint with the per-peer framing rule checked
// on it: one machine input sends at most one forward detection message (a
// CDM or a non-return BatchCDM) to each peer. A delivery's sends are the
// handler's result; a node's direct sends in one GCRound all come from its
// one RunDetection (RunLGC sends stub sets only), so they are checked per
// round.
type peerFramingTap struct {
	*transport.InprocEndpoint
	t      *testing.T
	direct map[ids.NodeID]int
}

func isForward(msg wire.Message) bool {
	switch msg := msg.(type) {
	case *wire.CDM:
		return true
	case *wire.BatchCDM:
		return !msg.Return
	}
	return false
}

func (p *peerFramingTap) SendAll(outs []transport.Envelope) {
	for _, o := range outs {
		if isForward(o.Msg) {
			p.direct[o.To]++
		}
	}
	p.InprocEndpoint.SendAll(outs)
}

func (p *peerFramingTap) SetHandler(h transport.Handler) {
	p.InprocEndpoint.SetHandler(func(from ids.NodeID, msg wire.Message) []transport.Envelope {
		outs := h(from, msg)
		perPeer := make(map[ids.NodeID]int)
		for _, o := range outs {
			if isForward(o.Msg) {
				perPeer[o.To]++
			}
		}
		p.check(fmt.Sprintf("%s delivery", msg.Kind()), perPeer)
		return outs
	})
}

func (p *peerFramingTap) check(input string, perPeer map[ids.NodeID]int) {
	for to, n := range perPeer {
		if n > 1 {
			p.t.Errorf("%s: %s sent %d detection messages to %s in one input", input, p.Self(), n, to)
		}
	}
}

// disjointRings places k garbage rings on procs nodes, one object of each
// ring per node: every ring is its own cycle, and no two share a reference.
func disjointRings(k, procs int) *workload.Topology {
	topo := &workload.Topology{Name: fmt.Sprintf("rings-%dx%d", k, procs)}
	name := func(ring, p int) string { return fmt.Sprintf("r%d.p%d", ring, p) }
	for r := 0; r < k; r++ {
		for p := 0; p < procs; p++ {
			topo.Objects = append(topo.Objects, workload.ObjSpec{Name: name(r, p), Node: ids.NodeID(fmt.Sprintf("P%d", p+1))})
			topo.Edges = append(topo.Edges, workload.EdgeSpec{From: name(r, p), To: name(r, (p+1)%procs)})
		}
	}
	return topo
}

// TestDisjointRingsOneMessagePerPeer: K disjoint rings on three nodes share
// no outgoing reference, so per-edge framing would send one message per
// detection per hop. Framed per destination node, every input sends at most
// one detection message to each peer, the run sends fewer transport
// messages than detection sections, and it still collects exactly the
// garbage.
func TestDisjointRingsOneMessagePerPeer(t *testing.T) {
	const k, procs = 16, 3
	c := New(1, node.Config{})
	var taps []*peerFramingTap
	for p := 0; p < procs; p++ {
		id := ids.NodeID(fmt.Sprintf("P%d", p+1))
		c.Add(id, node.Config{})
		tap := &peerFramingTap{InprocEndpoint: c.Net.Endpoint(id), t: t, direct: make(map[ids.NodeID]int)}
		c.Replace(id, node.New(id, tap, node.Config{}))
		taps = append(taps, tap)
	}
	topo := disjointRings(k, procs)
	if _, err := c.Materialize(topo, node.Config{}); err != nil {
		t.Fatal(err)
	}
	live, want := groundTruth(c)
	rounds, direct := 0, 0
	for prev := -1; rounds < 20; rounds++ {
		cur := c.TotalObjects() + c.TotalScions()
		if cur == prev {
			break
		}
		prev = cur
		c.GCRound()
		for _, tap := range taps {
			for _, n := range tap.direct {
				direct += n
			}
			tap.check(fmt.Sprintf("round %d detection", rounds+1), tap.direct)
			clear(tap.direct)
		}
	}
	if direct == 0 {
		t.Fatal("the taps saw no direct detection sends: they are off the send path")
	}
	out := measure(t, c, topo.Name, live, rounds)
	for i, got := range out.perNode {
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("node %s survivors\n got %+v\nwant %+v", got.ID, got, want[i])
		}
	}
	if out.cycles == 0 {
		t.Fatal("found no cycles")
	}
	// Per-edge framing sends one message per detection section here: no two
	// sections share an edge.
	if out.msgs >= out.derived {
		t.Fatalf("%d detection messages for %d sections: no better than per-edge framing", out.msgs, out.derived)
	}
	t.Logf("%d rounds, %d detection messages for %d sections (batches=%d)", out.rounds, out.msgs, out.derived, out.batch)
}
