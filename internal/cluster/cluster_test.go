package cluster

import (
	"testing"

	"dgc/internal/ids"
	"dgc/internal/node"
	"dgc/internal/workload"
)

func materialize(t *testing.T, c *Cluster, topo *workload.Topology, cfg node.Config) map[string]ids.GlobalRef {
	t.Helper()
	refs, err := c.Materialize(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func TestMaterializeFigure3Shape(t *testing.T) {
	c := New(1, node.Config{})
	refs := materialize(t, c, workload.Figure3(), node.Config{})
	if len(refs) != 14 {
		t.Fatalf("objects = %d", len(refs))
	}
	if c.TotalObjects() != 14 {
		t.Fatalf("TotalObjects = %d", c.TotalObjects())
	}
	// Four inter-process references: four stubs, four scions.
	if c.TotalStubs() != 4 || c.TotalScions() != 4 {
		t.Fatalf("stubs=%d scions=%d", c.TotalStubs(), c.TotalScions())
	}
	if got := refs["F"].Node; got != "P2" {
		t.Fatalf("F on %s", got)
	}
}

func TestMaterializeRejectsInvalidTopology(t *testing.T) {
	c := New(1, node.Config{})
	bad := &workload.Topology{
		Name:    "bad",
		Objects: []workload.ObjSpec{{Name: "x", Node: "P1"}},
		Edges:   []workload.EdgeSpec{{From: "x", To: "nope"}},
	}
	if _, err := c.Materialize(bad, node.Config{}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestConnectLocalAndUnknown(t *testing.T) {
	c := New(1, node.Config{}, "P1")
	var a, b ids.ObjID
	c.Node("P1").With(func(m node.Mutator) {
		a, b = m.Alloc(nil), m.Alloc(nil)
	})
	if err := c.Connect("P1", a, "P1", b); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("P1", a, "P9", 1); err == nil {
		t.Fatal("connect to unknown node accepted")
	}
}

func TestAcyclicDistributedGarbageReclaimedWithoutDetector(t *testing.T) {
	// A garbage chain across 4 processes: pure reference listing reclaims
	// it; the cycle detector must not even be needed.
	c := New(1, node.Config{})
	materialize(t, c, workload.AcyclicChain(4), node.Config{})
	if c.TotalObjects() != 4 {
		t.Fatalf("TotalObjects = %d", c.TotalObjects())
	}
	rounds := c.CollectFully(10)
	if c.TotalObjects() != 0 || c.TotalScions() != 0 || c.TotalStubs() != 0 {
		t.Fatalf("leftovers after %d rounds: objs=%d scions=%d stubs=%d",
			rounds, c.TotalObjects(), c.TotalScions(), c.TotalStubs())
	}
	for _, n := range c.Nodes() {
		if n.Metrics().CyclesFound.Value() != 0 {
			t.Errorf("%s: detector fired on acyclic garbage", n.ID())
		}
	}
}

func TestFigure3EndToEnd(t *testing.T) {
	c := New(1, node.Config{})
	materialize(t, c, workload.Figure3(), node.Config{})
	rounds := c.CollectFully(12)
	if c.TotalObjects() != 0 {
		t.Fatalf("cycle not fully reclaimed after %d rounds: %d objects left", rounds, c.TotalObjects())
	}
	if c.TotalScions() != 0 || c.TotalStubs() != 0 {
		t.Fatalf("tables not empty: scions=%d stubs=%d", c.TotalScions(), c.TotalStubs())
	}
	var cycles uint64
	for _, n := range c.Nodes() {
		cycles += n.Metrics().CyclesFound.Value()
	}
	if cycles == 0 {
		t.Fatal("no cycle detection reported")
	}
}

func TestFigure4EndToEnd(t *testing.T) {
	c := New(1, node.Config{})
	materialize(t, c, workload.Figure4(), node.Config{})
	rounds := c.CollectFully(15)
	if c.TotalObjects() != 0 {
		t.Fatalf("mutual cycles not reclaimed after %d rounds: %d left", rounds, c.TotalObjects())
	}
}

func TestFigure1DependencyBlocksThenUnblocks(t *testing.T) {
	c := New(1, node.Config{})
	refs := materialize(t, c, workload.Figure1(), node.Config{})

	c.CollectFully(10)
	// W and the whole cycle must survive; only A (local garbage) dies.
	if got := c.TotalObjects(); got != 14 {
		t.Fatalf("objects = %d, want 14 (cycle+W alive, A dead)", got)
	}
	live := c.GlobalLive()
	if _, ok := live[refs["F"]]; !ok {
		t.Fatal("ground truth says F should be live")
	}

	// The external root dies.
	w := refs["W"]
	c.Node(w.Node).With(func(m node.Mutator) { m.Unroot(w.Obj) })
	rounds := c.CollectFully(12)
	if c.TotalObjects() != 0 {
		t.Fatalf("cycle not reclaimed after dependency death (%d rounds, %d left)",
			rounds, c.TotalObjects())
	}
}

func TestLiveRingNeverCollected(t *testing.T) {
	c := New(1, node.Config{})
	materialize(t, c, workload.LiveRing(4, 2), node.Config{})
	before := c.GlobalLive()
	if len(before) != 8 {
		t.Fatalf("ground truth live = %d, want all 8", len(before))
	}
	for i := 0; i < 8; i++ {
		c.GCRound()
	}
	if v := c.LiveViolations(before); len(v) != 0 {
		t.Fatalf("live objects reclaimed: %v", v)
	}
	if c.TotalObjects() != 8 {
		t.Fatalf("objects = %d", c.TotalObjects())
	}
}

func TestRingLengthsCollect(t *testing.T) {
	for _, procs := range []int{2, 3, 5, 8} {
		c := New(1, node.Config{})
		materialize(t, c, workload.Ring(procs, 2), node.Config{})
		rounds := c.CollectFully(procs*2 + 6)
		if c.TotalObjects() != 0 {
			t.Errorf("ring over %d procs not reclaimed (%d rounds, %d left)",
				procs, rounds, c.TotalObjects())
		}
	}
}

func TestGCRoundIdempotentOnEmptyCluster(t *testing.T) {
	c := New(1, node.Config{}, "P1", "P2")
	c.GCRound()
	c.GCRound()
	if c.TotalObjects() != 0 {
		t.Fatal("objects appeared from nowhere")
	}
}
