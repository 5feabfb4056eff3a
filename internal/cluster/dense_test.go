package cluster

import (
	"testing"

	"dgc/internal/node"
	"dgc/internal/workload"
)

// TestDenseSCCTrafficBounded is the performance regression guard for the
// CDM accumulator: a dense 48-object garbage SCC across 4 processes must be
// fully reclaimed with a polynomial number of CDMs. Without per-detection
// accumulation this topology generated over a million CDMs (per-path
// partial closures defeat naive deduplication); with it, a few thousand.
func TestDenseSCCTrafficBounded(t *testing.T) {
	cfg := node.Config{}
	c := New(2026, cfg)
	topo := workload.RandomGraph(7, workload.RandomConfig{
		Procs: 4, ObjsPerProc: 12, OutDegree: 2.0, RemoteFrac: 0.55, RootFrac: 0,
	})
	if _, err := c.Materialize(topo, cfg); err != nil {
		t.Fatal(err)
	}
	total := c.TotalObjects()

	rounds := 0
	for c.TotalObjects() > 0 && rounds < 20 {
		c.GCRound()
		rounds++
	}
	if c.TotalObjects() != 0 {
		t.Fatalf("dense SCC not reclaimed: %d of %d objects left after %d rounds",
			c.TotalObjects(), total, rounds)
	}
	var cdms uint64
	for _, n := range c.Nodes() {
		cdms += n.Metrics().CDMsSent.Value()
	}
	// Generous bound: well below the per-path explosion regime.
	if cdms > 100_000 {
		t.Fatalf("CDM traffic regressed: %d messages for a %d-object SCC", cdms, total)
	}
}
