package experiments

import (
	"testing"

	"dgc/internal/wire"
)

// TestWebGraph256Residue pins what the batch sweep's densest web leaves
// (PROPERTIES.md, Known holes: webgraph-256 stalls). WebGraph(273,6,64,64)
// is all garbage, 427 objects, yet 5 rounds in a row change nothing after
// round 11 and 281 objects, 265 scions and 265 stubs survive. The residue is
// asserted exactly, in both directions: the change that cracks the stall
// (ROADMAP item 8(ii)) flips this test to an empty cluster, and any other
// change that moves it must explain why. The cell takes seconds without the
// race detector and many times that with it, so it runs without; CI runs
// it in its own step.
func TestWebGraph256Residue(t *testing.T) {
	if raceEnabled {
		t.Skip("a 16-round, 255k-message simulation; run without -race")
	}
	topo, err := batchTopology("webgraph", 256, 6)
	if err != nil {
		t.Fatal(err)
	}
	c, rounds, err := sweepCell(topo, 200)
	if err != nil {
		t.Fatal(err)
	}
	sent, _, _ := c.Net.Counts()
	t.Logf("%d rounds, %d detection messages", rounds, sent[wire.KindCDM]+sent[wire.KindBatchCDM])
	type residue struct{ objects, scions, stubs, rounds int }
	got := residue{c.TotalObjects(), c.TotalScions(), c.TotalStubs(), rounds}
	if want := (residue{281, 265, 265, 16}); got != want {
		t.Fatalf("webgraph-256 left %d objects, %d scions, %d stubs after %d rounds; pinned %d, %d, %d after %d",
			got.objects, got.scions, got.stubs, got.rounds, want.objects, want.scions, want.stubs, want.rounds)
	}
}
