package experiments

import (
	"fmt"

	"dgc/internal/cluster"
	"dgc/internal/node"
	"dgc/internal/wire"
	"dgc/internal/workload"
)

// BatchRow is one cell of the candidate sweep: a full collection of one
// workload at one candidate count, reporting the transport-level CDM traffic
// next to the per-detection derivation count (one per detection per edge:
// what per-detection framing would have sent).
type BatchRow struct {
	Workload   string
	Candidates int
	CDMMsgs    uint64 // transport messages (CDM + BatchCDM)
	BatchCDMs  uint64
	Sections   uint64
	Derived    uint64 // detector derivations
	Rounds     int
	Collected  bool
}

// batchTopology builds the sweep workload for one family and candidate
// count. "ring" is the shared-trunk ring: cands cycles threaded through one
// ring of processes, every detection exiting the first process via the same
// reference. "webgraph" is a seeded web of overlapping cycles with the
// candidate count controlled by the cycle count.
func batchTopology(family string, cands, procs int) (*workload.Topology, error) {
	switch family {
	case "ring":
		return workload.SharedTrunk(cands, procs), nil
	case "webgraph":
		cycles := cands / 4
		if cycles < 1 {
			cycles = 1
		}
		return workload.WebGraph(int64(17+cands), procs, cycles, cycles), nil
	}
	return nil, fmt.Errorf("experiments: unknown batch workload %q", family)
}

// DetectBatchSweep collects every candidate count of the ring and webgraph
// families: detection traffic is sublinear in the candidate count when many
// candidates share outgoing references, and the dense webs collect only
// because cut branches return their partial views to the origin.
func DetectBatchSweep(candCounts []int, procs, maxRounds int) ([]BatchRow, error) {
	var rows []BatchRow
	for _, family := range []string{"ring", "webgraph"} {
		for _, cands := range candCounts {
			topo, err := batchTopology(family, cands, procs)
			if err != nil {
				return nil, err
			}
			c := cluster.New(1, node.Config{})
			if _, err := c.Materialize(topo, node.Config{}); err != nil {
				return nil, err
			}
			rounds, stalled, prev := 0, 0, -1
			for c.TotalObjects() > 0 && rounds < maxRounds && stalled < 5 {
				c.GCRound()
				rounds++
				if cur := c.TotalObjects() + c.TotalScions(); cur == prev {
					stalled++ // known-stalling cells exit early, honestly uncollected
				} else {
					stalled, prev = 0, cur
				}
			}
			row := BatchRow{
				Workload:   family,
				Candidates: cands,
				Rounds:     rounds,
				Collected:  c.TotalObjects() == 0,
			}
			sent, _, _ := c.Net.Counts()
			row.CDMMsgs = sent[wire.KindCDM] + sent[wire.KindBatchCDM]
			for _, s := range c.Stats() {
				row.BatchCDMs += s.BatchCDMsSent
				row.Sections += s.BatchSectionsSent
				row.Derived += s.Detector.CDMsSent
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
