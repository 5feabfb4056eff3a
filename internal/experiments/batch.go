package experiments

import (
	"fmt"
	"time"

	"dgc/internal/cluster"
	"dgc/internal/node"
	"dgc/internal/workload"
)

// BatchRow is one cell of the batched-detection sweep: a full collection of
// one workload at one candidate count under one detection mode, reporting
// the transport-level CDM traffic (the number batching reduces) next to the
// per-detection derivation count (which batching must NOT change much — the
// same protocol work happens, repackaged).
type BatchRow struct {
	Workload   string        `json:"workload"`
	Candidates int           `json:"candidates"`
	Mode       string        `json:"mode"`
	CDMMsgs    uint64        `json:"cdm_msgs_sent"` // transport messages (CDM + BatchCDM)
	BatchCDMs  uint64        `json:"batch_cdms"`
	Sections   uint64        `json:"batch_sections"`
	Derived    uint64        `json:"cdms_derived"` // detector derivations
	Rounds     int           `json:"rounds"`
	Wall       time.Duration `json:"wall_ns"`
	Collected  bool          `json:"collected"`
}

// BatchModes are the detection modes the sweep compares.
var BatchModes = []string{"unbatched", "batched", "batched+agg"}

func batchModeConfig(mode string) node.Config {
	var cfg node.Config
	switch mode {
	case "batched":
		cfg.BatchDetection = node.Bool(true)
	case "batched+agg":
		cfg.BatchDetection = node.Bool(true)
		cfg.AggregateDetection = true
	default:
		cfg.BatchDetection = node.Bool(false)
	}
	return cfg
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

// DetectBatchSweep runs the candidate-count × mode matrix over the ring and
// webgraph families: the measurement behind the claim that batching makes
// detection traffic sublinear in the candidate count when many candidates
// share outgoing references.
func DetectBatchSweep(candCounts []int, procs, maxRounds int) ([]BatchRow, error) {
	var rows []BatchRow
	for _, family := range []string{"ring", "webgraph"} {
		for _, cands := range candCounts {
			topo, err := batchTopology(family, cands, procs)
			if err != nil {
				return nil, err
			}
			for _, mode := range BatchModes {
				cfg := batchModeConfig(mode)
				c := cluster.New(1, cfg)
				if _, err := c.Materialize(topo, cfg); err != nil {
					return nil, err
				}
				start := time.Now()
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
					Mode:       mode,
					Rounds:     rounds,
					Wall:       time.Since(start),
					Collected:  c.TotalObjects() == 0,
				}
				for _, s := range c.Stats() {
					row.CDMMsgs += s.CDMMsgsSent
					row.BatchCDMs += s.BatchCDMsSent
					row.Sections += s.BatchSectionsSent
					row.Derived += s.Detector.CDMsSent
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}
