package experiments

import (
	"fmt"
	"runtime"
	"time"

	"dgc/internal/cluster"
	"dgc/internal/node"
	"dgc/internal/workload"
)

// DetectRow is one cell of the detection-round scaling measurement: a full
// DCDA collection of a `procs`-process garbage ring, the workload whose cost
// is dominated by CDM derivation (algebra clone/merge/match) and CDM
// encoding.
type DetectRow struct {
	Procs    int
	Wall     time.Duration
	CDMsSent uint64
	Allocs   uint64
	Rounds   int
}

// DetectRoundScale measures full ring collections across process counts.
// Each cell reports the best wall time of reps runs and the allocation count
// of that run (runtime.Mallocs delta, single-threaded schedule).
func DetectRoundScale(procSizes []int, reps int) ([]DetectRow, error) {
	if reps < 1 {
		reps = 1
	}
	rows := make([]DetectRow, 0, len(procSizes))
	for _, procs := range procSizes {
		var best DetectRow
		for r := 0; r < reps; r++ {
			cfg := node.Config{}
			c := cluster.New(1, cfg)
			if _, err := c.Materialize(workload.Ring(procs, 2), cfg); err != nil {
				return nil, err
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			rounds := 0
			for c.TotalObjects() > 0 && rounds < procs*3+10 {
				c.GCRound()
				rounds++
			}
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			if c.TotalObjects() != 0 {
				return nil, fmt.Errorf("experiments: ring %d not collected", procs)
			}
			var cdms uint64
			for _, s := range c.Stats() {
				cdms += s.Detector.CDMsSent
			}
			row := DetectRow{
				Procs:    procs,
				Wall:     wall,
				CDMsSent: cdms,
				Allocs:   after.Mallocs - before.Mallocs,
				Rounds:   rounds,
			}
			if best.Wall == 0 || wall < best.Wall {
				best = row
			}
		}
		rows = append(rows, best)
	}
	return rows, nil
}
