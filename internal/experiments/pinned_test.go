package experiments

import (
	"fmt"
	"testing"

	"dgc/internal/workload"
)

// TestDeterministicRowsArePinned pins every non-timing column the
// deterministic experiments print, for the parameters cmd/dgc-bench passes
// (full and -quick) and the figure topologies. A change to a driver that is
// meant to be behaviour-preserving must leave these bytes alone.
func TestDeterministicRowsArePinned(t *testing.T) {
	pin := func(t *testing.T, name string, got any, want string) {
		t.Helper()
		if s := fmt.Sprint(got); s != want {
			t.Errorf("%s:\n got %s\nwant %s", name, s, want)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	t.Run("lease", func(t *testing.T) {
		rows, err := LeaseAblation([]uint64{1, 2, 4, 8, 16}, 4)
		must(err)
		pin(t, "lease=4", rows, "[{1 4 false false 9} {2 4 false false 10} {4 4 false false 12} {8 4 true false 16} {16 4 true false 24}]")
		rows, err = LeaseAblation([]uint64{1, 3, 8}, 3)
		must(err)
		pin(t, "lease=3", rows, "[{1 3 false false 8} {3 3 false false 10} {8 3 true false 15}]")
	})

	t.Run("compare", func(t *testing.T) {
		for _, c := range []struct {
			topo      *workload.Topology
			maxRounds int
			want      string
		}{
			{workload.Figure3(), 60, "[{dcda figure3 20 2 true} {hughes figure3 120 10 true} {backtrace figure3 20 1 true}]"},
			{workload.Figure4(), 60, "[{dcda figure4 62 3 true} {hughes figure4 285 15 true} {backtrace figure4 41 1 true}]"},
			{workload.Ring(8, 2), 60, "[{dcda ring-8x2 72 2 true} {hughes ring-8x2 432 18 true} {backtrace ring-8x2 38 1 true}]"},
			// Hughes's lag allowance extends the cap past maxRounds.
			{workload.Figure4(), 5, "[{dcda figure4 62 3 true} {hughes figure4 285 15 true} {backtrace figure4 41 1 true}]"},
			{workload.Ring(8, 2), 1, "[{dcda ring-8x2 64 1 false} {hughes ring-8x2 432 18 true} {backtrace ring-8x2 38 1 true}]"},
		} {
			rows, err := CompareCollectors(c.topo, c.maxRounds)
			must(err)
			pin(t, fmt.Sprintf("%s/%d", c.topo.Name, c.maxRounds), rows, c.want)
		}
	})

	t.Run("quiescent", func(t *testing.T) {
		for _, c := range []struct {
			topo   *workload.Topology
			rounds int
			want   string
		}{
			{workload.Figure3(), 20, "[{dcda figure3 92 20 true} {hughes figure3 200 20 true} {backtrace figure3 20 20 true}]"},
			{workload.Figure4(), 20, "[{dcda figure4 181 20 true} {hughes figure4 345 20 true} {backtrace figure4 41 20 true}]"},
			{workload.Ring(8, 2), 20, "[{dcda ring-8x2 216 20 true} {hughes ring-8x2 464 20 true} {backtrace ring-8x2 38 20 true}]"},
		} {
			rows, err := QuiescentCost(c.topo, c.rounds)
			must(err)
			pin(t, c.topo.Name, rows, c.want)
		}
		// The live ring dgc-bench -exp quiescent measures: nothing is
		// collected there, so only the message counts are pinned.
		for _, c := range []struct {
			rounds int
			want   string
		}{
			{20, "[dcda 420 20 hughes 465 20 backtrace 720 20]"},
			{8, "[dcda 168 8 hughes 177 8 backtrace 288 8]"},
		} {
			rows, err := QuiescentCost(workload.LiveRing(6, 3), c.rounds)
			must(err)
			var got []any
			for _, r := range rows {
				got = append(got, r.Collector, r.Messages, r.Rounds)
			}
			pin(t, fmt.Sprintf("live-ring/%d", c.rounds), got, c.want)
		}
	})

	t.Run("scale", func(t *testing.T) {
		rows, err := DetectionScale([]int{2, 4, 8}, 2)
		must(err)
		for i := range rows {
			rows[i].Wall = 0
		}
		pin(t, "ring x2", rows, "[{2 2 2 117 2 0s} {4 2 12 727 2 0s} {8 2 56 4493 2 0s}]")
	})

	t.Run("loss", func(t *testing.T) {
		rows, err := LossSweep([]float64{0, 0.1, 0.3, 0.5}, 4, 400)
		must(err)
		pin(t, "full", rows, "[{0 2 true} {0.1 3 true} {0.3 7 true} {0.5 7 true}]")
		rows, err = LossSweep([]float64{0, 0.3}, 3, 200)
		must(err)
		pin(t, "quick", rows, "[{0 2 true} {0.3 5 true}]")
	})

	t.Run("race", func(t *testing.T) {
		rows, err := RaceAbortRate([]int{0, 1, 2}, 8)
		must(err)
		pin(t, "full", rows, "[{0 8 0 0 0} {1 8 8 0 0} {2 8 8 0 0}]")
		rows, err = RaceAbortRate([]int{0, 1}, 5)
		must(err)
		pin(t, "quick", rows, "[{0 5 0 0 0} {1 5 5 0 0}]")
	})
}
