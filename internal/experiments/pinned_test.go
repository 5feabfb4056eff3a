package experiments

import (
	"fmt"
	"testing"
)

// TestDeterministicRowsArePinned pins every non-timing column the
// deterministic experiments print, for the parameters cmd/dgc-bench passes
// (full and -quick). A change to a driver that is
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

	t.Run("scale", func(t *testing.T) {
		rows, err := DetectionScale([]int{2, 4, 8}, 2)
		must(err)
		for i := range rows {
			rows[i].Wall = 0
		}
		pin(t, "ring x2", rows, "[{2 2 2 86 2 0s} {4 2 12 592 2 0s} {8 2 56 3920 2 0s}]")
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
