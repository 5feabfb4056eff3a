//go:build !race

// The race detector allocates on its own account, so these pins build only
// without it.

package dgc_test

import (
	"testing"

	"dgc/internal/experiments"
	"dgc/internal/snapshot"
)

// TestCDMHopAllocsPinned pins the allocations of one CDM hop
// (BenchmarkCDMHop) at each algebra size. Like the codec's pin it is a cost
// gate host noise cannot trip: an increase is a regression, and a decrease
// lowers the pin in the same change.
func TestCDMHopAllocsPinned(t *testing.T) {
	want := map[int]float64{16: 2, 64: 3, 256: 3}
	for _, n := range cdmHopEntries {
		hop := newCDMHop(n)
		got := testing.AllocsPerRun(200, func() {
			if err := hop(); err != nil {
				t.Fatal(err)
			}
		})
		if got != want[n] {
			t.Errorf("entries=%d: %v allocs per hop, pinned at %v", n, got, want[n])
		}
	}
}

// TestLGCAllocsPinned pins the allocations of one local collection over
// BenchmarkLGC's 10k-object chain.
func TestLGCAllocsPinned(t *testing.T) {
	n := newLGCNode(t)
	if got := testing.AllocsPerRun(20, func() { n.RunLGC() }); got != 4 {
		t.Errorf("%v allocs per collection, pinned at 4", got)
	}
}

// TestSummarizeAllocsPinned pins the allocations of one summarization of
// BenchmarkSummarize's objs=1000 graph at 4 and 512 scions.
func TestSummarizeAllocsPinned(t *testing.T) {
	for _, c := range []struct {
		scions int
		want   float64
	}{{4, 83}, {512, 83}} {
		h, tb := experiments.BuildSummarizeHeap(1000, c.scions)
		epoch := uint64(0)
		got := testing.AllocsPerRun(50, func() {
			epoch++
			snapshot.Summarize(h, tb, epoch)
		})
		if got != c.want {
			t.Errorf("objs=1000/scions=%d: %v allocs per summary, pinned at %v", c.scions, got, c.want)
		}
	}
}
