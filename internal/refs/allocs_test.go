//go:build !race

// The race detector allocates on its own account, so this pin builds only
// without it.

package refs

import "testing"

// TestApplyStubSetAllocsPinned pins BenchmarkApplyStubSet at zero
// allocations, beside 0 and 63 other peers: applying a peer's unchanged
// complete set reads and writes only that peer's record. An increase is a
// regression, caught here rather than by a timing.
func TestApplyStubSetAllocsPinned(t *testing.T) {
	for _, others := range []int{0, 63} {
		tb, objs := newStubSetTable(others, 1000)
		seq := uint64(0)
		got := testing.AllocsPerRun(100, func() {
			seq++
			tb.ApplyStubSet("Q00", seq, objs)
		})
		if got != 0 {
			t.Errorf("others=%d: %v allocs per apply, pinned at 0", others, got)
		}
	}
}
