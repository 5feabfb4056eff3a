package ids

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func testRef(i int) RefID {
	return RefID{
		Src: NodeID(fmt.Sprintf("P%d", i%7)),
		Dst: GlobalRef{Node: NodeID(fmt.Sprintf("Q%d", i%5)), Obj: ObjID(i)},
	}
}

func TestInternerRoundTrip(t *testing.T) {
	tb := NewInterner()
	const n = 500
	ids := make([]int32, n)
	for i := 0; i < n; i++ {
		ids[i] = tb.Intern(testRef(i))
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	seen := make(map[int32]bool, n)
	for i := 0; i < n; i++ {
		if got := tb.Intern(testRef(i)); got != ids[i] {
			t.Fatalf("re-Intern(%d) = %d, first sight gave %d", i, got, ids[i])
		}
		if got, ok := tb.Lookup(testRef(i)); !ok || got != ids[i] {
			t.Fatalf("Lookup(%d) = %d,%v, want %d", i, got, ok, ids[i])
		}
		if got := tb.Ref(ids[i]); got != testRef(i) {
			t.Fatalf("Ref(%d) = %v, want %v", ids[i], got, testRef(i))
		}
		if seen[ids[i]] {
			t.Fatalf("id %d assigned twice", ids[i])
		}
		seen[ids[i]] = true
		if ids[i] >= tb.Bound() {
			t.Fatalf("id %d >= Bound() %d", ids[i], tb.Bound())
		}
	}
}

func TestInternerShardLensDecomposition(t *testing.T) {
	tb := NewInterner()
	for i := 0; i < 300; i++ {
		id := tb.Intern(testRef(i))
		// The interleaved id space: shard index in the low bits, local slot
		// above, local slot within the shard's published length.
		local, shard := id>>internShardShift, id&internShardMask
		if local >= tb.ShardLens()[shard] {
			t.Fatalf("id %d: local %d >= shard %d len %d", id, local, shard, tb.ShardLens()[shard])
		}
	}
	lens := tb.ShardLens()
	sum := int32(0)
	for _, n := range lens {
		sum += n
	}
	if int(sum) != tb.Len() {
		t.Fatalf("sum(ShardLens) = %d, Len = %d", sum, tb.Len())
	}
	if b := InternBound(lens); b != tb.Bound() {
		t.Fatalf("InternBound(ShardLens) = %d, Bound = %d", b, tb.Bound())
	}
}

func TestInternerRefUnassignedPanics(t *testing.T) {
	tb := NewInterner()
	tb.Intern(testRef(0))
	for _, id := range []int32{-1, tb.Bound(), tb.Bound() + InternShards} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Ref(%d) did not panic", id)
				}
			}()
			tb.Ref(id)
		}()
	}
}

// TestInternerConcurrentStress hammers one table from many goroutines — run
// under -race — interleaving first sights of a shared reference set with
// lookups and reverse resolution. Every goroutine must observe one
// consistent assignment: same ref, same id, round-tripping through Ref.
func TestInternerConcurrentStress(t *testing.T) {
	tb := NewInterner()
	const (
		workers = 8
		refs    = 400
		rounds  = 5
	)
	got := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]int32, refs)
			for round := 0; round < rounds; round++ {
				for i := 0; i < refs; i++ {
					// Stagger the visit order per worker so shards see
					// first-sight races from all sides (offset, stride 1 —
					// every worker still visits every ref).
					j := (i + w*refs/workers) % refs
					id := tb.Intern(testRef(j))
					if round > 0 && id != ids[j] {
						t.Errorf("worker %d: ref %d id changed %d -> %d", w, j, ids[j], id)
						return
					}
					ids[j] = id
					if back := tb.Ref(id); back != testRef(j) {
						t.Errorf("worker %d: Ref(%d) = %v, want %v", w, id, back, testRef(j))
						return
					}
					if lid, ok := tb.Lookup(testRef(j)); !ok || lid != id {
						t.Errorf("worker %d: Lookup(%d) = %d,%v, want %d", w, j, lid, ok, id)
						return
					}
				}
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		for i := range got[0] {
			if got[w][i] != got[0][i] {
				t.Fatalf("workers 0 and %d disagree on ref %d: %d vs %d", w, i, got[0][i], got[w][i])
			}
		}
	}
	if tb.Len() != refs {
		t.Fatalf("Len = %d, want %d", tb.Len(), refs)
	}
	if b := tb.Bound(); b < int32(refs) || b > int32(refs)*InternShards {
		t.Fatalf("Bound = %d out of range [%d, %d]", b, refs, refs*InternShards)
	}
}

// TestInternerPublishOrder hammers the first-sight race the live benchmark
// found: several goroutines intern the SAME stream of fresh references in the
// same order, so the followers reach each reference just as the leader is
// assigning it, and resolve every id they are handed straight back through
// Ref. An id obtainable from Intern must already be acceptable to Ref; when
// the index entry was published before the shard length, Ref panicked with
// "Ref of unassigned intern id". Needs real parallelism to bite, so the test
// raises GOMAXPROCS to at least 2 for its duration.
func TestInternerPublishOrder(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	const (
		workers = 8
		refs    = 20000
		rounds  = 4
	)
	for round := 0; round < rounds; round++ {
		tb := NewInterner()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("round %d: %v", round, r)
					}
				}()
				for i := 0; i < refs; i++ {
					r := testRef(i)
					if back := tb.Ref(tb.Intern(r)); back != r {
						t.Errorf("round %d: Ref(Intern(%v)) = %v", round, r, back)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkInternParallel measures the steady-state Intern fast path under
// contention: all refs pre-assigned, every worker re-interning the full set.
func BenchmarkInternParallel(b *testing.B) {
	tb := NewInterner()
	const refs = 1024
	set := make([]RefID, refs)
	for i := range set {
		set[i] = testRef(i)
		tb.Intern(set[i])
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tb.Intern(set[i&(refs-1)])
			i++
		}
	})
}

// BenchmarkInternFirstSightParallel measures contended assignment: each
// iteration interns a fresh reference, so every call takes a shard lock.
func BenchmarkInternFirstSightParallel(b *testing.B) {
	tb := NewInterner()
	var ctr atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			tb.Intern(RefID{Src: "S", Dst: GlobalRef{Node: "D", Obj: ObjID(i)}})
		}
	})
}
