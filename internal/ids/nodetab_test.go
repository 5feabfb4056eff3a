package ids

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// checkSnapshot verifies a snapshot's internal agreement: every index
// resolves, rank and ByRank are inverse, and rank order is name order.
func checkSnapshot(t *testing.T, s *NodeSnapshot) {
	t.Helper()
	if !slices.IsSorted(s.Names()) || len(s.Names()) != s.Len() {
		t.Fatalf("Names() = %v: not the %d names in sorted order", s.Names(), s.Len())
	}
	for i := uint32(0); i < uint32(s.Len()); i++ {
		if got := s.ByRank(s.Rank(i)); got != s.Name(i) {
			t.Fatalf("ByRank(Rank(%d)) = %q, want %q", i, got, s.Name(i))
		}
	}
}

func TestNodeTableRoundTrip(t *testing.T) {
	tb := NewNodeTable()
	if _, ok := tb.Lookup("P1"); ok {
		t.Fatal("Lookup on an empty table reported a hit")
	}
	// Reverse-lexical first sight: index order is the opposite of name order.
	names := []NodeID{"P9", "P5", "P3", "P10", "", "P1"}
	for want, n := range names {
		if got := tb.Intern(n); got != uint32(want) {
			t.Fatalf("Intern(%q) = %d, want %d", n, got, want)
		}
		if _, ok := tb.Lookup("never-seen"); ok {
			t.Fatal("Lookup added a name")
		}
	}
	s := tb.Snapshot()
	if s.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(names))
	}
	for i, n := range names {
		if got := tb.Intern(n); got != uint32(i) {
			t.Fatalf("second Intern(%q) = %d, want %d", n, got, i)
		}
		if got, ok := tb.Lookup(n); !ok || got != uint32(i) {
			t.Fatalf("Lookup(%q) = %d,%v, want %d", n, got, ok, i)
		}
		if s.Name(uint32(i)) != n {
			t.Fatalf("Name(%d) = %q, want %q", i, s.Name(uint32(i)), n)
		}
	}
	checkSnapshot(t, s)
	for i := range names {
		for j := range names {
			if (s.Rank(uint32(i)) < s.Rank(uint32(j))) != (names[i] < names[j]) {
				t.Fatalf("rank order of %q and %q disagrees with name order", names[i], names[j])
			}
		}
	}
}

// TestNodeTableSnapshotsAreImmutable: a snapshot taken before later first
// sights keeps answering from its own names, and later snapshots resolve
// every earlier index to the same name.
func TestNodeTableSnapshotsAreImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := NewNodeTable()
	var snaps []*NodeSnapshot
	for i := 0; i < 64; i++ {
		tb.Intern(NodeID(fmt.Sprintf("n%03d", rng.Intn(1000))))
		snaps = append(snaps, tb.Snapshot())
	}
	last := snaps[len(snaps)-1]
	for _, s := range snaps {
		checkSnapshot(t, s)
		for i := uint32(0); i < uint32(s.Len()); i++ {
			if s.Name(i) != last.Name(i) {
				t.Fatalf("index %d renamed %q -> %q", i, s.Name(i), last.Name(i))
			}
		}
	}
}

// TestNodeTableFirstSightHammer is the first-sight race the shared table must
// survive: several goroutines intern the SAME stream of fresh names in the
// same order, so the followers reach each name just as the leader is
// publishing it, and resolve every index they are handed straight back
// through a snapshot loaded afterwards. An index obtainable from Intern must
// already resolve, rank included. Needs real parallelism to bite, so the
// test raises GOMAXPROCS to at least 2 for its duration.
func TestNodeTableFirstSightHammer(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	const (
		workers = 8
		names   = 600
		rounds  = 4
	)
	stream := make([]NodeID, names)
	for i := range stream {
		// Descending names: every first sight shifts every existing rank.
		stream[i] = NodeID(fmt.Sprintf("n%04d", names-i))
	}
	for round := 0; round < rounds; round++ {
		tb := NewNodeTable()
		got := make([][]uint32, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("round %d: %v", round, r)
					}
				}()
				idx := make([]uint32, names)
				for i, n := range stream {
					idx[i] = tb.Intern(n)
					s := tb.Snapshot()
					if back := s.Name(idx[i]); back != n {
						t.Errorf("round %d: Name(Intern(%q)) = %q", round, n, back)
						return
					}
					if back := s.ByRank(s.Rank(idx[i])); back != n {
						t.Errorf("round %d: ByRank(Rank(Intern(%q))) = %q", round, n, back)
						return
					}
					if l, ok := tb.Lookup(n); !ok || l != idx[i] {
						t.Errorf("round %d: Lookup(%q) = %d,%v, want %d", round, n, l, ok, idx[i])
						return
					}
				}
				got[w] = idx
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for w := 1; w < workers; w++ {
			if !slices.Equal(got[w], got[0]) {
				t.Fatalf("round %d: workers 0 and %d disagree on indices", round, w)
			}
		}
		if n := tb.Snapshot().Len(); n != names {
			t.Fatalf("round %d: Len = %d, want %d", round, n, names)
		}
		checkSnapshot(t, tb.Snapshot())
	}
}
