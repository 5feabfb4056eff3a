package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dgc/internal/ids"
)

// TestNewDictMatchesSortedUnion checks the rank-keyed dictionary against
// the string order it must reproduce: on random algebras over three node
// universes, with extra references that are absent, shared with an algebra
// or naming a node no algebra has seen, Refs is the sorted union of every
// reference, each algebra's entries come out in its own canonical order, and
// each extra reference's index names it.
func TestNewDictMatchesSortedUnion(t *testing.T) {
	forEachUniverse(t, func(t *testing.T, u universe) {
		rng := rand.New(rand.NewSource(7))
		for iter := 0; iter < 300; iter++ {
			n := 1 + rng.Intn(6)
			algs := make([]Alg, n)
			extras := make([]ids.RefID, n)
			var union []ids.RefID
			for i := range algs {
				algs[i] = u.randomAlg(rng)
				algs[i].Each(func(r ids.RefID, _ Entry) bool {
					union = append(union, r)
					return true
				})
				switch rng.Intn(3) {
				case 1:
					extras[i] = u.randomRef(rng)
				case 2:
					extras[i] = ids.RefID{Src: u[0], Dst: ids.GlobalRef{
						Node: ids.NodeID(fmt.Sprintf("%s-extra%d", u[0], rng.Intn(3))), Obj: 1}}
				}
				if extras[i] != (ids.RefID{}) {
					union = append(union, extras[i])
				}
			}
			ids.SortRefIDs(union)
			union = slices.Compact(union)

			d := NewDict(n, func(i int) (Alg, ids.RefID) { return algs[i], extras[i] })
			if len(union) == 0 {
				union = []ids.RefID{}
			}
			if !reflect.DeepEqual(d.Refs, union) {
				t.Fatalf("iter %d: dictionary\n got %v\nwant %v", iter, d.Refs, union)
			}
			for i, a := range algs {
				var want, got []string
				a.EachCanonical(func(r ids.RefID, e Entry) bool {
					want = append(want, fmt.Sprint(r, e))
					return true
				})
				for _, de := range d.Section(i) {
					got = append(got, fmt.Sprint(d.Refs[de.Index], de.Entry))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("iter %d: algebra %d entries\n got %v\nwant %v", iter, i, got, want)
				}
				switch {
				case extras[i] == (ids.RefID{}) && d.Extra[i] != -1:
					t.Fatalf("iter %d: algebra %d has no extra reference, index %d", iter, i, d.Extra[i])
				case extras[i] != (ids.RefID{}) && (d.Extra[i] < 0 || d.Refs[d.Extra[i]] != extras[i]):
					t.Fatalf("iter %d: algebra %d extra %v at index %d", iter, i, extras[i], d.Extra[i])
				}
			}
		}
	})
}
