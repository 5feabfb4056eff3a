package core

// algReference is the retired map[ids.RefID]Entry implementation of the CDM
// algebra, kept as the executable specification for the dense
// node-index-keyed representation in algebra.go (the same pattern as
// summarizeReference for the summarization engine). The property tests below
// drive both implementations through identical operation sequences drawn
// from the random corpus and require identical observable behaviour: return
// values, match results, canonical listings and String renderings — over
// node-name universes first seen in lexical, reverse-lexical and shuffled
// order, so an observable order derived from table index order instead of
// name order fails. The wire-level byte-identity check lives in
// internal/wire (wire_test.go), which core cannot import.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dgc/internal/ids"
)

type algReference struct {
	Entries map[ids.RefID]Entry
}

func newAlgReference() algReference {
	return algReference{Entries: make(map[ids.RefID]Entry)}
}

func (a algReference) Clone() algReference {
	c := algReference{Entries: make(map[ids.RefID]Entry, len(a.Entries))}
	for k, v := range a.Entries {
		c.Entries[k] = v
	}
	return c
}

func (a algReference) AddSource(ref ids.RefID, ic uint64) (changed, conflict bool) {
	e, ok := a.Entries[ref]
	if ok && e.InSource {
		return false, e.SrcIC != ic
	}
	e.InSource = true
	e.SrcIC = ic
	a.Entries[ref] = e
	return true, false
}

func (a algReference) AddTarget(ref ids.RefID, ic uint64) (changed, conflict bool) {
	e, ok := a.Entries[ref]
	if ok && e.InTarget {
		return false, e.TgtIC != ic
	}
	e.InTarget = true
	e.TgtIC = ic
	a.Entries[ref] = e
	return true, false
}

func (a algReference) Equal(b algReference) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for k, v := range a.Entries {
		if bv, ok := b.Entries[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func (a algReference) Len() int { return len(a.Entries) }

func (a algReference) SourceRefs() []ids.RefID {
	var out []ids.RefID
	for r, e := range a.Entries {
		if e.InSource {
			out = append(out, r)
		}
	}
	ids.SortRefIDs(out)
	return out
}

func (a algReference) TargetRefs() []ids.RefID {
	var out []ids.RefID
	for r, e := range a.Entries {
		if e.InTarget {
			out = append(out, r)
		}
	}
	ids.SortRefIDs(out)
	return out
}

func (a algReference) Match() MatchResult {
	var res MatchResult
	for r, e := range a.Entries {
		switch {
		case e.InSource && e.InTarget:
			if e.SrcIC != e.TgtIC {
				res.Abort = true
				if res.AbortRef == (ids.RefID{}) || r.Less(res.AbortRef) {
					res.AbortRef = r
				}
			}
		case e.InSource:
			res.Unresolved = append(res.Unresolved, r)
		case e.InTarget:
			res.Frontier = append(res.Frontier, r)
		}
	}
	ids.SortRefIDs(res.Unresolved)
	ids.SortRefIDs(res.Frontier)
	res.CycleFound = !res.Abort && len(res.Unresolved) == 0
	return res
}

func (a algReference) Merge(b algReference) (changed, conflict bool) {
	for r, eb := range b.Entries {
		ea, ok := a.Entries[r]
		if !ok {
			a.Entries[r] = eb
			changed = true
			continue
		}
		merged := ea
		if eb.InSource {
			if ea.InSource {
				if ea.SrcIC != eb.SrcIC {
					conflict = true
				}
			} else {
				merged.InSource = true
				merged.SrcIC = eb.SrcIC
				changed = true
			}
		}
		if eb.InTarget {
			if ea.InTarget {
				if ea.TgtIC != eb.TgtIC {
					conflict = true
				}
			} else {
				merged.InTarget = true
				merged.TgtIC = eb.TgtIC
				changed = true
			}
		}
		a.Entries[r] = merged
	}
	return changed, conflict
}

func (a algReference) String() string {
	var b strings.Builder
	b.WriteString("{{")
	refWriteSide(&b, a.SourceRefs(), a.Entries, true)
	b.WriteString("} -> {")
	refWriteSide(&b, a.TargetRefs(), a.Entries, false)
	b.WriteString("}}")
	return b.String()
}

func refWriteSide(b *strings.Builder, refs []ids.RefID, entries map[ids.RefID]Entry, source bool) {
	for i, r := range refs {
		if i > 0 {
			b.WriteString(", ")
		}
		e := entries[r]
		ic := e.TgtIC
		if source {
			ic = e.SrcIC
		}
		if ic != 0 {
			fmt.Fprintf(b, "{%s, %d}", r, ic)
		} else {
			b.WriteString(r.String())
		}
	}
}

// ---- differential harness -------------------------------------------------

// algPair drives both implementations through the same operations and checks
// every observable after each step.
type algPair struct {
	a Alg
	r algReference
}

func newAlgPair() *algPair {
	return &algPair{a: NewAlg(), r: newAlgReference()}
}

// universe is the node names random references are drawn from: sources from
// the first three, destinations from the last three (one name is both), six
// object ids — small, so collisions (re-adds, conflicting counters,
// overlapping merges) are common.
type universe [5]ids.NodeID

// universes returns three name sets whose first sight by the process-global
// node table is forced, here, in lexical, reverse-lexical and shuffled order:
// index order agrees with name order in the first only.
func universes() map[string]universe {
	out := map[string]universe{}
	for order, perm := range map[string][5]int{
		"lexical":  {0, 1, 2, 3, 4},
		"reversed": {4, 3, 2, 1, 0},
		"shuffled": {2, 4, 0, 3, 1},
	} {
		var u universe
		for i := range u {
			u[i] = ids.NodeID(fmt.Sprintf("%s-P%d", order, i+1))
		}
		for _, i := range perm {
			nodeTab.Intern(u[i])
		}
		out[order] = u
	}
	return out
}

func forEachUniverse(t *testing.T, fn func(t *testing.T, u universe)) {
	for order, u := range universes() {
		t.Run(order, func(t *testing.T) { fn(t, u) })
	}
}

func (u universe) randomRef(rng *rand.Rand) ids.RefID {
	return ids.RefID{
		Src: u[rng.Intn(3)],
		Dst: ids.GlobalRef{Node: u[2+rng.Intn(3)], Obj: ids.ObjID(rng.Intn(6))},
	}
}

func (u universe) randomAlg(rng *rand.Rand) Alg {
	a := NewAlg()
	n := rng.Intn(12)
	for i := 0; i < n; i++ {
		r := u.randomRef(rng)
		if rng.Intn(2) == 0 {
			a.AddSource(r, uint64(rng.Intn(4)))
		}
		if rng.Intn(2) == 0 {
			a.AddTarget(r, uint64(rng.Intn(4)))
		}
	}
	return a
}

// referenceOf mirrors a into the map implementation.
func referenceOf(a Alg) algReference {
	r := newAlgReference()
	a.Each(func(ref ids.RefID, e Entry) bool {
		r.Entries[ref] = e
		return true
	})
	return r
}

func (p *algPair) check(t *testing.T, op string) {
	t.Helper()
	if got, want := p.a.Len(), p.r.Len(); got != want {
		t.Fatalf("%s: Len = %d, reference %d", op, got, want)
	}
	if got, want := refIDsKey(p.a.SourceRefs()), refIDsKey(p.r.SourceRefs()); got != want {
		t.Fatalf("%s: SourceRefs = %s, reference %s", op, got, want)
	}
	if got, want := refIDsKey(p.a.TargetRefs()), refIDsKey(p.r.TargetRefs()); got != want {
		t.Fatalf("%s: TargetRefs = %s, reference %s", op, got, want)
	}
	ma, mr := p.a.Match(), p.r.Match()
	if refIDsKey(ma.Unresolved) != refIDsKey(mr.Unresolved) ||
		refIDsKey(ma.Frontier) != refIDsKey(mr.Frontier) ||
		ma.Abort != mr.Abort || ma.AbortRef != mr.AbortRef || ma.CycleFound != mr.CycleFound {
		t.Fatalf("%s: Match = %+v, reference %+v", op, ma, mr)
	}
	if cf, ab := p.a.MatchStatus(); cf != ma.CycleFound || ab != ma.Abort {
		t.Fatalf("%s: MatchStatus = (%v, %v), Match says (%v, %v)", op, cf, ab, ma.CycleFound, ma.Abort)
	}
	// EachCanonical: exactly the reference's entries, in RefID.Less order.
	var prev *ids.RefID
	seen := 0
	p.a.EachCanonical(func(ref ids.RefID, e Entry) bool {
		if want, ok := p.r.Entries[ref]; !ok || e != want {
			t.Fatalf("%s: EachCanonical yielded (%v, %+v), reference (%+v, %v)", op, ref, e, want, ok)
		}
		if prev != nil && !prev.Less(ref) {
			t.Fatalf("%s: EachCanonical yielded %v before %v", op, *prev, ref)
		}
		prev = &ref
		seen++
		return true
	})
	if seen != p.r.Len() {
		t.Fatalf("%s: EachCanonical yielded %d entries, reference holds %d", op, seen, p.r.Len())
	}
	if got, want := p.a.String(), p.r.String(); got != want {
		t.Fatalf("%s: String = %q, reference %q", op, got, want)
	}
	// Every entry readable and identical via Get.
	for ref, want := range p.r.Entries {
		got, ok := p.a.Get(ref)
		if !ok || got != want {
			t.Fatalf("%s: Get(%v) = (%+v, %v), reference %+v", op, ref, got, ok, want)
		}
	}
}

func refIDsKey(refs []ids.RefID) string {
	var b strings.Builder
	for _, r := range refs {
		b.WriteString(r.String())
		b.WriteByte('|')
	}
	return b.String()
}

// TestAlgMatchesReferenceProperty drives random operation sequences —
// AddSource, AddTarget, Set, Delete, Clone, Merge with a random other
// algebra — through the dense and the map implementation and requires
// identical observable behaviour at every step.
func TestAlgMatchesReferenceProperty(t *testing.T) {
	forEachUniverse(t, testAlgMatchesReference)
}

func testAlgMatchesReference(t *testing.T, u universe) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newAlgPair()
		steps := 3 + rng.Intn(30)
		for i := 0; i < steps; i++ {
			var op string
			switch rng.Intn(7) {
			case 0, 1:
				ref, ic := u.randomRef(rng), uint64(rng.Intn(4))
				op = fmt.Sprintf("AddSource(%v, %d)", ref, ic)
				c1, x1 := p.a.AddSource(ref, ic)
				c2, x2 := p.r.AddSource(ref, ic)
				if c1 != c2 || x1 != x2 {
					t.Logf("%s: returned (%v, %v), reference (%v, %v)", op, c1, x1, c2, x2)
					return false
				}
			case 2, 3:
				ref, ic := u.randomRef(rng), uint64(rng.Intn(4))
				op = fmt.Sprintf("AddTarget(%v, %d)", ref, ic)
				c1, x1 := p.a.AddTarget(ref, ic)
				c2, x2 := p.r.AddTarget(ref, ic)
				if c1 != c2 || x1 != x2 {
					t.Logf("%s: returned (%v, %v), reference (%v, %v)", op, c1, x1, c2, x2)
					return false
				}
			case 4:
				ref := u.randomRef(rng)
				e := Entry{
					InSource: rng.Intn(2) == 0, SrcIC: uint64(rng.Intn(4)),
					InTarget: rng.Intn(2) == 0, TgtIC: uint64(rng.Intn(4)),
				}
				op = fmt.Sprintf("Set(%v, %+v)", ref, e)
				p.a.Set(ref, e)
				p.r.Entries[ref] = e
			case 5:
				ref := u.randomRef(rng)
				op = fmt.Sprintf("Delete(%v)", ref)
				p.a.Delete(ref)
				delete(p.r.Entries, ref)
			case 6:
				// Merge a random algebra built the same way on both sides.
				ops := rng.Intn(8)
				ob := NewAlg()
				or := newAlgReference()
				for j := 0; j < ops; j++ {
					ref, ic := u.randomRef(rng), uint64(rng.Intn(4))
					if rng.Intn(2) == 0 {
						ob.AddSource(ref, ic)
						or.AddSource(ref, ic)
					} else {
						ob.AddTarget(ref, ic)
						or.AddTarget(ref, ic)
					}
				}
				op = fmt.Sprintf("Merge(%v)", or)
				c1, x1 := p.a.Merge(ob)
				c2, x2 := p.r.Merge(or)
				if c1 != c2 || x1 != x2 {
					t.Logf("%s: returned (%v, %v), reference (%v, %v)", op, c1, x1, c2, x2)
					return false
				}
			}
			p.check(t, op)

			// Clone independence: mutating a clone never leaks back.
			if rng.Intn(4) == 0 {
				ca, cr := p.a.Clone(), p.r.Clone()
				ref := u.randomRef(rng)
				ca.AddTarget(ref, 9)
				cr.AddTarget(ref, 9)
				p.check(t, op+" [post-clone]")
				(&algPair{a: ca, r: cr}).check(t, op+" [the clone]")
			}
		}
		// Equal agreement: against itself, a clone and a rebuilt copy.
		if !p.a.Equal(p.a.Clone()) || !p.r.Equal(p.r.Clone()) {
			t.Log("Equal(clone) = false")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAlgMatchesReferenceOnCorpus replays the randomAlg corpus through both
// implementations.
func TestAlgMatchesReferenceOnCorpus(t *testing.T) {
	forEachUniverse(t, func(t *testing.T, u universe) {
		for seed := int64(0); seed < 200; seed++ {
			a := u.randomAlg(rand.New(rand.NewSource(seed)))
			p := &algPair{a: a, r: referenceOf(a)}
			p.check(t, fmt.Sprintf("corpus seed %d", seed))
		}
	})
}

// TestBuildAlgMatchesSet: the bulk constructor must behave exactly like
// repeated Set — for any order of the stream, including injected duplicates
// (last occurrence wins). One builder builds every seed's algebra, so they
// share its arrays as a decoded BatchCDM's sections do, and growing one must
// leave the others as they were.
func TestBuildAlgMatchesSet(t *testing.T) {
	forEachUniverse(t, func(t *testing.T, u universe) {
		var b AlgBuilder
		var built, want []Alg
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(1000 + seed))
			type pair struct {
				ref ids.RefID
				e   Entry
			}
			var pairs []pair
			u.randomAlg(rng).EachCanonical(func(r ids.RefID, e Entry) bool {
				pairs = append(pairs, pair{r, e})
				return true
			})
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			if len(pairs) > 1 {
				stale := pairs[rng.Intn(len(pairs))]
				stale.e.SrcIC += 7
				pairs = append([]pair{stale}, pairs...)
			}
			viaSet := NewAlg()
			for _, p := range pairs {
				viaSet.Set(p.ref, p.e)
			}
			alg := b.Build(len(pairs), func(i int) (ids.RefID, Entry) { return pairs[i].ref, pairs[i].e })
			if !alg.Equal(viaSet) {
				t.Fatalf("seed %d: Build differs from repeated Set:\n%v\n%v", seed, alg, viaSet)
			}
			if len(pairs) > 0 {
				grown := pairs[0].ref
				grown.Dst.Obj = 1 << 40
				alg.AddSource(grown, 1)
				viaSet.AddSource(grown, 1)
			}
			built, want = append(built, alg), append(want, viaSet)
		}
		for i := range built {
			if !built[i].Equal(want[i]) {
				t.Fatalf("seed %d: a later build or growth changed the algebra:\n%v\n%v", i, built[i], want[i])
			}
		}
	})
}

// TestUnknownNodeReadsAddNoName: Get and Delete on a reference naming a node
// the table has never seen report "absent" and leave the table alone.
func TestUnknownNodeReadsAddNoName(t *testing.T) {
	a := NewAlg()
	known := ids.RefID{Src: "known-A", Dst: ids.GlobalRef{Node: "known-B", Obj: 1}}
	a.AddSource(known, 1)
	before := len(NodeNames())
	for _, r := range []ids.RefID{
		{Src: "never-seen-1", Dst: known.Dst},
		{Src: known.Src, Dst: ids.GlobalRef{Node: "never-seen-2", Obj: 1}},
	} {
		if _, ok := a.Get(r); ok {
			t.Fatalf("Get(%v) reported present", r)
		}
		a.Delete(r)
	}
	if a.Len() != 1 || len(NodeNames()) != before {
		t.Fatalf("reads changed state: Len = %d, node names %d -> %d", a.Len(), before, len(NodeNames()))
	}
}

// TestAlgEqualDisagreements: Equal must reject the same near-misses as the
// reference (size, missing key, differing entry).
func TestAlgEqualDisagreements(t *testing.T) {
	forEachUniverse(t, func(t *testing.T, u universe) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 200; trial++ {
			a, b := u.randomAlg(rng), u.randomAlg(rng)
			ra, rb := referenceOf(a), referenceOf(b)
			if a.Equal(b) != ra.Equal(rb) {
				t.Fatalf("trial %d: Equal = %v, reference %v\na=%v\nb=%v", trial, a.Equal(b), ra.Equal(rb), a, b)
			}
		}
	})
}
