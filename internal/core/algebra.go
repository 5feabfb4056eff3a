// Package core implements the paper's primary contribution: the Distributed
// Cycle Detection Algorithm (DCDA) and the algebraic representation carried
// by cycle detection messages (CDMs).
//
// A CDM carries two sets over inter-process references (§3 "Algebra"):
//
//   - the SOURCE set: compiled dependencies — scions that lead into the
//     distributed sub-graph traced so far; every one of them must be
//     resolved (traced through) before a cycle may be declared;
//   - the TARGET set: the stubs the message has been forwarded along.
//
// Following the paper's implementation note (§4: "each scion/stub
// representation holds two bits, indicating whether they are present in the
// CDM source and/or target set"), the algebra is stored as one entry per
// reference with two presence bits plus the invocation counter observed on
// each side. Matching removes references present in both sets when their
// counters agree; a counter disagreement proves a mutator invocation raced
// the detection and aborts it (§3.2).
//
// Representation: a reference is two node names and an object id. Node names
// are interned in a process-global table (ids.NodeTable, one slot per name),
// and an entry is keyed by the integer triple (source node index, destination
// node index, object id), kept in a slice sorted by that key. Derivation
// clones are a single slice copy, matching is a linear scan, and merging two
// algebras is a linear merge-join; nothing is stored per reference outside
// the algebras that hold it. A string-keyed map implementation is retained
// as algReference in the package tests and the two are verified equivalent
// (including wire bytes) by property tests.
package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"dgc/internal/ids"
)

// Entry records one reference's state within a CDM.
type Entry struct {
	InSource bool   // present in the source (dependency/scion) set
	SrcIC    uint64 // scion-side invocation counter (valid when InSource)
	InTarget bool   // present in the target (stub) set
	TgtIC    uint64 // stub-side invocation counter (valid when InTarget)
}

// Layout of algEntry.word: the source node's table index, the destination
// node's, and the two presence bits. Indices are below ids.MaxNodes (31 bits).
const (
	bitSource = 1 << 0
	bitTarget = 1 << 1
	bitsMask  = bitSource | bitTarget

	dstShift = 2
	srcShift = 33
	nodeMask = ids.MaxNodes - 1
)

// algEntry is the dense in-memory form of one algebra entry, 32 bytes: the
// key — both node indices in word's upper 62 bits, then obj — the presence
// bits in word's low two, and both invocation counters. Counters are kept
// even when the matching bit is clear, mirroring the map representation
// where a full Entry value sat under each key.
type algEntry struct {
	word  uint64
	obj   ids.ObjID
	srcIC uint64
	tgtIC uint64
}

func (e algEntry) bits() uint64 { return e.word & bitsMask }

// nodes is the node part of the key: word with the presence bits cleared.
func (e algEntry) nodes() uint64 { return e.word &^ bitsMask }

// cmpKey orders e's key against (nodes, obj).
func (e algEntry) cmpKey(nodes uint64, obj ids.ObjID) int {
	switch en := e.nodes(); {
	case en < nodes:
		return -1
	case en > nodes:
		return 1
	case e.obj < obj:
		return -1
	case e.obj > obj:
		return 1
	}
	return 0
}

func cmpEntries(x, y algEntry) int { return x.cmpKey(y.nodes(), y.obj) }

func (e algEntry) entry() Entry {
	return Entry{
		InSource: e.word&bitSource != 0,
		SrcIC:    e.srcIC,
		InTarget: e.word&bitTarget != 0,
		TgtIC:    e.tgtIC,
	}
}

func packEntry(nodes uint64, obj ids.ObjID, e Entry) algEntry {
	if e.InSource {
		nodes |= bitSource
	}
	if e.InTarget {
		nodes |= bitTarget
	}
	return algEntry{word: nodes, obj: obj, srcIC: e.SrcIC, tgtIC: e.TgtIC}
}

// nodeTab interns every node name that enters a CDM algebra in this process.
// It is shared by every node loop of the process (in-process clusters hand
// each other's algebras around unflattened), so keys are process-global.
var nodeTab = ids.NewNodeTable()

// NodeNames returns, in sorted order, the node names the algebra's table
// holds — everything the package retains outside live algebras. For
// diagnostics and the bounded-state property test.
func NodeNames() []ids.NodeID { return nodeTab.Snapshot().Names() }

// nodesWord packs two node indices into the node part of a key word; srcOf
// and dstOf unpack them.
func nodesWord(src, dst uint32) uint64 { return uint64(src)<<srcShift | uint64(dst)<<dstShift }
func srcOf(word uint64) uint32         { return uint32(word >> srcShift) }
func dstOf(word uint64) uint32         { return uint32(word>>dstShift) & nodeMask }

// internNodes returns the node part of ref's key, adding unseen names to the
// table.
func internNodes(ref ids.RefID) uint64 {
	return nodesWord(nodeTab.Intern(ref.Src), nodeTab.Intern(ref.Dst.Node))
}

// lookupNodes is internNodes for read paths: a reference naming a node the
// table has never seen is in no algebra, and asking must not add the name.
func lookupNodes(ref ids.RefID) (uint64, bool) {
	src, ok := nodeTab.Lookup(ref.Src)
	if !ok {
		return 0, false
	}
	dst, ok := nodeTab.Lookup(ref.Dst.Node)
	return nodesWord(src, dst), ok
}

// refOf rebuilds e's reference from a table snapshot.
func refOf(s *ids.NodeSnapshot, e algEntry) ids.RefID {
	return ids.RefID{
		Src: s.Name(srcOf(e.word)),
		Dst: ids.GlobalRef{Node: s.Name(dstOf(e.word)), Obj: e.obj},
	}
}

// Alg is the CDM algebra: a mapping from references to entries. The zero
// value is not usable; construct with NewAlg. Alg values are mutated by Add*
// and copied with Clone before derivation, mirroring the paper's CDM
// derivations (Alg_1a, Alg_1b, ...).
type Alg struct {
	s *algState
}

// algState holds the entries sorted by key. Alg is a value-with-pointer so
// the historical value-receiver mutation API keeps working.
type algState struct {
	entries []algEntry
}

// NewAlg returns an empty algebra.
func NewAlg() Alg {
	return Alg{s: &algState{}}
}

// find returns the index of the key (nodes, obj) in the sorted entry slice,
// or the insertion point with ok=false.
func (s *algState) find(nodes uint64, obj ids.ObjID) (int, bool) {
	lo, hi := 0, len(s.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.entries[mid].cmpKey(nodes, obj) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.entries) && s.entries[lo].cmpKey(nodes, obj) == 0
}

// insertAt splices e into the sorted slice at index i.
func (s *algState) insertAt(i int, e algEntry) {
	s.entries = append(s.entries, algEntry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = e
}

// cloneSlack is the spare capacity a Clone carries: the cloner is the
// detector's derivation step, which immediately adds the followed stub and a
// handful of dependencies, and the slack makes those inserts realloc-free.
const cloneSlack = 8

// inlineEntries is the entry capacity allocated inline with the state header
// on small clones. The paper's cycles span a handful of processes, so most
// derivations fit and clone in ONE allocation; larger algebras fall back to
// a separate backing array.
const inlineEntries = 24

// algBlock co-allocates an algState with its initial backing array. Growth
// past the inline capacity reallocates the slice away from buf as usual.
type algBlock struct {
	algState
	buf [inlineEntries]algEntry
}

// Clone returns an independent copy: a single slice copy, with slack for the
// derivation's inserts, in one allocation for small algebras.
func (a Alg) Clone() Alg {
	es := a.entries()
	if len(es)+cloneSlack <= inlineEntries {
		b := &algBlock{}
		b.entries = append(b.buf[:0:inlineEntries], es...)
		return Alg{s: &b.algState}
	}
	return Alg{s: &algState{entries: append(make([]algEntry, 0, len(es)+cloneSlack), es...)}}
}

// AddSource inserts ref into the source set with the given scion-side
// invocation counter.
//
// changed reports whether the algebra grew. conflict reports that ref was
// already in the source set with a DIFFERENT counter — possible only when
// two distinct snapshot versions of the same process were combined into one
// CDM-Graph with an interleaved invocation, which is exactly the race the
// algorithm must abort on.
func (a Alg) AddSource(ref ids.RefID, ic uint64) (changed, conflict bool) {
	nodes := internNodes(ref)
	i, ok := a.s.find(nodes, ref.Dst.Obj)
	if ok {
		e := &a.s.entries[i]
		if e.word&bitSource != 0 {
			return false, e.srcIC != ic
		}
		e.word |= bitSource
		e.srcIC = ic
		return true, false
	}
	a.s.insertAt(i, algEntry{word: nodes | bitSource, obj: ref.Dst.Obj, srcIC: ic})
	return true, false
}

// AddTarget inserts ref into the target set with the given stub-side
// invocation counter. Semantics mirror AddSource.
func (a Alg) AddTarget(ref ids.RefID, ic uint64) (changed, conflict bool) {
	nodes := internNodes(ref)
	i, ok := a.s.find(nodes, ref.Dst.Obj)
	if ok {
		e := &a.s.entries[i]
		if e.word&bitTarget != 0 {
			return false, e.tgtIC != ic
		}
		e.word |= bitTarget
		e.tgtIC = ic
		return true, false
	}
	a.s.insertAt(i, algEntry{word: nodes | bitTarget, obj: ref.Dst.Obj, tgtIC: ic})
	return true, false
}

// Get returns the entry recorded for ref.
func (a Alg) Get(ref ids.RefID) (Entry, bool) {
	if a.s == nil {
		return Entry{}, false
	}
	nodes, ok := lookupNodes(ref)
	if !ok {
		return Entry{}, false
	}
	i, ok := a.s.find(nodes, ref.Dst.Obj)
	if !ok {
		return Entry{}, false
	}
	return a.s.entries[i].entry(), true
}

// Set stores a full entry for ref, replacing any previous one. Primarily a
// constructor aid (CDM decode) and test hook; protocol code grows algebras
// through AddSource/AddTarget.
func (a Alg) Set(ref ids.RefID, e Entry) {
	nodes := internNodes(ref)
	i, ok := a.s.find(nodes, ref.Dst.Obj)
	if ok {
		a.s.entries[i] = packEntry(nodes, ref.Dst.Obj, e)
		return
	}
	a.s.insertAt(i, packEntry(nodes, ref.Dst.Obj, e))
}

// Delete removes ref's entry, if present.
func (a Alg) Delete(ref ids.RefID) {
	if a.s == nil {
		return
	}
	nodes, ok := lookupNodes(ref)
	if !ok {
		return
	}
	i, ok := a.s.find(nodes, ref.Dst.Obj)
	if !ok {
		return
	}
	a.s.entries = append(a.s.entries[:i], a.s.entries[i+1:]...)
}

// Each calls fn for every entry until fn returns false. Iteration order is
// unspecified (it follows the order this process first saw the node names,
// not the canonical reference order); callers needing determinism use
// EachCanonical.
func (a Alg) Each(fn func(ids.RefID, Entry) bool) {
	names := nodeTab.Snapshot()
	for _, e := range a.entries() {
		if !fn(refOf(names, e), e.entry()) {
			return
		}
	}
}

// canonScratch pools the sort scratch of EachCanonical: the sorted view is
// only needed for the duration of one iteration, so the detection fan-out
// path allocates nothing for ordering.
var canonScratch = sync.Pool{New: func() any { return new([]algEntry) }}

// EachCanonical calls fn for every entry in canonical reference order (the
// order ids.SortRefIDs produces) until fn returns false. The order is
// decided without comparing reference strings: a scratch copy of the entries
// has each node index replaced by the name's rank in the node table's sorted
// order, and (rank of source, rank of destination, object) is then an integer
// sort that yields exactly RefID.Less order — whatever order the process
// happened to first see the names in.
func (a Alg) EachCanonical(fn func(ids.RefID, Entry) bool) {
	es := a.entries()
	if len(es) == 0 {
		return
	}
	names := nodeTab.Snapshot()
	if len(es) == 1 {
		fn(refOf(names, es[0]), es[0].entry())
		return
	}
	sp := canonScratch.Get().(*[]algEntry)
	defer canonScratch.Put(sp)
	tmp := append((*sp)[:0], es...)
	*sp = tmp
	for i := range tmp {
		w := tmp[i].word
		tmp[i].word = nodesWord(names.Rank(srcOf(w)), names.Rank(dstOf(w))) | w&bitsMask
	}
	slices.SortFunc(tmp, cmpEntries)
	for _, e := range tmp {
		r := ids.RefID{
			Src: names.ByRank(srcOf(e.word)),
			Dst: ids.GlobalRef{Node: names.ByRank(dstOf(e.word)), Obj: e.obj},
		}
		if !fn(r, e.entry()) {
			return
		}
	}
}

// AlgBuilder is the constructor of choice for CDM decode. It builds a run of
// algebras into one shared entry array and one shared state array, so the
// sections of one BatchCDM cost two allocations, not two each. Each
// algebra's entries are capped at their length, so growing one reallocates
// it rather than writing over the next. The zero value is ready to use.
type AlgBuilder struct {
	entries []algEntry
	states  []algState
}

// NewAlgBuilder returns a builder sized for algs algebras holding entries
// entries in all: building within that costs no further allocation, and
// building past it only another one.
func NewAlgBuilder(algs, entries int) AlgBuilder {
	return AlgBuilder{entries: make([]algEntry, 0, entries), states: make([]algState, 0, algs)}
}

// Build constructs an algebra from the n entries produced by at(0..n-1). It
// is the bulk form of repeated Set — entries are keyed and appended, then
// sorted once by key (an integer sort) — where the per-entry sorted insertion
// of Set turned message rebuild quadratic. When at yields the same reference
// more than once, the last occurrence wins, matching Set semantics.
func (b *AlgBuilder) Build(n int, at func(int) (ids.RefID, Entry)) Alg {
	b.entries = slices.Grow(b.entries, n)
	start := len(b.entries)
	for i := 0; i < n; i++ {
		r, e := at(i)
		b.entries = append(b.entries, packEntry(internNodes(r), r.Dst.Obj, e))
	}
	entries := b.entries[start:]
	slices.SortStableFunc(entries, cmpEntries)
	out := entries[:0]
	for i := range entries {
		if i+1 < len(entries) && cmpEntries(entries[i+1], entries[i]) == 0 {
			continue // a later duplicate overrides this one
		}
		out = append(out, entries[i])
	}
	b.entries = b.entries[:start+len(out)]
	b.states = append(b.states, algState{entries: out[:len(out):len(out)]})
	return Alg{s: &b.states[len(b.states)-1]}
}

// Equal reports whether two algebras hold exactly the same entries. Used for
// the branch-termination rule of §3.1 step 15: a derivation identical to the
// delivered CDM carries no new information and must not be forwarded.
func (a Alg) Equal(b Alg) bool {
	ae, be := a.entries(), b.entries()
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

func (a Alg) entries() []algEntry {
	if a.s == nil {
		return nil
	}
	return a.s.entries
}

// Len returns the number of distinct references in the algebra.
func (a Alg) Len() int { return len(a.entries()) }

// SourceRefs returns the references in the source set, in canonical order.
// When a cycle is found, these are precisely the scions of the garbage
// cycle.
func (a Alg) SourceRefs() []ids.RefID {
	return a.sideRefs(bitSource)
}

// TargetRefs returns the references in the target set, in canonical order.
func (a Alg) TargetRefs() []ids.RefID {
	return a.sideRefs(bitTarget)
}

func (a Alg) sideRefs(bit uint64) []ids.RefID {
	var out []ids.RefID
	names := nodeTab.Snapshot()
	for _, e := range a.entries() {
		if e.word&bit != 0 {
			out = append(out, refOf(names, e))
		}
	}
	ids.SortRefIDs(out)
	return out
}

// MatchResult is the outcome of algebra matching at one process (§3 "CDM
// Matching").
type MatchResult struct {
	// Unresolved lists references in the source set with no matching target
	// entry: dependencies not yet traced (e.g. {Y_P5} in §3.1 step 10).
	Unresolved []ids.RefID
	// Frontier lists references in the target set with no matching source
	// entry: the wave front of the detection.
	Frontier []ids.RefID
	// Abort is set when a reference present in both sets carries different
	// invocation counters: a remote invocation raced the detection (§3.2
	// step 8: "different IC values (x and x+1) ... detection abort").
	Abort bool
	// AbortRef names the reference that triggered the abort.
	AbortRef ids.RefID
	// CycleFound is set when the reduced SOURCE set is empty and no abort
	// occurred: every dependency scion has been traversed with consistent
	// invocation counters.
	//
	// The paper states the condition as "Matching(Alg_4) => {{} -> {}}"
	// because with its per-path derivations a completed cycle leaves both
	// sets empty. With this package's merged derivations (see
	// Detector.expand) followed-but-dead-end stubs legitimately remain as
	// frontier leftovers, so the safe and complete condition is
	// source-empty: each matched source scion is proven (a) not locally
	// reachable at its holder (Local.Reach false on the followed stub) and
	// (b) reachable only through scions that are themselves in the matched
	// source set — a closed induction showing no root reaches any of them.
	// Frontier-only entries never participate in that proof.
	CycleFound bool
}

// Match performs algebraic matching. It is a pure view: the algebra itself
// is not reduced, because the full sets are still needed by downstream
// processes (the paper's Alg_n always carries full sets). Detection hot
// paths that only need the verdict use MatchStatus, which allocates nothing.
func (a Alg) Match() MatchResult {
	var res MatchResult
	names := nodeTab.Snapshot()
	for _, e := range a.entries() {
		switch e.bits() {
		case bitSource | bitTarget:
			if e.srcIC != e.tgtIC {
				res.Abort = true
				// Prefer the smallest aborting ref for determinism.
				r := refOf(names, e)
				if res.AbortRef == (ids.RefID{}) || r.Less(res.AbortRef) {
					res.AbortRef = r
				}
			}
		case bitSource:
			res.Unresolved = append(res.Unresolved, refOf(names, e))
		case bitTarget:
			res.Frontier = append(res.Frontier, refOf(names, e))
		}
	}
	ids.SortRefIDs(res.Unresolved)
	ids.SortRefIDs(res.Frontier)
	res.CycleFound = !res.Abort && len(res.Unresolved) == 0
	return res
}

// MatchStatus is the allocation-free core of Match: one linear scan over the
// dense entries yielding only the verdict bits the detector acts on.
// Equivalent to m := Match(); (m.CycleFound, m.Abort).
func (a Alg) MatchStatus() (cycleFound, abort bool) {
	unresolved := false
	for _, e := range a.entries() {
		switch e.bits() {
		case bitSource | bitTarget:
			if e.srcIC != e.tgtIC {
				abort = true
			}
		case bitSource:
			unresolved = true
		}
	}
	return !abort && !unresolved, abort
}

// Merge unions b's entries into a. changed reports whether a grew;
// conflict reports that some reference carries different invocation
// counters on the same side in a and b — two inconsistent observations of
// the same reference, i.e. a mutator race (the detection must abort).
//
// Merging is how a node combines CDMs of one detection that arrived over
// different paths: the CDM-Graph is a set of consistent snapshot fragments,
// and the union of two consistent sets is consistent exactly when the
// counter equality holds. Nodes keep the merged algebra as droppable cache
// state — losing it costs repeated work, never correctness.
//
// Both operands are sorted by key, so the union is a linear merge-join. A
// first detection pass avoids allocating when b adds nothing — the common
// case for re-delivered CDMs, which the node layer dedupes on changed=false.
func (a Alg) Merge(b Alg) (changed, conflict bool) {
	ae, be := a.entries(), b.entries()
	if len(be) == 0 {
		return false, false
	}
	// Detection pass: does b add any entry or presence bit?
	i, j := 0, 0
	for i < len(ae) && j < len(be) && !changed {
		switch c := cmpEntries(ae[i], be[j]); {
		case c < 0:
			i++
		case c > 0:
			changed = true
		default:
			if be[j].bits()&^ae[i].bits() != 0 {
				changed = true
			}
			i++
			j++
		}
	}
	if j < len(be) {
		changed = true
	}
	if !changed {
		// Pure subset: only counter consistency can differ.
		i, j = 0, 0
		for i < len(ae) && j < len(be) {
			if cmpEntries(ae[i], be[j]) == 0 {
				conflict = conflict || mergeConflict(ae[i], be[j])
				j++
			}
			i++
		}
		return false, conflict
	}

	out := make([]algEntry, 0, len(ae)+len(be))
	i, j = 0, 0
	for i < len(ae) && j < len(be) {
		switch c := cmpEntries(ae[i], be[j]); {
		case c < 0:
			out = append(out, ae[i])
			i++
		case c > 0:
			out = append(out, be[j])
			j++
		default:
			m := ae[i]
			eb := be[j]
			if eb.word&bitSource != 0 {
				if m.word&bitSource != 0 {
					if m.srcIC != eb.srcIC {
						conflict = true
					}
				} else {
					m.word |= bitSource
					m.srcIC = eb.srcIC
				}
			}
			if eb.word&bitTarget != 0 {
				if m.word&bitTarget != 0 {
					if m.tgtIC != eb.tgtIC {
						conflict = true
					}
				} else {
					m.word |= bitTarget
					m.tgtIC = eb.tgtIC
				}
			}
			out = append(out, m)
			i++
			j++
		}
	}
	out = append(out, ae[i:]...)
	out = append(out, be[j:]...)
	a.s.entries = out
	return true, conflict
}

// mergeConflict reports whether two observations of the same reference carry
// different counters on a side present in both.
func mergeConflict(ea, eb algEntry) bool {
	both := ea.word & eb.word
	return (both&bitSource != 0 && ea.srcIC != eb.srcIC) ||
		(both&bitTarget != 0 && ea.tgtIC != eb.tgtIC)
}

// String renders the algebra in the paper's notation, e.g.
// "{{P1->6@P2} -> {P2->17@P4}}", with invocation counters shown when
// non-zero.
func (a Alg) String() string {
	var b strings.Builder
	b.WriteString("{{")
	a.writeSide(&b, a.SourceRefs(), true)
	b.WriteString("} -> {")
	a.writeSide(&b, a.TargetRefs(), false)
	b.WriteString("}}")
	return b.String()
}

func (a Alg) writeSide(b *strings.Builder, refs []ids.RefID, source bool) {
	for i, r := range refs {
		if i > 0 {
			b.WriteString(", ")
		}
		e, _ := a.Get(r)
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
