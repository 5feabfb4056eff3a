package core

import (
	"slices"

	"dgc/internal/ids"
)

// Dict is the canonical union of the references of several algebras and of
// one extra reference per algebra, with every entry renamed by its index in
// the union: the shared-dictionary form a multi-algebra message encodes once
// (wire.BatchCDM, whose extra reference is a section's along).
type Dict struct {
	// Refs is the union in canonical order (ids.SortRefIDs).
	Refs []ids.RefID
	// Entries holds every algebra's entries, algebra by algebra, each
	// algebra's in ascending index order (so in canonical order):
	// algebra i's are Entries[Ends[i-1]:Ends[i]].
	Entries []DictEntry
	Ends    []int
	// Extra[i] is the index of algebra i's extra reference, or -1 where it
	// was the zero RefID (no extra reference).
	Extra []int
}

// DictEntry is one algebra entry naming its reference by index into
// Dict.Refs.
type DictEntry struct {
	Index uint32
	Entry Entry
}

// Section returns algebra i's entries.
func (d *Dict) Section(i int) []DictEntry {
	start := 0
	if i > 0 {
		start = d.Ends[i-1]
	}
	return d.Entries[start:d.Ends[i]]
}

// dictKey is one reference occurrence during NewDict: its canonical key —
// the node part of the key word rewritten to node-name ranks, as in
// EachCanonical — and where it came from: an entry of algebra alg, or that
// algebra's extra reference.
type dictKey struct {
	e     algEntry
	alg   int32
	extra bool
}

func cmpDictKeys(x, y dictKey) int { return x.e.cmpKey(y.e.nodes(), y.e.obj) }

// NewDict builds the dictionary of n algebras: at(i) returns algebra i and
// its extra reference (the zero RefID for none). Every occurrence is keyed by
// node-name rank under one node-table snapshot and the lot is sorted once, an
// integer sort comparing no strings; one walk of the sorted keys then assigns
// the indices and lays out each algebra's entries. Cost O(T log T) for T
// occurrences, however the algebras overlap.
func NewDict(n int, at func(i int) (Alg, ids.RefID)) Dict {
	total := 0
	for i := 0; i < n; i++ {
		a, extra := at(i)
		total += a.Len()
		if extra != (ids.RefID{}) {
			internNodes(extra) // the snapshot below must resolve it
			total++
		}
	}
	names := nodeTab.Snapshot()
	ranked := func(word uint64) uint64 {
		return nodesWord(names.Rank(srcOf(word)), names.Rank(dstOf(word)))
	}
	keys := make([]dictKey, 0, total)
	d := Dict{Ends: make([]int, n), Extra: make([]int, n)}
	for i := 0; i < n; i++ {
		a, extra := at(i)
		for _, e := range a.entries() {
			e.word = ranked(e.word) | e.bits()
			keys = append(keys, dictKey{e: e, alg: int32(i)})
		}
		d.Ends[i] = a.Len() // a count until the walk below
		d.Extra[i] = -1
		if extra != (ids.RefID{}) {
			word, _ := lookupNodes(extra)
			e := algEntry{word: ranked(word), obj: extra.Dst.Obj}
			keys = append(keys, dictKey{e: e, alg: int32(i), extra: true})
		}
	}
	slices.SortFunc(keys, cmpDictKeys)

	// Ends becomes each algebra's write cursor, starting at its offset, and
	// ends at its end: the keys arrive in index order, so each algebra's
	// entries are laid out ascending without a sort of their own.
	off := 0
	for i, c := range d.Ends {
		d.Ends[i], off = off, off+c
	}
	d.Entries = make([]DictEntry, off)
	d.Refs = make([]ids.RefID, 0, total)
	for i, k := range keys {
		if i == 0 || cmpDictKeys(keys[i-1], k) != 0 {
			d.Refs = append(d.Refs, ids.RefID{
				Src: names.ByRank(srcOf(k.e.word)),
				Dst: ids.GlobalRef{Node: names.ByRank(dstOf(k.e.word)), Obj: k.e.obj},
			})
		}
		idx := len(d.Refs) - 1
		if k.extra {
			d.Extra[k.alg] = idx
			continue
		}
		d.Entries[d.Ends[k.alg]] = DictEntry{Index: uint32(idx), Entry: k.e.entry()}
		d.Ends[k.alg]++
	}
	return d
}
