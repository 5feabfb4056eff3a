// Package snapshot implements the two snapshot facilities of the paper:
//
//   - serialization of a process's object graph (the costly operation §4
//     measures, with a deliberately naive reflective codec standing in for
//     Rotor's serializer and a compact binary codec standing in for
//     production .NET), and
//
//   - graph summarization: reducing a snapshot to the only information the
//     cycle detector needs — per scion, the stubs transitively reachable
//     from it (StubsFrom); per stub, the scions leading to it (ScionsTo) and
//     a local-reachability flag (Local.Reach); plus the invocation counters
//     captured at snapshot time (§3 "Graph Summarization").
package snapshot

import (
	"math/bits"
	"slices"

	"dgc/internal/core"
	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/refs"
)

// Summarize builds the summarized graph description from a heap and its
// reference tables. The heap passed in should be a snapshot (heap.Clone) when
// the mutator runs concurrently; in the deterministic simulation the live
// heap may be summarized directly between mutator steps.
//
// The engine is single-pass: it builds a dense heap.Index (adjacency plus a
// reverse holder table), condenses the local graph into strongly connected
// components, and propagates per-component *scion bitsets* along the
// condensation in topological order. Every scion's transitive stub set and
// every stub's scion set then fall out of one O(words) union per holder,
// for a total cost of O(V + E x S/64) instead of the former per-scion BFS's
// O(S x (V + E)). References strictly internal to the process fold away;
// output lists are emitted directly in canonical order.
func Summarize(h *heap.Heap, table *refs.Table, version uint64) *core.Summary {
	ix := h.BuildIndex()
	rootReach := ix.RootFlags() // Local.Reach per dense index
	self := h.Node()

	// Stub records from the stub table, in canonical target order, each
	// paired with its index target if a heap object holds it. A remote ref
	// held in the heap without a stub record (possible between LGC rounds)
	// is skipped conservatively, exactly as the per-scion implementation
	// did.
	stubs := table.Stubs()
	sum := &core.Summary{Node: self, Version: version, Stubs: make([]core.StubSummary, len(stubs))}
	type held struct{ t, s int32 }
	helds := make([]held, 0, len(stubs))
	for s, st := range stubs {
		sum.Stubs[s] = core.StubSummary{Target: st.Target, IC: st.IC}
		if t, ok := slices.BinarySearchFunc(ix.Targets(), st.Target, ids.GlobalRef.Compare); ok {
			helds = append(helds, held{int32(t), int32(s)})
		}
	}

	// Scion records in canonical (Src, Obj) order. Because every RefID
	// shares this node as Dst.Node, canonical RefID order coincides with
	// this order, so lists built by ascending scion index need no sort.
	scions := table.Scions()
	sum.Scions = make([]core.ScionSummary, len(scions))
	for i, sc := range scions {
		p, ok := ix.Pos(sc.Obj)
		sum.Scions[i] = core.ScionSummary{Ref: sc.RefID(self), IC: sc.IC, Active: sc.Active, LocalReach: ok && rootReach[p]}
	}

	// Seed each scion's bit at its object's component, then push the
	// bitsets through the condensation DAG. Component ids come out of
	// Tarjan in completion order, so descending id is a topological order:
	// processing a component pushes the union of everything that reaches it
	// onto its successors exactly once. Without scions only the stubs'
	// Local.Reach flags are needed.
	words := (len(scions) + 63) / 64
	var comp []int32
	var rows []uint64
	if words > 0 {
		var ncomp int32
		comp, ncomp = ix.SCC()
		rows = make([]uint64, int(ncomp)*words)
		for i, sc := range scions {
			if p, ok := ix.Pos(sc.Obj); ok {
				rows[int(comp[p])*words+i>>6] |= 1 << (uint(i) & 63)
			}
		}
		compAdj := ix.Condense(comp, ncomp)
		for c := int(ncomp) - 1; c >= 0; c-- {
			row := rows[c*words : (c+1)*words]
			for _, d := range compAdj[c] {
				drow := rows[int(d)*words : (int(d)+1)*words]
				for w := range drow {
					drow[w] |= row[w]
				}
			}
		}
	}

	// Count pass: for each held stub, union the scion sets of its holders
	// and count the set bits per scion, so each list kind can be carved out
	// of one backing array.
	unions := make([]uint64, len(helds)*words)
	fromN := make([]int, len(scions))
	total := 0
	for k, hd := range helds {
		union := unions[k*words : (k+1)*words]
		for _, hp := range ix.Holders(hd.t) {
			if rootReach[hp] {
				sum.Stubs[hd.s].LocalReach = true
			}
			if words > 0 {
				row := rows[int(comp[hp])*words:]
				for w := range union {
					union[w] |= row[w]
				}
			}
		}
		for w, word := range union {
			for ; word != 0; word &= word - 1 {
				fromN[w*64+bits.TrailingZeros64(word)]++
				total++
			}
		}
	}
	if total == 0 {
		return sum
	}
	from := make([]ids.GlobalRef, total)
	off := 0
	for i, n := range fromN {
		if n > 0 {
			sum.Scions[i].StubsFrom = from[off : off : off+n]
			off += n
		}
	}

	// Fill pass: distribute the set bits into StubsFrom and ScionsTo. Held
	// stubs go in canonical order and bits in ascending scion order, so both
	// orders are canonical by construction.
	to := make([]ids.RefID, 0, total)
	for k, hd := range helds {
		st := &sum.Stubs[hd.s]
		start := len(to)
		for w, word := range unions[k*words : (k+1)*words] {
			for ; word != 0; word &= word - 1 {
				si := w*64 + bits.TrailingZeros64(word)
				sum.Scions[si].StubsFrom = append(sum.Scions[si].StubsFrom, st.Target)
				to = append(to, sum.Scions[si].Ref)
			}
		}
		if len(to) > start {
			st.ScionsTo = to[start:len(to):len(to)]
		}
	}
	return sum
}
