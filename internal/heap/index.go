package heap

import (
	"slices"

	"dgc/internal/ids"
)

// Index is a dense, array-backed view of one heap, built in a single pass:
// objects are numbered by ascending ObjID, local references become int32
// adjacency lists, and the distinct remote targets get both a forward table
// (remote refs per object) and a reverse holder table (objects per target).
//
// The summarizer builds one Index per summarization and runs every
// traversal against it, replacing the per-scion BFS over maps and the
// per-stub full-heap HoldersOf scans. An Index is a snapshot of the heap's
// structure: it is not updated by later mutations.
type Index struct {
	h   *Heap
	ids []ids.ObjID // ascending; slice position is the dense index

	// Local out-edges, dangling refs dropped: object v's successors are
	// edges[off[v]:off[v+1]].
	off   []int32
	edges []int32

	targets []ids.GlobalRef         // distinct remote targets, canonical order
	tpos    map[ids.GlobalRef]int32 // reverse of targets
	holders [][]int32               // target index -> holder object indices, ascending
}

// BuildIndex constructs the dense view of the heap's current structure in
// O(V + E). The ordered store is compacted first, so an object's slot is its
// dense index and no position table is needed.
func (h *Heap) BuildIndex() *Index {
	order := h.ordered()
	n := len(order)
	ix := &Index{
		h:   h,
		ids: make([]ids.ObjID, n),
		off: make([]int32, n+1),
	}

	// Remote target numbering, canonical order so downstream lists come out
	// sorted without a per-list sort.
	seen := make(map[ids.GlobalRef]struct{})
	nedges := 0
	for i, e := range order {
		ix.ids[i] = e.ID
		nedges += len(e.Locals)
		for _, r := range e.Remotes {
			seen[r] = struct{}{}
		}
	}
	ix.targets = make([]ids.GlobalRef, 0, len(seen))
	for r := range seen {
		ix.targets = append(ix.targets, r)
	}
	ids.SortGlobalRefs(ix.targets)
	ix.tpos = make(map[ids.GlobalRef]int32, len(ix.targets))
	for i, r := range ix.targets {
		ix.tpos[r] = int32(i)
	}

	ix.edges = make([]int32, 0, nedges)
	ix.holders = make([][]int32, len(ix.targets))
	for i, e := range order {
		for _, l := range e.Locals {
			if t := h.objects[l]; t != nil { // dangling refs fold away
				ix.edges = append(ix.edges, t.slot)
			}
		}
		ix.off[i+1] = int32(len(ix.edges))
		// Reverse holder table, deduplicated per object (an object holding
		// the same remote ref twice is one holder).
		for ri, r := range e.Remotes {
			if !slices.Contains(e.Remotes[:ri], r) {
				t := ix.tpos[r]
				ix.holders[t] = append(ix.holders[t], int32(i))
			}
		}
	}
	return ix
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return len(ix.ids) }

// out returns the local successors of dense index v.
func (ix *Index) out(v int32) []int32 { return ix.edges[ix.off[v]:ix.off[v+1]] }

// Pos returns the dense index of an object id, by binary search over the
// indexed ids, so it answers for the heap as it was at the build whatever
// has changed since.
func (ix *Index) Pos(id ids.ObjID) (int32, bool) {
	p, ok := slices.BinarySearch(ix.ids, id)
	return int32(p), ok
}

// Targets returns the distinct remote targets held anywhere in the heap, in
// canonical order.
func (ix *Index) Targets() []ids.GlobalRef { return ix.targets }

// Holders returns the dense indices of the objects directly holding the
// remote target with index t, in ascending order. This is the reverse
// holder index: one map lookup plus a slice, replacing a full-heap scan.
func (ix *Index) Holders(t int32) []int32 { return ix.holders[t] }

// RootFlags computes, per dense index, whether the object is reachable from
// the process-local root set: the Local.Reach input of the summarizer.
func (ix *Index) RootFlags() []bool {
	reach := make([]bool, len(ix.ids))
	queue := make([]int32, 0, len(ix.ids))
	for id := range ix.h.roots {
		if p, ok := ix.Pos(id); ok && !reach[p] {
			reach[p] = true
			queue = append(queue, p)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, e := range ix.out(queue[head]) {
			if !reach[e] {
				reach[e] = true
				queue = append(queue, e)
			}
		}
	}
	return reach
}

// SCC computes the strongly connected components of the local reference
// graph with an iterative Tarjan traversal. It returns the component id per
// dense index and the component count. Component ids are assigned in
// completion order, so every condensation edge u -> v satisfies
// comp[u] > comp[v]: ascending component id is a reverse-topological order
// of the condensation.
func (ix *Index) SCC() (comp []int32, ncomp int32) {
	n := len(ix.ids)
	comp = make([]int32, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onstack := make([]bool, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	stack := make([]int32, 0, n)
	type frame struct {
		v  int32
		ei int
	}
	var call []frame
	var next int32

	push := func(v int32) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onstack[v] = true
		call = append(call, frame{v: v})
	}

	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		push(int32(root))
		for len(call) > 0 {
			f := &call[len(call)-1]
			if out := ix.out(f.v); f.ei < len(out) {
				w := out[f.ei]
				f.ei++
				if index[w] == -1 {
					push(w)
				} else if onstack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// f.v fully explored.
			if low[f.v] == index[f.v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onstack[w] = false
					comp[w] = ncomp
					if w == f.v {
						break
					}
				}
				ncomp++
			}
			lowV := low[f.v]
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := &call[len(call)-1]
				if lowV < low[parent.v] {
					low[parent.v] = lowV
				}
			}
		}
	}
	return comp, ncomp
}

// Condense returns the condensation adjacency: for each component, the
// distinct successor components (self-edges removed). The dedup is
// best-effort via a last-seen stamp; occasional duplicate entries are
// harmless to bitset propagation and bounded by the edge count.
func (ix *Index) Condense(comp []int32, ncomp int32) [][]int32 {
	compAdj := make([][]int32, ncomp)
	lastSeen := make([]int32, ncomp)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	for v := range ix.ids {
		cv := comp[v]
		for _, w := range ix.out(int32(v)) {
			cw := comp[w]
			if cw == cv || lastSeen[cw] == cv {
				continue
			}
			lastSeen[cw] = cv
			compAdj[cv] = append(compAdj[cv], cw)
		}
	}
	return compAdj
}
