package heap

import (
	"dgc/internal/ids"
)

// traverse breadth-first marks every object reachable from seeds with epoch
// gen, skipping objects already carrying it, and returns the slots it newly
// marked in BFS order. The returned slice aliases the reusable queue: it is
// valid only until the next traversal. The queue holds slots, not pointers,
// so it never keeps a swept object alive.
func (h *Heap) traverse(gen uint64, seeds []ids.ObjID) []int32 {
	queue := h.queue[:0]
	for _, s := range seeds {
		if e := h.objects[s]; e != nil && e.mark != gen {
			e.mark = gen
			queue = append(queue, e.slot)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, next := range h.order[queue[head]].Locals {
			// A nil entry is a dangling local ref to an already-swept object.
			if e := h.objects[next]; e != nil && e.mark != gen {
				e.mark = gen
				queue = append(queue, e.slot)
			}
		}
	}
	h.queue = queue
	return queue
}

// Mark is an epoch-stamped reachability marking over a heap, produced by
// MarkReachable: every reached object's record carries the Mark's epoch. A
// Mark stays valid only until the heap's next marking traversal
// (MarkReachable, ReachableFrom or ReachableFromRoots) starts a newer epoch.
// Collectors that need one set at a time (the LGC mark phase) use Marks to
// avoid allocating a set per collection; callers that retain sets use
// ReachableFrom.
type Mark struct {
	h     *Heap
	gen   uint64
	count int
}

// check panics if a newer traversal has invalidated the mark.
func (m Mark) check() {
	if m.h.markGen != m.gen {
		panic("heap: Mark used after a newer traversal invalidated it")
	}
}

// Contains reports whether the object was reachable when the mark was taken.
// Must not be called after a newer marking traversal on the same heap.
func (m Mark) Contains(id ids.ObjID) bool {
	m.check()
	e := m.h.objects[id]
	return e != nil && e.mark == m.gen
}

// Len returns the number of marked objects.
func (m Mark) Len() int { return m.count }

// Extend marks, in the same epoch, everything reachable from further seeds
// that the mark does not already hold: MarkReachable(a...) followed by
// Extend(b...) marks exactly what MarkReachable(a..., b...) would.
func (m *Mark) Extend(seeds ...ids.ObjID) {
	m.check()
	m.count += len(m.h.traverse(m.gen, seeds))
}

// MarkScratchLen returns the number of slots the ordered store holds, live
// objects plus tombstones not yet compacted: the per-object collector state
// the heap retains. Delete keeps it within twice the live objects, and Sweep
// and every ordered pass bring it back to exactly the live objects. For
// diagnostics and the bounded-state property tests.
func (h *Heap) MarkScratchLen() int { return len(h.order) }

// MarkReachable computes the set of objects transitively reachable from the
// given seeds following intra-process references only, as an epoch Mark
// stamped into the objects' records (no per-call allocation once the queue
// is warm). Seeds that do not exist are ignored.
func (h *Heap) MarkReachable(seeds ...ids.ObjID) Mark {
	h.markGen++
	return Mark{h: h, gen: h.markGen, count: len(h.traverse(h.markGen, seeds))}
}

// Sweep deletes every object the mark does not hold, in one pass over the
// ordered store that also closes its tombstones, and returns the number
// deleted. The mark stays valid: every survivor carries its epoch.
func (h *Heap) Sweep(m Mark) int {
	m.check()
	n, swept := 0, 0
	for _, e := range h.order {
		switch {
		case e == nil:
		case e.mark == m.gen:
			e.slot = int32(n)
			h.order[n] = e
			n++
		default:
			delete(h.objects, e.ID)
			delete(h.roots, e.ID)
			swept++
		}
	}
	h.setLen(n)
	return swept
}

// ReachableFrom computes the set of objects transitively reachable from the
// given seed objects following intra-process references only (inter-process
// references are the boundary of the local trace; the distributed layers
// handle them through stubs and scions). Seeds that do not exist are ignored.
//
// The traversal is breadth-first, matching the paper's summarizer ("it
// transverses the graph, breadth-first, in order to minimize overhead"). The
// returned map is owned by the caller; internal traversal state is reused
// across calls.
func (h *Heap) ReachableFrom(seeds ...ids.ObjID) map[ids.ObjID]struct{} {
	h.markGen++
	reached := h.traverse(h.markGen, seeds)
	visited := make(map[ids.ObjID]struct{}, len(reached))
	for _, slot := range reached {
		visited[h.order[slot].ID] = struct{}{}
	}
	return visited
}

// ReachableFromRoots computes the locally reachable set: objects transitively
// reachable from the process-local root set.
func (h *Heap) ReachableFromRoots() map[ids.ObjID]struct{} {
	return h.ReachableFrom(h.Roots()...)
}

// RemoteRefsFrom returns the distinct inter-process references held by
// objects in the given set, in canonical order. This is the stub-set
// computation: the stubs a process needs are exactly the remote references
// held by its live objects.
func (h *Heap) RemoteRefsFrom(set map[ids.ObjID]struct{}) []ids.GlobalRef {
	seen := make(map[ids.GlobalRef]struct{})
	for id := range set {
		e := h.objects[id]
		if e == nil {
			continue
		}
		for _, r := range e.Remotes {
			seen[r] = struct{}{}
		}
	}
	out := make([]ids.GlobalRef, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	ids.SortGlobalRefs(out)
	return out
}

// RemoteRefsFromMark is RemoteRefsFrom over an epoch Mark instead of a
// caller-owned set.
func (h *Heap) RemoteRefsFromMark(m Mark) []ids.GlobalRef {
	m.check()
	seen := make(map[ids.GlobalRef]struct{})
	for _, e := range h.order {
		if e == nil || e.mark != m.gen {
			continue
		}
		for _, r := range e.Remotes {
			seen[r] = struct{}{}
		}
	}
	out := make([]ids.GlobalRef, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	ids.SortGlobalRefs(out)
	return out
}

// HoldersOf returns the set of objects that directly hold a remote reference
// to target. This is a full-heap scan; the summarizer uses Index's reverse
// holder table instead, built once per summarization.
func (h *Heap) HoldersOf(target ids.GlobalRef) map[ids.ObjID]struct{} {
	holders := make(map[ids.ObjID]struct{})
	for id, e := range h.objects {
		for _, r := range e.Remotes {
			if r == target {
				holders[id] = struct{}{}
				break
			}
		}
	}
	return holders
}
