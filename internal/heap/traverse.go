package heap

import (
	"dgc/internal/ids"
)

// nextMarkGen advances the epoch of the shared marking scratch and returns
// it. Allocates the scratch map lazily; an epoch is never zero, so stale
// entries from earlier traversals can never satisfy a Contains check.
func (h *Heap) nextMarkGen() uint64 {
	if h.marked == nil {
		h.marked = make(map[ids.ObjID]uint64, len(h.objects))
	}
	h.markGen++
	return h.markGen
}

// traverse breadth-first marks every object reachable from seeds in the
// shared epoch scratch, returning the epoch and the visited objects in BFS
// order. The returned slice aliases the reusable queue buffer: it is valid
// only until the next traversal. The queue is drained with an index cursor
// (the former queue = queue[1:] head-slicing retained the backing array
// while still growing a fresh one per call).
func (h *Heap) traverse(seeds []ids.ObjID) (gen uint64, visited []ids.ObjID) {
	gen = h.nextMarkGen()
	queue := h.queueBuf[:0]
	for _, s := range seeds {
		if h.Contains(s) && h.marked[s] != gen {
			h.marked[s] = gen
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		o := h.objects[queue[head]]
		for _, next := range o.Locals {
			if !h.Contains(next) {
				continue // dangling local ref to an already-swept object
			}
			if h.marked[next] != gen {
				h.marked[next] = gen
				queue = append(queue, next)
			}
		}
	}
	h.queueBuf = queue
	return gen, queue
}

// Mark is an epoch-stamped reachability marking over a heap, produced by
// MarkReachable. A Mark is a view into shared scratch: it stays valid only
// until the heap's next marking traversal (MarkReachable, ReachableFrom or
// ReachableFromRoots), which recycles the epoch structure. Collectors that
// need one set at a time (the LGC mark phase) use Marks to avoid allocating
// a fresh map per collection; callers that retain sets use ReachableFrom.
type Mark struct {
	h     *Heap
	gen   uint64
	count int
}

// Contains reports whether the object was reachable when the mark was taken.
// Must not be called after a newer marking traversal on the same heap.
func (m Mark) Contains(id ids.ObjID) bool {
	if m.h.markGen != m.gen {
		panic("heap: Mark used after a newer traversal invalidated it")
	}
	return m.h.marked[id] == m.gen
}

// Len returns the number of marked objects.
func (m Mark) Len() int { return m.count }

// MarkScratchLen returns the number of entries the shared marking scratch
// holds: at most one per live object, since Delete drops a swept object's
// entry. For diagnostics and the bounded-state property tests.
func (h *Heap) MarkScratchLen() int { return len(h.marked) }

// MarkReachable computes the set of objects transitively reachable from the
// given seeds following intra-process references only, as an epoch Mark over
// reusable scratch (no per-call allocation once the scratch is warm). Seeds
// that do not exist are ignored.
func (h *Heap) MarkReachable(seeds ...ids.ObjID) Mark {
	gen, visited := h.traverse(seeds)
	return Mark{h: h, gen: gen, count: len(visited)}
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
	_, order := h.traverse(seeds)
	visited := make(map[ids.ObjID]struct{}, len(order))
	for _, id := range order {
		visited[id] = struct{}{}
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
		o := h.objects[id]
		if o == nil {
			continue
		}
		for _, r := range o.Remotes {
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
	seen := make(map[ids.GlobalRef]struct{})
	for id, o := range h.objects {
		if !m.Contains(id) {
			continue
		}
		for _, r := range o.Remotes {
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
	for id, o := range h.objects {
		for _, r := range o.Remotes {
			if r == target {
				holders[id] = struct{}{}
				break
			}
		}
	}
	return holders
}

// EdgeCount returns the total number of intra-process plus inter-process
// references in the heap. Used by workload generators and stats.
func (h *Heap) EdgeCount() (local, remote int) {
	for _, o := range h.objects {
		local += len(o.Locals)
		remote += len(o.Remotes)
	}
	return local, remote
}
