// Package lgc implements the per-process local garbage collector (LGC): a
// tracing mark-and-sweep collector over a node's heap.
//
// The cooperation contract with the acyclic distributed collector (paper §4)
// is exactly two-sided:
//
//  1. the LGC treats scion targets as additional roots, so objects that are
//     only remotely reachable are preserved;
//  2. after each collection the LGC regenerates the stub table from the
//     remote references held by surviving objects, which feeds the
//     NewSetStubs protocol.
//
// Note the deliberate asymmetry that makes distributed cycles leak (and the
// DCDA necessary): scions act as roots, so a cycle threading several
// processes keeps every local fragment alive even when no process can reach
// it from a real root.
package lgc

import (
	"dgc/internal/heap"
	"dgc/internal/ids"
	"dgc/internal/refs"
)

// Result reports one collection.
type Result struct {
	// Swept is the number of objects reclaimed.
	Swept int
	// StubsCreated / StubsDeleted count stub-table changes from the
	// regeneration step.
	StubsCreated int
	StubsDeleted int
	// Live is the number of surviving objects.
	Live int
	// LocallyReachable is the number of survivors reachable from real local
	// roots (as opposed to kept alive only by scions).
	LocallyReachable int
}

// Collector binds an LGC to one node's heap and reference tables.
type Collector struct {
	heap  *heap.Heap
	table *refs.Table
	// Rounds counts completed collections.
	Rounds int
}

// New returns a collector over the given heap and tables.
func New(h *heap.Heap, t *refs.Table) *Collector {
	return &Collector{heap: h, table: t}
}

// Collect runs one full mark-and-sweep cycle and regenerates the stub table.
//
// pinned lists outgoing references that must keep their stubs even if no
// live object currently holds them: references "on the stack" of an
// in-flight remote invocation (exported arguments or returns whose scions
// are still being created). They play the role of thread-stack roots for
// the distributed collector.
func (c *Collector) Collect(pinned ...ids.GlobalRef) Result {
	var res Result

	// Mark. One trace in one epoch: from the real local roots first, so the
	// count at that point is the locally reachable population, then on from
	// the scion targets to the actual liveness.
	mark := c.heap.MarkReachable(c.heap.Roots()...)
	res.LocallyReachable = mark.Len()
	mark.Extend(c.table.ScionTargets()...)

	// Sweep. Deleting objects does not disturb the mark epoch.
	res.Swept = c.heap.Sweep(mark)

	// Regenerate the stub table: stubs are exactly the remote references
	// held by live objects ("the LGC generates a new set of stubs each time
	// it runs", §1). Invocation counters of surviving stubs are preserved.
	wanted := make(map[ids.GlobalRef]struct{})
	for _, r := range c.heap.RemoteRefsFromMark(mark) {
		wanted[r] = struct{}{}
	}
	for _, r := range pinned {
		wanted[r] = struct{}{}
	}
	for _, s := range c.table.Stubs() {
		if _, ok := wanted[s.Target]; !ok {
			c.table.DeleteStub(s.Target)
			res.StubsDeleted++
		}
	}
	for r := range wanted {
		if c.table.EnsureStub(r) {
			res.StubsCreated++
		}
	}

	res.Live = c.heap.Len()
	c.Rounds++
	return res
}
