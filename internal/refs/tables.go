// Package refs implements the data structures and protocol of the acyclic
// distributed garbage collector the paper builds on: reference listing
// (Shapiro, Dickman, Plainfossé 1992).
//
// A Stub represents an outgoing inter-process reference held by this
// process; a Scion represents an incoming inter-process reference to one of
// this process's objects. Both carry an invocation counter (IC), the paper's
// concurrency-control extension (§3.2): the counter is incremented on every
// remote invocation (and reply) performed through the reference and
// piggy-backed on the message, so the two ends of a quiescent reference hold
// equal counters.
//
// Reference listing's unit is the (holder, owner) pair: a NewSetStubs message
// is one peer's complete set under one per-peer sequence number, and a holder
// lease covers every scion one peer holds. The Table is therefore kept per
// peer, and every per-peer decision reads one record.
package refs

import (
	"cmp"
	"fmt"
	"slices"

	"dgc/internal/ids"
)

// Stub is the client-side record of one outgoing inter-process reference.
// There is at most one stub per (this process, target object); several local
// objects may hold the same remote reference and share the stub.
type Stub struct {
	Target ids.GlobalRef // the remote object referenced
	IC     uint64        // invocation counter (paper §3.2)
}

// Scion is the owner-side record of one incoming inter-process reference.
// There is at most one scion per (source process, local object): reference
// listing keeps one entry per client process, not a count.
type Scion struct {
	Src ids.NodeID // process holding the reference
	Obj ids.ObjID  // local object referenced
	IC  uint64     // invocation counter (paper §3.2)
	// Active is the tick of the last creation, re-grant or invocation:
	// candidacy's quiescence stamp. Not persisted; a restored scion reads 0.
	Active uint64
}

// scion is the stored part of a Scion: its peer and object are the key.
type scion struct{ ic, active uint64 }

// RefID returns the inter-process reference this scion is one end of.
func (s Scion) RefID(owner ids.NodeID) ids.RefID {
	return ids.RefID{Src: s.Src, Dst: ids.GlobalRef{Node: owner, Obj: s.Obj}}
}

// peer is everything this process keeps about one other process.
type peer struct {
	// Each reference is keyed by the object at its owner: a stub is its
	// counter, a scion a scion record. Only the Table writes them.
	stubs  map[ids.ObjID]uint64 // this process's references into the peer
	scions map[ids.ObjID]scion  // the peer's references into this process

	// The stub-set protocol (acyclic.go). owed is set once the peer has
	// held a stub of ours: from then on it is sent a set every scheduled
	// round, empty or not. lastSent fingerprints the set last sent (valid
	// when sent); it is not persisted, so a restored process restates.
	owed     bool
	outSeq   uint64 // last sequence number sent to the peer
	inSeq    uint64 // highest sequence number applied from the peer
	sent     bool
	lastSent uint64

	// The holder lease (leases.go): the tick the peer was last heard from
	// (valid when heard), the incarnation of its current grant, and the
	// scions taken into custody by its drain handoff.
	heard       bool
	renewed     uint64
	incarnation uint64
	custodial   map[ids.ObjID]struct{}
}

// Table holds the stub and scion tables of one process, one record per
// peer. Table is not safe for concurrent use; the owning node serializes
// access.
type Table struct {
	node  ids.NodeID
	peers map[ids.NodeID]*peer
	names []ids.NodeID // the keys of peers, ascending
}

// NewTable returns empty stub/scion tables for the given process.
func NewTable(node ids.NodeID) *Table {
	return &Table{node: node, peers: make(map[ids.NodeID]*peer)}
}

// peer returns n's record, creating it.
func (t *Table) peer(n ids.NodeID) *peer {
	if p := t.peers[n]; p != nil {
		return p
	}
	p := &peer{stubs: make(map[ids.ObjID]uint64), scions: make(map[ids.ObjID]scion)}
	t.peers[n] = p
	i, _ := slices.BinarySearch(t.names, n)
	t.names = slices.Insert(t.names, i, n)
	return p
}

// Node returns the owning process identifier.
func (t *Table) Node() ids.NodeID { return t.node }

// EnsureStub creates the stub for target (with IC zero) if there is none,
// reporting whether it did.
func (t *Table) EnsureStub(target ids.GlobalRef) (created bool) {
	if t.HasStub(target) {
		return false
	}
	t.RestoreStub(target, 0)
	return true
}

// StubIC returns the invocation counter of the stub for target, and
// whether there is one.
func (t *Table) StubIC(target ids.GlobalRef) (ic uint64, ok bool) {
	if p := t.peers[target.Node]; p != nil {
		ic, ok = p.stubs[target.Obj]
	}
	return ic, ok
}

// HasStub reports whether there is a stub for target.
func (t *Table) HasStub(target ids.GlobalRef) bool {
	_, ok := t.StubIC(target)
	return ok
}

// DeleteStub removes the stub for target (no-op if absent).
func (t *Table) DeleteStub(target ids.GlobalRef) {
	if t.HasStub(target) {
		delete(t.peers[target.Node].stubs, target.Obj)
	}
}

// StubObjs returns the objects at peer n this process holds stubs to, in
// ascending order (nil when there are none).
func (t *Table) StubObjs(n ids.NodeID) []ids.ObjID {
	var out []ids.ObjID
	if p := t.peers[n]; p != nil {
		for o := range p.stubs {
			out = append(out, o)
		}
	}
	slices.Sort(out)
	return out
}

// Peers returns every process this table has a record for, ascending.
func (t *Table) Peers() []ids.NodeID { return slices.Clone(t.names) }

// Stubs returns a copy of every stub in canonical target order.
func (t *Table) Stubs() []Stub {
	out := make([]Stub, 0, t.NumStubs())
	for _, n := range t.names {
		start := len(out)
		for o, ic := range t.peers[n].stubs {
			out = append(out, Stub{Target: ids.GlobalRef{Node: n, Obj: o}, IC: ic})
		}
		slices.SortFunc(out[start:], func(x, y Stub) int { return cmp.Compare(x.Target.Obj, y.Target.Obj) })
	}
	return out
}

// NumStubs returns the number of stubs.
func (t *Table) NumStubs() int {
	n := 0
	for _, p := range t.peers {
		n += len(p.stubs)
	}
	return n
}

// EnsureScion creates the scion for (src, obj) (with IC zero) if there is
// none, reporting whether it did, and stamps it active at now: a grant of an
// existing scion is activity on it too.
func (t *Table) EnsureScion(src ids.NodeID, obj ids.ObjID, now uint64) (created bool) {
	sc, ok := t.scion(src, obj)
	t.setScion(src, obj, scion{ic: sc.ic, active: now})
	return !ok
}

// scion returns the stored record of the scion for (src, obj).
func (t *Table) scion(src ids.NodeID, obj ids.ObjID) (sc scion, ok bool) {
	if p := t.peers[src]; p != nil {
		sc, ok = p.scions[obj]
	}
	return sc, ok
}

// ScionIC returns the invocation counter of the scion for (src, obj), and
// whether there is one.
func (t *Table) ScionIC(src ids.NodeID, obj ids.ObjID) (ic uint64, ok bool) {
	sc, ok := t.scion(src, obj)
	return sc.ic, ok
}

// HasScion reports whether there is a scion for (src, obj).
func (t *Table) HasScion(src ids.NodeID, obj ids.ObjID) bool {
	_, ok := t.ScionIC(src, obj)
	return ok
}

// DeleteScion removes the scion for (src, obj). It reports whether a scion
// was present.
func (t *Table) DeleteScion(src ids.NodeID, obj ids.ObjID) bool {
	if !t.HasScion(src, obj) {
		return false
	}
	delete(t.peers[src].scions, obj)
	return true
}

// Scions returns a copy of every scion in canonical (src, obj) order.
func (t *Table) Scions() []Scion {
	out := make([]Scion, 0, t.NumScions())
	for _, n := range t.names {
		start := len(out)
		for o, sc := range t.peers[n].scions {
			out = append(out, Scion{Src: n, Obj: o, IC: sc.ic, Active: sc.active})
		}
		slices.SortFunc(out[start:], func(x, y Scion) int { return cmp.Compare(x.Obj, y.Obj) })
	}
	return out
}

// NumScions returns the number of scions.
func (t *Table) NumScions() int {
	n := 0
	for _, p := range t.peers {
		n += len(p.scions)
	}
	return n
}

// ScionTargets returns the distinct local objects protected by at least one
// scion, in ascending order. These are extra roots for the local collector.
func (t *Table) ScionTargets() []ids.ObjID {
	out := make([]ids.ObjID, 0, t.NumScions())
	for _, p := range t.peers {
		for o := range p.scions {
			out = append(out, o)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// dropScions deletes the scions src holds whose object drop selects and
// returns them in canonical order.
func (t *Table) dropScions(src ids.NodeID, drop func(ids.ObjID) bool) []Scion {
	var out []Scion
	p := t.peers[src]
	for obj, sc := range p.scions {
		if drop(obj) {
			out = append(out, Scion{Src: src, Obj: obj, IC: sc.ic, Active: sc.active})
			delete(p.scions, obj)
		}
	}
	slices.SortFunc(out, func(x, y Scion) int { return cmp.Compare(x.Obj, y.Obj) })
	return out
}

// RestoreStub sets the stub for target to an explicit invocation counter,
// creating it if needed: the one writer of stubs, and the state loader's.
func (t *Table) RestoreStub(target ids.GlobalRef, ic uint64) {
	p := t.peer(target.Node)
	p.stubs[target.Obj] = ic
	p.owed = true
}

// RestoreScion sets the scion for (src, obj) to an explicit invocation
// counter, creating it if needed: the state loader's writer. The activity
// stamp is not persisted, so a restored scion reads as active at time zero.
func (t *Table) RestoreScion(src ids.NodeID, obj ids.ObjID, ic uint64) {
	t.setScion(src, obj, scion{ic: ic})
}

// setScion is the one writer of scions, as RestoreStub is of stubs.
func (t *Table) setScion(src ids.NodeID, obj ids.ObjID, sc scion) {
	t.peer(src).scions[obj] = sc
}

// BumpStubIC increments the invocation counter of the stub for target and
// returns the new value. It is an error if the stub does not exist: an
// invocation can only travel through an existing reference.
func (t *Table) BumpStubIC(target ids.GlobalRef) (uint64, error) {
	ic, ok := t.StubIC(target)
	if !ok {
		return 0, fmt.Errorf("refs %s: BumpStubIC: no stub for %v", t.node, target)
	}
	t.RestoreStub(target, ic+1)
	return ic + 1, nil
}

// BumpScionIC increments the invocation counter of the scion for (src, obj),
// stamps it active at now and returns the new counter.
func (t *Table) BumpScionIC(src ids.NodeID, obj ids.ObjID, now uint64) (uint64, error) {
	sc, ok := t.scion(src, obj)
	if !ok {
		return 0, fmt.Errorf("refs %s: BumpScionIC: no scion for %s->%d", t.node, src, obj)
	}
	t.setScion(src, obj, scion{ic: sc.ic + 1, active: now})
	return sc.ic + 1, nil
}
