package node

import (
	"dgc/internal/ids"
)

// Mutator is the application's view of a process's heap. Mutator values
// are only handed out inside the machine (via With, method handlers and
// reply callbacks), where inputs are already serialized by the driver, so
// their operations need no further locking. Code holding a Mutator must
// not call public Node methods — use the Mutator's own
// operations (the re-entrancy guard panics on violations).
//
// The distributed-GC invariants enforced here mirror the paper's remoting
// instrumentation: storing a remote reference requires the process to
// actually hold it (a stub exists — obtained through import, invocation
// results or an explicit Acquire), so reference listing stays sound.
type Mutator struct {
	n *Machine
}

// Node returns the identifier of the mutated process.
func (m Mutator) Node() ids.NodeID { return m.n.id }

// Alloc allocates an object with the given payload and returns its id.
func (m Mutator) Alloc(payload []byte) ids.ObjID {
	return m.n.heap.Alloc(payload).ID
}

// GlobalRef returns the global reference naming a local object.
func (m Mutator) GlobalRef(obj ids.ObjID) ids.GlobalRef {
	return ids.GlobalRef{Node: m.n.id, Obj: obj}
}

// Exists reports whether the local object is still allocated.
func (m Mutator) Exists(obj ids.ObjID) bool { return m.n.heap.Contains(obj) }

// Root adds the object to the process-local root set.
func (m Mutator) Root(obj ids.ObjID) error { return m.n.heap.AddRoot(obj) }

// Unroot removes the object from the root set.
func (m Mutator) Unroot(obj ids.ObjID) { m.n.heap.RemoveRoot(obj) }

// Link adds a local reference from -> to.
func (m Mutator) Link(from, to ids.ObjID) error { return m.n.heap.AddLocalRef(from, to) }

// Unlink removes one local reference from -> to.
func (m Mutator) Unlink(from, to ids.ObjID) error { return m.n.heap.RemoveLocalRef(from, to) }

// Store makes the local object from hold the reference ref. A reference to
// an object of this very process becomes a plain local reference; a remote
// reference requires the process to hold it (stub present or ref pinned by
// the surrounding invocation), which is true for method arguments, returned
// references and acquired references.
func (m Mutator) Store(from ids.ObjID, ref ids.GlobalRef) error {
	if ref.Node == m.n.id {
		return m.n.heap.AddLocalRef(from, ref.Obj)
	}
	if m.n.table.Stub(ref) == nil && m.n.pins[ref] == 0 {
		return m.n.errf("Store: reference %v not held by this process", ref)
	}
	m.n.table.EnsureStub(ref)
	return m.n.heap.AddRemoteRef(from, ref)
}

// Drop removes one held reference from the object (local or remote).
func (m Mutator) Drop(from ids.ObjID, ref ids.GlobalRef) error {
	if ref.Node == m.n.id {
		return m.n.heap.RemoveLocalRef(from, ref.Obj)
	}
	return m.n.heap.RemoveRemoteRef(from, ref)
}

// Refs returns every reference held by the object: local objects as
// GlobalRefs of this process followed by remote references, in stored
// order. Returns nil for a missing object.
func (m Mutator) Refs(obj ids.ObjID) []ids.GlobalRef {
	o := m.n.heap.Get(obj)
	if o == nil {
		return nil
	}
	out := make([]ids.GlobalRef, 0, len(o.Locals)+len(o.Remotes))
	for _, l := range o.Locals {
		out = append(out, ids.GlobalRef{Node: m.n.id, Obj: l})
	}
	out = append(out, o.Remotes...)
	return out
}

// Payload returns the object's payload (nil for a missing object).
func (m Mutator) Payload(obj ids.ObjID) []byte {
	o := m.n.heap.Get(obj)
	if o == nil {
		return nil
	}
	return o.Payload
}

// SetPayload replaces the object's payload.
func (m Mutator) SetPayload(obj ids.ObjID, payload []byte) error {
	return m.n.heap.SetPayload(obj, payload)
}

// Invoke starts a remote invocation from within a handler or With block.
// See Machine.Invoke for the semantics; this variant runs inside the
// machine and is the ONLY legal way to invoke from callback context.
func (m Mutator) Invoke(target ids.GlobalRef, method string, args []ids.GlobalRef, cb ReplyFunc) error {
	return m.n.Invoke(target, method, args, cb)
}
