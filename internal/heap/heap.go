// Package heap implements the per-process object heap the distributed
// garbage collector operates on.
//
// Each simulated process owns one Heap. Objects hold intra-process
// references (to other objects in the same heap), inter-process references
// (GlobalRefs to objects owned by other nodes) and an opaque payload used by
// the serialization experiments. The heap also tracks the process-local root
// set (the paper's "global variables and threads stack").
package heap

import (
	"cmp"
	"fmt"
	"slices"

	"dgc/internal/ids"
)

// Object is a heap-allocated object within one process.
type Object struct {
	ID      ids.ObjID
	Locals  []ids.ObjID     // intra-process references
	Remotes []ids.GlobalRef // inter-process references
	Payload []byte          // opaque application data
}

// clone returns a deep copy of the object (used by snapshots).
func (o *Object) clone() Object {
	c := Object{ID: o.ID}
	if len(o.Locals) > 0 {
		c.Locals = append([]ids.ObjID(nil), o.Locals...)
	}
	if len(o.Remotes) > 0 {
		c.Remotes = append([]ids.GlobalRef(nil), o.Remotes...)
	}
	if len(o.Payload) > 0 {
		c.Payload = append([]byte(nil), o.Payload...)
	}
	return c
}

// entry is the heap's record of one object: the object itself plus the
// collector's per-object state. Kept out of Object so that the object's
// fields (which ReflectCodec serializes one by one) are exactly the
// application's.
type entry struct {
	Object
	mark uint64 // epoch of the last traversal that reached the object
	slot int32  // position in Heap.order
}

// Heap is the object store of one process. Heap is not safe for concurrent
// use; the owning node serializes access.
type Heap struct {
	node    ids.NodeID
	nextID  ids.ObjID
	objects map[ids.ObjID]*entry
	roots   map[ids.ObjID]struct{}

	// order holds every object in ascending id order, so no ordered pass
	// sorts: Alloc appends (ids are allocated ascending), Restore sorts
	// once. Delete leaves a nil tombstone at the object's slot; dead counts
	// them, and the next ordered pass compacts them away.
	order []*entry
	dead  int

	// Traversal state: markGen is the epoch of the newest traversal, stamped
	// into each reached entry's mark, and queue is the BFS queue of slots,
	// reused across calls so marking allocates nothing once warm.
	markGen uint64
	queue   []int32
}

// New returns an empty heap owned by the given node.
func New(node ids.NodeID) *Heap {
	return &Heap{
		node:    node,
		nextID:  1,
		objects: make(map[ids.ObjID]*entry),
		roots:   make(map[ids.ObjID]struct{}),
	}
}

// Restore reconstructs a heap from snapshot data: a list of objects in any
// order (their reference and payload slices are adopted, not copied), the
// root set and the next object id to allocate. Used by snapshot codecs when
// decoding.
func Restore(node ids.NodeID, objects []*Object, roots []ids.ObjID, nextID ids.ObjID) (*Heap, error) {
	h := New(node)
	h.order = make([]*entry, 0, len(objects))
	for _, o := range objects {
		if o == nil {
			return nil, fmt.Errorf("heap %s: Restore: nil object", node)
		}
		if _, dup := h.objects[o.ID]; dup {
			return nil, fmt.Errorf("heap %s: Restore: duplicate object %d", node, o.ID)
		}
		if o.ID >= nextID {
			return nil, fmt.Errorf("heap %s: Restore: object %d >= nextID %d", node, o.ID, nextID)
		}
		e := &entry{Object: *o}
		h.objects[o.ID] = e
		h.order = append(h.order, e)
	}
	slices.SortFunc(h.order, func(a, b *entry) int { return cmp.Compare(a.ID, b.ID) })
	for i, e := range h.order {
		e.slot = int32(i)
	}
	for _, r := range roots {
		if err := h.AddRoot(r); err != nil {
			return nil, err
		}
	}
	h.nextID = nextID
	return h, nil
}

// Node returns the identifier of the owning process.
func (h *Heap) Node() ids.NodeID { return h.node }

// NextID returns the id the next allocation will receive. Exposed for
// snapshot codecs.
func (h *Heap) NextID() ids.ObjID { return h.nextID }

// Len returns the number of live (allocated, not yet swept) objects.
func (h *Heap) Len() int { return len(h.objects) }

// Alloc allocates a fresh object with the given payload and returns it.
// Ids ascend, so the object goes at the end of the ordered store.
func (h *Heap) Alloc(payload []byte) *Object {
	e := &entry{Object: Object{ID: h.nextID, Payload: payload}, slot: int32(len(h.order))}
	h.nextID++
	h.objects[e.ID] = e
	h.order = append(h.order, e)
	return &e.Object
}

// Get returns the object with the given id, or nil if it does not exist.
func (h *Heap) Get(id ids.ObjID) *Object {
	if e := h.objects[id]; e != nil {
		return &e.Object
	}
	return nil
}

// Contains reports whether an object with the given id exists.
func (h *Heap) Contains(id ids.ObjID) bool {
	_, ok := h.objects[id]
	return ok
}

// Delete removes the object with the given id from the heap. Deleting a
// missing object is a no-op. The object's slot becomes a tombstone; once
// tombstones outnumber live objects the store is compacted at once, so the
// ordered store stays within twice the live population even when no ordered
// pass runs.
func (h *Heap) Delete(id ids.ObjID) {
	e := h.objects[id]
	if e == nil {
		return
	}
	delete(h.objects, id)
	delete(h.roots, id)
	h.order[e.slot] = nil
	h.dead++
	if h.dead > len(h.objects) {
		h.compact()
	}
}

// compact closes the tombstones in the ordered store, renumbering slots.
func (h *Heap) compact() {
	if h.dead == 0 {
		return
	}
	n := 0
	for _, e := range h.order {
		if e != nil {
			e.slot = int32(n)
			h.order[n] = e
			n++
		}
	}
	h.setLen(n)
}

// setLen truncates the ordered store to its first n slots, dropping the
// tail's pointers so swept objects are not kept alive, and moves to a
// smaller backing array once the old one is mostly empty.
func (h *Heap) setLen(n int) {
	clear(h.order[n:])
	h.order = h.order[:n]
	h.dead = 0
	if cap(h.order) > 4*n+64 {
		h.order = slices.Clone(h.order)
	}
}

// ordered returns the ordered store without tombstones: position equals
// slot. Valid until the heap's next structural change.
func (h *Heap) ordered() []*entry {
	h.compact()
	return h.order
}

// AddRoot marks the object as a member of the process-local root set.
// It returns an error if the object does not exist.
func (h *Heap) AddRoot(id ids.ObjID) error {
	if !h.Contains(id) {
		return fmt.Errorf("heap %s: AddRoot: no object %d", h.node, id)
	}
	h.roots[id] = struct{}{}
	return nil
}

// RemoveRoot removes the object from the root set (no-op if absent).
func (h *Heap) RemoveRoot(id ids.ObjID) {
	if _, ok := h.roots[id]; !ok {
		return
	}
	delete(h.roots, id)
}

// IsRoot reports whether the object is in the root set.
func (h *Heap) IsRoot(id ids.ObjID) bool {
	_, ok := h.roots[id]
	return ok
}

// Roots returns the root set in canonical (ascending) order.
func (h *Heap) Roots() []ids.ObjID {
	out := make([]ids.ObjID, 0, len(h.roots))
	for id := range h.roots {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// AddLocalRef appends a reference from object from to object to.
// Both objects must exist.
func (h *Heap) AddLocalRef(from, to ids.ObjID) error {
	f := h.Get(from)
	if f == nil {
		return fmt.Errorf("heap %s: AddLocalRef: no object %d", h.node, from)
	}
	if !h.Contains(to) {
		return fmt.Errorf("heap %s: AddLocalRef: no object %d", h.node, to)
	}
	f.Locals = append(f.Locals, to)
	return nil
}

// RemoveLocalRef removes one occurrence of the reference from -> to.
// It returns an error if the source object or the reference does not exist.
func (h *Heap) RemoveLocalRef(from, to ids.ObjID) error {
	f := h.Get(from)
	if f == nil {
		return fmt.Errorf("heap %s: RemoveLocalRef: no object %d", h.node, from)
	}
	for i, r := range f.Locals {
		if r == to {
			f.Locals = append(f.Locals[:i], f.Locals[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("heap %s: RemoveLocalRef: no reference %d->%d", h.node, from, to)
}

// AddRemoteRef appends an inter-process reference from object from to the
// remote object target. The target must be owned by a different node.
func (h *Heap) AddRemoteRef(from ids.ObjID, target ids.GlobalRef) error {
	f := h.Get(from)
	if f == nil {
		return fmt.Errorf("heap %s: AddRemoteRef: no object %d", h.node, from)
	}
	if target.Node == h.node {
		return fmt.Errorf("heap %s: AddRemoteRef: target %v is local", h.node, target)
	}
	f.Remotes = append(f.Remotes, target)
	return nil
}

// RemoveRemoteRef removes one occurrence of the inter-process reference
// from -> target.
func (h *Heap) RemoveRemoteRef(from ids.ObjID, target ids.GlobalRef) error {
	f := h.Get(from)
	if f == nil {
		return fmt.Errorf("heap %s: RemoveRemoteRef: no object %d", h.node, from)
	}
	for i, r := range f.Remotes {
		if r == target {
			f.Remotes = append(f.Remotes[:i], f.Remotes[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("heap %s: RemoveRemoteRef: no reference %d->%v", h.node, from, target)
}

// SetPayload replaces the payload of an existing object.
func (h *Heap) SetPayload(id ids.ObjID, payload []byte) error {
	o := h.Get(id)
	if o == nil {
		return fmt.Errorf("heap %s: SetPayload: no object %d", h.node, id)
	}
	o.Payload = payload
	return nil
}

// IDs returns all object identifiers in ascending order.
func (h *Heap) IDs() []ids.ObjID {
	order := h.ordered()
	out := make([]ids.ObjID, len(order))
	for i, e := range order {
		out[i] = e.ID
	}
	return out
}

// ForEach calls fn for every object in ascending id order. fn must not
// allocate or delete objects.
func (h *Heap) ForEach(fn func(*Object)) {
	for _, e := range h.ordered() {
		fn(&e.Object)
	}
}

// Clone returns a deep copy of the heap: the snapshot primitive. The clone
// shares nothing with the original, so the mutator may continue to run while
// the snapshot is summarized or serialized.
func (h *Heap) Clone() *Heap {
	order := h.ordered()
	c := &Heap{
		node:    h.node,
		nextID:  h.nextID,
		objects: make(map[ids.ObjID]*entry, len(order)),
		roots:   make(map[ids.ObjID]struct{}, len(h.roots)),
		order:   make([]*entry, len(order)),
	}
	for i, e := range order {
		ce := &entry{Object: e.clone(), slot: int32(i)}
		c.objects[ce.ID] = ce
		c.order[i] = ce
	}
	for id := range h.roots {
		c.roots[id] = struct{}{}
	}
	return c
}
