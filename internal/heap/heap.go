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
	"fmt"
	"sort"

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
func (o *Object) clone() *Object {
	c := &Object{ID: o.ID}
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

// Heap is the object store of one process. Heap is not safe for concurrent
// use; the owning node serializes access.
type Heap struct {
	node    ids.NodeID
	nextID  ids.ObjID
	objects map[ids.ObjID]*Object
	roots   map[ids.ObjID]struct{}

	// gen is the mutation epoch: it advances on every structural change
	// (allocation, deletion, reference or root edit, payload replacement).
	// Consumers such as the summarization cache compare generations to
	// detect that a heap is unchanged since they last read it.
	gen uint64

	// Traversal scratch, reused across ReachableFrom/MarkReachable calls so
	// mark and summarize rounds stop allocating queues and visited maps per
	// call. Guarded by the same single-goroutine discipline as the heap.
	queueBuf []ids.ObjID
	marked   map[ids.ObjID]uint64
	markGen  uint64
}

// New returns an empty heap owned by the given node.
func New(node ids.NodeID) *Heap {
	return &Heap{
		node:    node,
		nextID:  1,
		objects: make(map[ids.ObjID]*Object),
		roots:   make(map[ids.ObjID]struct{}),
	}
}

// Restore reconstructs a heap from snapshot data: a list of objects (which
// are adopted, not copied), the root set and the next object id to allocate.
// Used by snapshot codecs when decoding.
func Restore(node ids.NodeID, objects []*Object, roots []ids.ObjID, nextID ids.ObjID) (*Heap, error) {
	h := New(node)
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
		h.objects[o.ID] = o
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

// Gen returns the heap's mutation epoch. Two equal Gen values bracket a
// window with no structural change, so any derived artifact (summary,
// snapshot encoding) computed inside the window is still valid.
func (h *Heap) Gen() uint64 { return h.gen }

// NextID returns the id the next allocation will receive. Exposed for
// snapshot codecs.
func (h *Heap) NextID() ids.ObjID { return h.nextID }

// Len returns the number of live (allocated, not yet swept) objects.
func (h *Heap) Len() int { return len(h.objects) }

// Alloc allocates a fresh object with the given payload and returns it.
func (h *Heap) Alloc(payload []byte) *Object {
	o := &Object{ID: h.nextID, Payload: payload}
	h.nextID++
	h.objects[o.ID] = o
	h.gen++
	return o
}

// Get returns the object with the given id, or nil if it does not exist.
func (h *Heap) Get(id ids.ObjID) *Object { return h.objects[id] }

// Contains reports whether an object with the given id exists.
func (h *Heap) Contains(id ids.ObjID) bool {
	_, ok := h.objects[id]
	return ok
}

// Delete removes the object with the given id from the heap. Deleting a
// missing object is a no-op. Used by the local garbage collector's sweep.
func (h *Heap) Delete(id ids.ObjID) {
	if _, ok := h.objects[id]; !ok {
		return
	}
	delete(h.objects, id)
	delete(h.roots, id)
	delete(h.marked, id) // the mark scratch holds live objects only
	h.gen++
}

// AddRoot marks the object as a member of the process-local root set.
// It returns an error if the object does not exist.
func (h *Heap) AddRoot(id ids.ObjID) error {
	if !h.Contains(id) {
		return fmt.Errorf("heap %s: AddRoot: no object %d", h.node, id)
	}
	h.roots[id] = struct{}{}
	h.gen++
	return nil
}

// RemoveRoot removes the object from the root set (no-op if absent).
func (h *Heap) RemoveRoot(id ids.ObjID) {
	if _, ok := h.roots[id]; !ok {
		return
	}
	delete(h.roots, id)
	h.gen++
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
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	h.gen++
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
			h.gen++
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
	h.gen++
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
			h.gen++
			return nil
		}
	}
	return fmt.Errorf("heap %s: RemoveRemoteRef: no reference %d->%v", h.node, from, target)
}

// SetPayload replaces the payload of an existing object. Routed through the
// heap (rather than poking the Object) so the mutation epoch advances: a
// payload change invalidates serialized snapshots even though it cannot
// change reachability.
func (h *Heap) SetPayload(id ids.ObjID, payload []byte) error {
	o := h.Get(id)
	if o == nil {
		return fmt.Errorf("heap %s: SetPayload: no object %d", h.node, id)
	}
	o.Payload = payload
	h.gen++
	return nil
}

// IDs returns all object identifiers in ascending order.
func (h *Heap) IDs() []ids.ObjID {
	out := make([]ids.ObjID, 0, len(h.objects))
	for id := range h.objects {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ForEach calls fn for every object in ascending id order.
func (h *Heap) ForEach(fn func(*Object)) {
	for _, id := range h.IDs() {
		fn(h.objects[id])
	}
}

// Clone returns a deep copy of the heap: the snapshot primitive. The clone
// shares nothing with the original, so the mutator may continue to run while
// the snapshot is summarized or serialized.
func (h *Heap) Clone() *Heap {
	c := &Heap{
		node:    h.node,
		nextID:  h.nextID,
		gen:     h.gen,
		objects: make(map[ids.ObjID]*Object, len(h.objects)),
		roots:   make(map[ids.ObjID]struct{}, len(h.roots)),
	}
	for id, o := range h.objects {
		c.objects[id] = o.clone()
	}
	for id := range h.roots {
		c.roots[id] = struct{}{}
	}
	return c
}
