package snapshot

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"dgc/internal/heap"
	"dgc/internal/ids"
)

// BinaryCodec is the fast snapshot serializer: a compact, length-prefixed
// binary format with varint integers and interned node names. It plays the
// role of production .NET serialization in the paper's experiment.
type BinaryCodec struct{}

// Name implements Codec.
func (BinaryCodec) Name() string { return "binary" }

const binaryMagic = "DGCS\x01"

// Encode implements Codec. One pass interns the node names and sums the
// encoded size, so the second writes into a buffer allocated once.
func (BinaryCodec) Encode(h *heap.Heap) ([]byte, error) {
	nodeIndex := make(map[ids.NodeID]uint64)
	var nodeNames []ids.NodeID
	// A heap's references run long stretches into one node, so the last
	// name looked up is kept and the map is hashed only when it changes.
	var lastName ids.NodeID
	var lastIndex uint64
	index := func(n ids.NodeID) uint64 {
		if len(nodeNames) > 0 && n == lastName {
			return lastIndex
		}
		ni, ok := nodeIndex[n]
		if !ok {
			ni = uint64(len(nodeNames))
			nodeIndex[n] = ni
			nodeNames = append(nodeNames, n)
		}
		lastName, lastIndex = n, ni
		return ni
	}
	objBytes := 0
	h.ForEach(func(o *heap.Object) {
		objBytes += uvarintLen(uint64(o.ID)) + uvarintLen(uint64(len(o.Locals)))
		for _, l := range o.Locals {
			objBytes += uvarintLen(uint64(l))
		}
		objBytes += uvarintLen(uint64(len(o.Remotes)))
		for _, r := range o.Remotes {
			objBytes += uvarintLen(index(r.Node)) + uvarintLen(uint64(r.Obj))
		}
		objBytes += uvarintLen(uint64(len(o.Payload))) + len(o.Payload)
	})
	roots := h.Roots()

	size := len(binaryMagic) + stringLen(string(h.Node())) + uvarintLen(uint64(h.NextID())) +
		uvarintLen(uint64(len(nodeNames))) + uvarintLen(uint64(len(roots))) +
		uvarintLen(uint64(h.Len())) + objBytes
	for _, n := range nodeNames {
		size += stringLen(string(n))
	}
	for _, r := range roots {
		size += uvarintLen(uint64(r))
	}

	buf := make([]byte, 0, size)
	buf = append(buf, binaryMagic...)
	buf = AppendString(buf, string(h.Node()))
	buf = binary.AppendUvarint(buf, uint64(h.NextID()))

	buf = binary.AppendUvarint(buf, uint64(len(nodeNames)))
	for _, n := range nodeNames {
		buf = AppendString(buf, string(n))
	}

	buf = binary.AppendUvarint(buf, uint64(len(roots)))
	for _, r := range roots {
		buf = binary.AppendUvarint(buf, uint64(r))
	}

	buf = binary.AppendUvarint(buf, uint64(h.Len()))
	h.ForEach(func(o *heap.Object) {
		buf = binary.AppendUvarint(buf, uint64(o.ID))
		buf = binary.AppendUvarint(buf, uint64(len(o.Locals)))
		for _, l := range o.Locals {
			buf = binary.AppendUvarint(buf, uint64(l))
		}
		buf = binary.AppendUvarint(buf, uint64(len(o.Remotes)))
		for _, r := range o.Remotes {
			buf = binary.AppendUvarint(buf, index(r.Node))
			buf = binary.AppendUvarint(buf, uint64(r.Obj))
		}
		buf = binary.AppendUvarint(buf, uint64(len(o.Payload)))
		buf = append(buf, o.Payload...)
	})
	return buf, nil
}

// Decode implements Codec.
func (BinaryCodec) Decode(data []byte) (*heap.Heap, error) {
	r := NewReader(data)
	magic := r.Bytes(len(binaryMagic))
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("binary codec: bad magic")
	}
	node := ids.NodeID(r.Str())
	nextID := ids.ObjID(r.Uvarint())

	nodeNames := make([]ids.NodeID, r.Count())
	for i := range nodeNames {
		nodeNames[i] = ids.NodeID(r.Str())
	}

	roots := make([]ids.ObjID, r.Count())
	for i := range roots {
		roots[i] = ids.ObjID(r.Uvarint())
	}

	numObjs := r.Count()
	objects := make([]*heap.Object, 0, numObjs)
	for i := 0; i < numObjs && r.Err() == nil; i++ {
		o := &heap.Object{ID: ids.ObjID(r.Uvarint())}
		nl := r.Uvarint()
		for j := uint64(0); j < nl && r.Err() == nil; j++ {
			o.Locals = append(o.Locals, ids.ObjID(r.Uvarint()))
		}
		nr := r.Uvarint()
		for j := uint64(0); j < nr && r.Err() == nil; j++ {
			ni := r.Uvarint()
			obj := ids.ObjID(r.Uvarint())
			if ni >= uint64(len(nodeNames)) {
				return nil, fmt.Errorf("binary codec: node index %d out of range", ni)
			}
			o.Remotes = append(o.Remotes, ids.GlobalRef{Node: nodeNames[ni], Obj: obj})
		}
		if p := r.Bytes(r.Count()); p != nil {
			o.Payload = append([]byte(nil), p...)
		}
		objects = append(objects, o)
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("binary codec: %w", r.Err())
	}
	return heap.Restore(node, objects, roots, nextID)
}

// AppendString appends s length-prefixed, as Reader.Str reads it back.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// stringLen is the number of bytes AppendString writes for s.
func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// Reader is a cursor over a binary encoding — a snapshot, or a node's
// state file — with a sticky error: after the first failure every read
// returns a zero value and Err reports it.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader returns a Reader at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first read failure.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.pos }

// Uvarint reads one varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.err = fmt.Errorf("truncated varint at %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Count reads a varint that sizes what follows, failing it when it exceeds
// the input's length (every counted item takes at least a byte).
func (r *Reader) Count() int {
	v := r.Uvarint()
	if v > uint64(len(r.data)) {
		r.err = fmt.Errorf("implausible count %d", v)
		return 0
	}
	return int(v)
}

// Bytes reads the next n bytes, aliasing the input.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.err = fmt.Errorf("truncated bytes at %d (+%d)", r.pos, n)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string { return string(r.Bytes(r.Count())) }
