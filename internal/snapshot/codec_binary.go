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
	buf = appendString(buf, string(h.Node()))
	buf = binary.AppendUvarint(buf, uint64(h.NextID()))

	buf = binary.AppendUvarint(buf, uint64(len(nodeNames)))
	for _, n := range nodeNames {
		buf = appendString(buf, string(n))
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
	r := &byteReader{data: data}
	magic := r.bytes(len(binaryMagic))
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("binary codec: bad magic")
	}
	node := ids.NodeID(r.str())
	nextID := ids.ObjID(r.uvarint())

	numNodes := r.uvarint()
	if numNodes > uint64(len(data)) {
		return nil, fmt.Errorf("binary codec: implausible node-name count %d", numNodes)
	}
	nodeNames := make([]ids.NodeID, numNodes)
	for i := range nodeNames {
		nodeNames[i] = ids.NodeID(r.str())
	}

	numRoots := r.uvarint()
	if numRoots > uint64(len(data)) {
		return nil, fmt.Errorf("binary codec: implausible root count %d", numRoots)
	}
	roots := make([]ids.ObjID, numRoots)
	for i := range roots {
		roots[i] = ids.ObjID(r.uvarint())
	}

	numObjs := r.uvarint()
	if numObjs > uint64(len(data)) {
		return nil, fmt.Errorf("binary codec: implausible object count %d", numObjs)
	}
	objects := make([]*heap.Object, 0, numObjs)
	for i := uint64(0); i < numObjs && r.err == nil; i++ {
		o := &heap.Object{ID: ids.ObjID(r.uvarint())}
		nl := r.uvarint()
		for j := uint64(0); j < nl && r.err == nil; j++ {
			o.Locals = append(o.Locals, ids.ObjID(r.uvarint()))
		}
		nr := r.uvarint()
		for j := uint64(0); j < nr && r.err == nil; j++ {
			ni := r.uvarint()
			obj := ids.ObjID(r.uvarint())
			if ni >= uint64(len(nodeNames)) {
				return nil, fmt.Errorf("binary codec: node index %d out of range", ni)
			}
			o.Remotes = append(o.Remotes, ids.GlobalRef{Node: nodeNames[ni], Obj: obj})
		}
		np := r.uvarint()
		if p := r.bytes(int(np)); p != nil {
			o.Payload = append([]byte(nil), p...)
		}
		objects = append(objects, o)
	}
	if r.err != nil {
		return nil, fmt.Errorf("binary codec: %w", r.err)
	}
	return heap.Restore(node, objects, roots, nextID)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// stringLen is the number of bytes appendString writes for s.
func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// byteReader is a tiny cursor with sticky error handling.
type byteReader struct {
	data []byte
	pos  int
	err  error
}

func (r *byteReader) uvarint() uint64 {
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

func (r *byteReader) bytes(n int) []byte {
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

func (r *byteReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.data)) {
		r.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	return string(r.bytes(int(n)))
}
