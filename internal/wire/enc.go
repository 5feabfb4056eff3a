package wire

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"dgc/internal/ids"
)

// Low-level append helpers. All integers are unsigned varints; strings and
// byte slices are length-prefixed.

func putUint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func putBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func putString(buf []byte, s string) []byte {
	buf = putUint(buf, uint64(len(s)))
	return append(buf, s...)
}

func putNode(buf []byte, n ids.NodeID) []byte { return putString(buf, string(n)) }

func putGlobalRef(buf []byte, g ids.GlobalRef) []byte {
	buf = putNode(buf, g.Node)
	return putUint(buf, uint64(g.Obj))
}

func putRefID(buf []byte, r ids.RefID) []byte {
	buf = putNode(buf, r.Src)
	return putGlobalRef(buf, r.Dst)
}

func putGlobalRefs(buf []byte, refs []ids.GlobalRef) []byte {
	buf = putUint(buf, uint64(len(refs)))
	for _, r := range refs {
		buf = putGlobalRef(buf, r)
	}
	return buf
}

func putObjIDs(buf []byte, objs []ids.ObjID) []byte {
	buf = putUint(buf, uint64(len(objs)))
	for _, o := range objs {
		buf = putUint(buf, uint64(o))
	}
	return buf
}

// reader is a cursor over an encoded message with sticky errors.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.pos)
		return 0
	}
	// Strict: reject non-minimal varints so every accepted message
	// re-encodes to the same bytes (a padded zero like 0x80 0x00 would
	// otherwise smuggle distinct wire forms of equal messages).
	if n > 1 && r.data[r.pos+n-1] == 0 {
		r.fail("non-minimal varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) count() int {
	v := r.uint()
	if v > uint64(len(r.data)) {
		r.fail("implausible count %d", v)
		return 0
	}
	return int(v)
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.data) {
		r.fail("truncated bool at offset %d", r.pos)
		return false
	}
	b := r.data[r.pos]
	r.pos++
	if b > 1 {
		// Strict: only the canonical encodings are accepted, so every
		// accepted message re-encodes to the same bytes.
		r.fail("non-canonical bool %#x at offset %d", b, r.pos-1)
		return false
	}
	return b == 1
}

func (r *reader) string() string {
	n := r.count()
	if r.err != nil {
		return ""
	}
	if r.pos+n > len(r.data) {
		r.fail("truncated string at offset %d (+%d)", r.pos, n)
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

// nodeIntern caches decoded NodeID strings. Node names recur constantly — a
// CDM with n entries carries 2n+3 of them from a handful of distinct values —
// and the map lookup keyed by string(bytes) does not allocate on a hit, so
// interning removes the dominant share of decode allocations. Reads go
// through an atomic pointer to an immutable map (copy-on-write on insert —
// distinct node names are few, so full copies are rare), making the hit path
// lock-free: no read-lock RMW per decoded name. The cache is capped; past the
// cap, unseen names fall through to a plain allocation (correct, just
// slower), which keeps a hostile peer from growing it without bound.
var nodeIntern struct {
	mu sync.Mutex // serializes inserts
	m  atomic.Pointer[map[string]ids.NodeID]
}

const nodeInternCap = 4096

func init() {
	m := make(map[string]ids.NodeID)
	nodeIntern.m.Store(&m)
}

func internNode(b []byte) ids.NodeID {
	if n, ok := (*nodeIntern.m.Load())[string(b)]; ok {
		return n
	}
	n := ids.NodeID(b)
	nodeIntern.mu.Lock()
	old := *nodeIntern.m.Load()
	if _, ok := old[string(n)]; !ok && len(old) < nodeInternCap {
		next := make(map[string]ids.NodeID, len(old)+1)
		for k, v := range old {
			next[k] = v
		}
		next[string(n)] = n
		nodeIntern.m.Store(&next)
	}
	nodeIntern.mu.Unlock()
	return n
}

func (r *reader) node() ids.NodeID {
	n := r.count()
	if r.err != nil {
		return ""
	}
	if r.pos+n > len(r.data) {
		r.fail("truncated string at offset %d (+%d)", r.pos, n)
		return ""
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return internNode(b)
}

func (r *reader) globalRef() ids.GlobalRef {
	n := r.node()
	o := ids.ObjID(r.uint())
	return ids.GlobalRef{Node: n, Obj: o}
}

func (r *reader) refID() ids.RefID {
	src := r.node()
	dst := r.globalRef()
	return ids.RefID{Src: src, Dst: dst}
}

func (r *reader) globalRefs() []ids.GlobalRef {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]ids.GlobalRef, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.globalRef())
	}
	return out
}

func (r *reader) objIDs() []ids.ObjID {
	n := r.count()
	if n > len(r.data)-r.pos {
		// Every id takes at least a byte: refuse a count the rest cannot
		// hold before sizing a slice of 8-byte ids for it.
		r.fail("implausible object count %d", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]ids.ObjID, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, ids.ObjID(r.uint()))
	}
	return out
}
