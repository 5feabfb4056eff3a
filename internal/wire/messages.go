package wire

import (
	"math"
	"math/bits"

	"dgc/internal/core"
	"dgc/internal/ids"
)

// Analytic sizes of the encoder's primitives, for messages hot enough to
// answer EncodedSize without an encode walk. Must mirror enc.go exactly.

func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func nodeSize(n ids.NodeID) int { return uvarintSize(uint64(len(n))) + len(n) }

func refIDSize(r ids.RefID) int {
	return nodeSize(r.Src) + nodeSize(r.Dst.Node) + uvarintSize(uint64(r.Dst.Obj))
}

// ---- remote invocation --------------------------------------------------

// InvokeRequest asks the destination to invoke a method on its object Obj.
// Args carries references exported with the call (their scions at the owning
// processes were created before the request was sent). StubIC is the caller's
// invocation counter after the send-side bump, piggy-backed per §3.2. No
// message names its sender: the transport hands every handler the sender, so
// the wire states it once.
type InvokeRequest struct {
	CallID uint64
	Obj    ids.ObjID
	Method string
	Args   []ids.GlobalRef
	StubIC uint64
}

// Kind implements Message.
func (*InvokeRequest) Kind() Kind { return KindInvokeRequest }

func (m *InvokeRequest) encode(buf []byte) []byte {
	buf = putUint(buf, m.CallID)
	buf = putUint(buf, uint64(m.Obj))
	buf = putString(buf, m.Method)
	buf = putGlobalRefs(buf, m.Args)
	return putUint(buf, m.StubIC)
}

func decodeInvokeRequest(r *reader) *InvokeRequest {
	return &InvokeRequest{
		CallID: r.uint(),
		Obj:    ids.ObjID(r.uint()),
		Method: r.string(),
		Args:   r.globalRefs(),
		StubIC: r.uint(),
	}
}

// InvokeReply carries the result of an InvokeRequest back to the caller,
// including any references returned by the method (exported by the callee).
// ScionIC piggy-backs the callee's counter after the reply-side bump. The
// caller finds the invoked reference by CallID.
type InvokeReply struct {
	CallID  uint64
	OK      bool
	Err     string
	Returns []ids.GlobalRef
	ScionIC uint64
}

// Kind implements Message.
func (*InvokeReply) Kind() Kind { return KindInvokeReply }

func (m *InvokeReply) encode(buf []byte) []byte {
	buf = putUint(buf, m.CallID)
	buf = putBool(buf, m.OK)
	buf = putString(buf, m.Err)
	buf = putGlobalRefs(buf, m.Returns)
	return putUint(buf, m.ScionIC)
}

func decodeInvokeReply(r *reader) *InvokeReply {
	return &InvokeReply{
		CallID:  r.uint(),
		OK:      r.bool(),
		Err:     r.string(),
		Returns: r.globalRefs(),
		ScionIC: r.uint(),
	}
}

// ---- reference listing ---------------------------------------------------

// CreateScion asks the destination (the owner of Objs) to create the scions
// recording that Holder now references each listed object. Sent by an
// exporter before it hands the references to Holder, preserving the
// scion-before-stub ordering that keeps reference listing safe; one export
// sends one CreateScion per owner. Objs is never empty and keeps repeats: the
// exporter bumped its stub counter once per copied argument, so the owner
// bumps the scion counter once per listed entry.
type CreateScion struct {
	ExportID uint64 // exporter-local id for matching the ack
	Holder   ids.NodeID
	Objs     []ids.ObjID
}

// Kind implements Message.
func (*CreateScion) Kind() Kind { return KindCreateScion }

func (m *CreateScion) encode(buf []byte) []byte {
	buf = putUint(buf, m.ExportID)
	buf = putNode(buf, m.Holder)
	return putObjIDs(buf, m.Objs)
}

func decodeCreateScion(r *reader) *CreateScion {
	m := &CreateScion{
		ExportID: r.uint(),
		Holder:   r.node(),
		Objs:     r.objIDs(),
	}
	if r.err == nil && len(m.Objs) == 0 {
		r.fail("CreateScion lists no objects")
	}
	return m
}

// ExportAck answers one CreateScion: Err is empty when every listed scion
// exists, and names the failure otherwise.
type ExportAck struct {
	ExportID uint64
	Err      string
}

// CreateScionAck confirms scion creation to one exporter: one entry for each
// of its CreateScions the owner handled since its last flush, in handling
// order. Acks is never empty and names no export twice.
type CreateScionAck struct {
	Acks []ExportAck
}

// Kind implements Message.
func (*CreateScionAck) Kind() Kind { return KindCreateScionAck }

func (m *CreateScionAck) encode(buf []byte) []byte {
	buf = putUint(buf, uint64(len(m.Acks)))
	for _, a := range m.Acks {
		buf = putUint(buf, a.ExportID)
		buf = putString(buf, a.Err)
	}
	return buf
}

// minExportAckBytes is the smallest entry: a one-byte id and an empty error.
const minExportAckBytes = 2

func decodeCreateScionAck(r *reader) *CreateScionAck {
	m := &CreateScionAck{}
	n := r.count()
	switch {
	case r.err != nil:
		return m
	case n == 0:
		r.fail("CreateScionAck lists no exports")
		return m
	case n > (len(r.data)-r.pos)/minExportAckBytes:
		r.fail("implausible ack count %d", n)
		return m
	}
	m.Acks = make([]ExportAck, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		m.Acks = append(m.Acks, ExportAck{ExportID: r.uint(), Err: r.string()})
	}
	if r.err == nil && repeatsExport(m.Acks) {
		r.fail("ack repeats an export id")
	}
	return m
}

// repeatsExport reports whether two entries name one export. An owner lists
// one exporter's ids in handling order, which is ascending on an ordered
// link, so a sorted list is checked in one pass and only another pays for a
// set.
func repeatsExport(acks []ExportAck) bool {
	for i := 1; i < len(acks); i++ {
		if acks[i].ExportID > acks[i-1].ExportID {
			continue
		}
		seen := make(map[uint64]struct{}, len(acks))
		for _, a := range acks {
			if _, dup := seen[a.ExportID]; dup {
				return true
			}
			seen[a.ExportID] = struct{}{}
		}
		return false
	}
	return false
}

// NewSetStubs is the reference-listing stub-set message (§1): the complete
// set of the receiver's objects the sender still references, with the
// sender's per-receiver sequence number (refs.Table.ApplyStubSet).
type NewSetStubs struct {
	Seq  uint64
	Objs []ids.ObjID
}

// Kind implements Message.
func (*NewSetStubs) Kind() Kind { return KindNewSetStubs }

func (m *NewSetStubs) encode(buf []byte) []byte {
	buf = putUint(buf, m.Seq)
	return putObjIDs(buf, m.Objs)
}

func decodeNewSetStubs(r *reader) *NewSetStubs {
	return &NewSetStubs{Seq: r.uint(), Objs: r.objIDs()}
}

// ---- cycle detection -----------------------------------------------------

// CDM is a cycle detection message: the detection identity, the reference it
// travels along, the forwarding depth, and the algebra. The detection's
// causal trace id is not carried: it is a function of Det (core.TraceIDFor),
// which every node computes where it journals.
type CDM struct {
	Det   core.DetectionID
	Along ids.RefID
	Hops  uint32

	// alg is the carried algebra: the sender's own on a message built in
	// this process — the in-memory fabric passes message pointers, so one
	// algebra is shared across the whole fan-out and every local delivery —
	// and the decoder's on a message read off the wire. Receivers treat it
	// as immutable: Merge never mutates its operand and the detector clones
	// before deriving.
	alg core.Alg
}

// NewCDMFromAlg builds a CDM around an algebra (shared, not copied — the
// algebra must not be mutated afterwards).
//
// Deprecated: the trace parameter is ignored (a receiver derives the trace id
// from det) and stays only for benchmark/probes.go; callers pass 0.
func NewCDMFromAlg(det core.DetectionID, along ids.RefID, alg core.Alg, hops int, trace uint64) *CDM {
	return &CDM{Det: det, Along: along, Hops: uint32(hops), alg: alg}
}

// Kind implements Message.
func (*CDM) Kind() Kind { return KindCDM }

// The algebra's entries are written in canonical reference order
// (core.Alg.EachCanonical: an integer sort, no string comparisons), each as
// the reference followed by putEntry.
func (m *CDM) encode(buf []byte) []byte {
	buf = putNode(buf, m.Det.Origin)
	buf = putUint(buf, m.Det.Seq)
	buf = putRefID(buf, m.Along)
	buf = putUint(buf, uint64(m.Hops))
	buf = putUint(buf, uint64(m.alg.Len()))
	m.alg.EachCanonical(func(r ids.RefID, e core.Entry) bool {
		buf = putEntry(putRefID(buf, r), e)
		return true
	})
	return buf
}

// encodedSize returns len(m.encode(nil)) without encoding. CDMs dominate
// detection traffic and the transports size every message (inproc byte
// accounting, TCP batch chunking), so the walk is worth skipping. Sizes are
// order-independent, so it walks the algebra unsorted.
func (m *CDM) encodedSize() int {
	n := nodeSize(m.Det.Origin) + uvarintSize(m.Det.Seq) +
		refIDSize(m.Along) + uvarintSize(uint64(m.Hops)) + uvarintSize(uint64(m.alg.Len()))
	m.alg.Each(func(r ids.RefID, e core.Entry) bool {
		n += refIDSize(r) + entrySize(e)
		return true
	})
	return n
}

func decodeCDM(r *reader) *CDM {
	m := &CDM{
		Det:   core.DetectionID{Origin: r.node(), Seq: r.uint()},
		Along: r.refID(),
	}
	hops := r.uint()
	if hops > math.MaxUint32 {
		r.fail("hops %d overflows uint32", hops)
	}
	m.Hops = uint32(hops)
	var prev ids.RefID
	var algs core.AlgBuilder
	m.alg = readAlg(r, &algs, func(i int) ids.RefID {
		ref := r.refID()
		if i > 0 && !prev.Less(ref) {
			r.fail("cdm entries not in canonical order")
		}
		prev = ref
		return ref
	})
	return m
}

// MergeAlgInto merges the carried algebra into a, with core.Alg.Merge's
// semantics: both are dense and key-sorted, so this is one merge-join — no
// hashing, no sorting.
func (m *CDM) MergeAlgInto(a core.Alg) (changed, conflict bool) { return a.Merge(m.alg) }

// putEntry appends one algebra entry's presence bits and counters; the
// reference that keys it is written before it (CDM) or named by dictionary
// index (BatchCDM).
func putEntry(buf []byte, e core.Entry) []byte {
	buf = putBool(buf, e.InSource)
	buf = putUint(buf, e.SrcIC)
	buf = putBool(buf, e.InTarget)
	return putUint(buf, e.TgtIC)
}

func entrySize(e core.Entry) int { return 2 + uvarintSize(e.SrcIC) + uvarintSize(e.TgtIC) }

// minEntryBytes is the smallest entry either detection message can carry: a
// one-byte dictionary index, two bools and two one-byte counters.
const minEntryBytes = 5

// readAlg reads an entry count and that many entries — each keyed by ref,
// which reads the reference and enforces the encoder's order: strictly
// ascending, so no reference repeats and every accepted message re-encodes
// byte-identically — and builds their algebra in b as it goes.
func readAlg(r *reader, b *core.AlgBuilder, ref func(i int) ids.RefID) core.Alg {
	n := r.count()
	if n > (len(r.data)-r.pos)/minEntryBytes {
		r.fail("implausible entry count %d", n)
		n = 0
	}
	return b.Build(n, func(i int) (ids.RefID, core.Entry) {
		k := ref(i)
		return k, core.Entry{InSource: r.bool(), SrcIC: r.uint(), InTarget: r.bool(), TgtIC: r.uint()}
	})
}

// Credit carries one cumulative counter and nothing reads it: it was the
// grant of a sender-side flow-control window that has been removed (overload
// is shed at the receiver's mailbox, DESIGN.md §10). The kind stays decodable
// only because benchmark/probes.go uses it as the smallest ping payload, and
// a node that receives one ignores it.
type Credit struct {
	Consumed uint64
}

// Kind implements Message.
func (*Credit) Kind() Kind { return KindCredit }

func (m *Credit) encode(buf []byte) []byte {
	return putUint(buf, m.Consumed)
}

func decodeCredit(r *reader) *Credit {
	return &Credit{Consumed: r.uint()}
}
