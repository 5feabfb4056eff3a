package wire

import (
	"math"
	"math/bits"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/refs"
)

// Analytic sizes of the encoder's primitives, for messages hot enough to
// answer EncodedSize without an encode walk. Must mirror enc.go exactly.

func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func nodeSize(n ids.NodeID) int { return uvarintSize(uint64(len(n))) + len(n) }

func refIDSize(r ids.RefID) int {
	return nodeSize(r.Src) + nodeSize(r.Dst.Node) + uvarintSize(uint64(r.Dst.Obj))
}

// ---- remote invocation --------------------------------------------------

// InvokeRequest asks the destination to invoke a method on one of its
// objects. Args carries references exported with the call (their scions at
// the owning processes were created before the request was sent). StubIC is
// the caller's invocation counter after the send-side bump, piggy-backed per
// §3.2.
type InvokeRequest struct {
	CallID uint64
	From   ids.NodeID
	Target ids.GlobalRef
	Method string
	Args   []ids.GlobalRef
	StubIC uint64
}

// Kind implements Message.
func (*InvokeRequest) Kind() Kind { return KindInvokeRequest }

func (m *InvokeRequest) encode(buf []byte) []byte {
	buf = putUint(buf, m.CallID)
	buf = putNode(buf, m.From)
	buf = putGlobalRef(buf, m.Target)
	buf = putString(buf, m.Method)
	buf = putGlobalRefs(buf, m.Args)
	return putUint(buf, m.StubIC)
}

func decodeInvokeRequest(r *reader) *InvokeRequest {
	return &InvokeRequest{
		CallID: r.uint(),
		From:   r.node(),
		Target: r.globalRef(),
		Method: r.string(),
		Args:   r.globalRefs(),
		StubIC: r.uint(),
	}
}

// InvokeReply carries the result of an InvokeRequest back to the caller,
// including any references returned by the method (exported by the callee).
// ScionIC piggy-backs the callee's counter after the reply-side bump.
type InvokeReply struct {
	CallID  uint64
	From    ids.NodeID
	Target  ids.GlobalRef // the invoked object (identifies the reference)
	OK      bool
	Err     string
	Returns []ids.GlobalRef
	ScionIC uint64
}

// Kind implements Message.
func (*InvokeReply) Kind() Kind { return KindInvokeReply }

func (m *InvokeReply) encode(buf []byte) []byte {
	buf = putUint(buf, m.CallID)
	buf = putNode(buf, m.From)
	buf = putGlobalRef(buf, m.Target)
	buf = putBool(buf, m.OK)
	buf = putString(buf, m.Err)
	buf = putGlobalRefs(buf, m.Returns)
	return putUint(buf, m.ScionIC)
}

func decodeInvokeReply(r *reader) *InvokeReply {
	return &InvokeReply{
		CallID:  r.uint(),
		From:    r.node(),
		Target:  r.globalRef(),
		OK:      r.bool(),
		Err:     r.string(),
		Returns: r.globalRefs(),
		ScionIC: r.uint(),
	}
}

// ---- reference listing ---------------------------------------------------

// CreateScion asks the destination (the owner of Obj) to create a scion
// recording that Holder now references Obj. Sent by an exporter before it
// hands the reference to Holder, preserving the scion-before-stub ordering
// that keeps reference listing safe.
type CreateScion struct {
	ExportID uint64 // exporter-local id for matching the ack
	From     ids.NodeID
	Holder   ids.NodeID
	Obj      ids.ObjID
}

// Kind implements Message.
func (*CreateScion) Kind() Kind { return KindCreateScion }

func (m *CreateScion) encode(buf []byte) []byte {
	buf = putUint(buf, m.ExportID)
	buf = putNode(buf, m.From)
	buf = putNode(buf, m.Holder)
	return putUint(buf, uint64(m.Obj))
}

func decodeCreateScion(r *reader) *CreateScion {
	return &CreateScion{
		ExportID: r.uint(),
		From:     r.node(),
		Holder:   r.node(),
		Obj:      ids.ObjID(r.uint()),
	}
}

// CreateScionAck confirms scion creation to the exporter.
type CreateScionAck struct {
	ExportID uint64
	From     ids.NodeID
	OK       bool
	Err      string
}

// Kind implements Message.
func (*CreateScionAck) Kind() Kind { return KindCreateScionAck }

func (m *CreateScionAck) encode(buf []byte) []byte {
	buf = putUint(buf, m.ExportID)
	buf = putNode(buf, m.From)
	buf = putBool(buf, m.OK)
	return putString(buf, m.Err)
}

func decodeCreateScionAck(r *reader) *CreateScionAck {
	return &CreateScionAck{
		ExportID: r.uint(),
		From:     r.node(),
		OK:       r.bool(),
		Err:      r.string(),
	}
}

// NewSetStubs wraps the reference-listing stub-set message (§1).
type NewSetStubs struct {
	Set refs.StubSetMsg
}

// Kind implements Message.
func (*NewSetStubs) Kind() Kind { return KindNewSetStubs }

func (m *NewSetStubs) encode(buf []byte) []byte {
	buf = putNode(buf, m.Set.From)
	buf = putUint(buf, m.Set.Seq)
	return putObjIDs(buf, m.Set.Objs)
}

func decodeNewSetStubs(r *reader) *NewSetStubs {
	return &NewSetStubs{Set: refs.StubSetMsg{
		From: r.node(),
		Seq:  r.uint(),
		Objs: r.objIDs(),
	}}
}

// ---- cycle detection -----------------------------------------------------

// CDMEntry is the flattened wire form of one algebra entry.
type CDMEntry struct {
	Ref      ids.RefID
	InSource bool
	SrcIC    uint64
	InTarget bool
	TgtIC    uint64
}

func (e CDMEntry) entry() core.Entry {
	return core.Entry{InSource: e.InSource, SrcIC: e.SrcIC, InTarget: e.InTarget, TgtIC: e.TgtIC}
}

// algFromEntries rebuilds an algebra from flattened entries.
func algFromEntries(entries []CDMEntry) core.Alg {
	return core.BuildAlg(len(entries), func(i int) (ids.RefID, core.Entry) {
		return entries[i].Ref, entries[i].entry()
	})
}

// CDM is a cycle detection message: the detection identity, the reference it
// travels along, the forwarding depth, the causal trace id, and the algebra.
type CDM struct {
	Det   core.DetectionID
	Along ids.RefID
	Hops  uint32
	// Trace is the detection's causal trace id (core.TraceIDFor), carried
	// unchanged across every hop so observability tooling can follow one
	// detection through multiple processes.
	Trace   uint64
	Entries []CDMEntry

	// src is the algebra the message was flattened from. Never encoded: it
	// exists so in-process deliveries (the in-memory fabric passes message
	// pointers) can merge the already-key-sorted dense entries directly,
	// skipping the flatten→re-sort round-trip. Receivers treat it as
	// immutable — Merge never mutates its operand and the detector clones
	// before deriving — which is what makes sharing one algebra across the
	// whole fan-out and every local delivery safe. Zero on decoded messages.
	src core.Alg
}

// Kind implements Message.
func (*CDM) Kind() Kind { return KindCDM }

func (m *CDM) encode(buf []byte) []byte {
	buf = putNode(buf, m.Det.Origin)
	buf = putUint(buf, m.Det.Seq)
	buf = putRefID(buf, m.Along)
	buf = putUint(buf, uint64(m.Hops))
	buf = putUint(buf, m.Trace)
	if m.Entries == nil && m.src != (core.Alg{}) {
		// Lazily-flattened message (NewCDMFromAlg): encode straight off the
		// algebra in canonical order — byte-identical to the eager path, no
		// materialized entry list.
		buf = putUint(buf, uint64(m.src.Len()))
		m.src.EachCanonical(func(r ids.RefID, e core.Entry) bool {
			buf = putRefID(buf, r)
			buf = putBool(buf, e.InSource)
			buf = putUint(buf, e.SrcIC)
			buf = putBool(buf, e.InTarget)
			buf = putUint(buf, e.TgtIC)
			return true
		})
		return buf
	}
	buf = putUint(buf, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		buf = putRefID(buf, e.Ref)
		buf = putBool(buf, e.InSource)
		buf = putUint(buf, e.SrcIC)
		buf = putBool(buf, e.InTarget)
		buf = putUint(buf, e.TgtIC)
	}
	return buf
}

// encodedSize returns len(m.encode(nil)) without encoding. CDMs dominate
// detection traffic and the transports size every message (inproc byte
// accounting, TCP batch chunking), so the walk is worth skipping.
func (m *CDM) encodedSize() int {
	n := nodeSize(m.Det.Origin) + uvarintSize(m.Det.Seq) +
		refIDSize(m.Along) + uvarintSize(uint64(m.Hops)) + uvarintSize(m.Trace)
	if m.Entries == nil && m.src != (core.Alg{}) {
		// Sizes are order-independent, so the lazy path walks the algebra
		// unsorted.
		n += uvarintSize(uint64(m.src.Len()))
		m.src.Each(func(r ids.RefID, e core.Entry) bool {
			n += refIDSize(r) + 2 + uvarintSize(e.SrcIC) + uvarintSize(e.TgtIC)
			return true
		})
		return n
	}
	n += uvarintSize(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		n += refIDSize(e.Ref) + 2 + uvarintSize(e.SrcIC) + uvarintSize(e.TgtIC)
	}
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
	m.Trace = r.uint()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Entries = append(m.Entries, CDMEntry{
			Ref:      r.refID(),
			InSource: r.bool(),
			SrcIC:    r.uint(),
			InTarget: r.bool(),
			TgtIC:    r.uint(),
		})
	}
	return m
}

// FlattenAlg flattens an algebra into wire entries in canonical reference
// order (core.Alg.EachCanonical: an integer sort, no string comparisons). The
// returned slice is treated as immutable.
func FlattenAlg(alg core.Alg) []CDMEntry {
	entries := make([]CDMEntry, 0, alg.Len())
	alg.EachCanonical(func(r ids.RefID, e core.Entry) bool {
		entries = append(entries, CDMEntry{
			Ref: r, InSource: e.InSource, SrcIC: e.SrcIC, InTarget: e.InTarget, TgtIC: e.TgtIC,
		})
		return true
	})
	return entries
}

// NewCDM builds a CDM message from an algebra, flattening entries in
// canonical reference order.
func NewCDM(det core.DetectionID, along ids.RefID, alg core.Alg, hops int) *CDM {
	return &CDM{Det: det, Along: along, Hops: uint32(hops), Entries: FlattenAlg(alg), src: alg}
}

// NewCDMFromAlg builds a lazily-flattened CDM: the message carries only the
// algebra, Entries stays nil, and the codec flattens during encode (which
// in-process deliveries never reach). This is the detector fan-out's
// constructor — one algebra shared across every peer's CDM, one allocation
// per message. trace is the detection's causal trace id (core.TraceIDFor).
func NewCDMFromAlg(det core.DetectionID, along ids.RefID, alg core.Alg, hops int, trace uint64) *CDM {
	return &CDM{Det: det, Along: along, Hops: uint32(hops), Trace: trace, src: alg}
}

// MergeAlgInto merges the carried algebra into a, with Merge's semantics.
// Messages built in this process merge the sender's algebra directly (its
// entries are already dense and key-sorted — no hashing, no sorting); decoded
// messages rebuild an algebra first.
func (m *CDM) MergeAlgInto(a core.Alg) (changed, conflict bool) {
	if m.src != (core.Alg{}) {
		return a.Merge(m.src)
	}
	return a.Merge(algFromEntries(m.Entries))
}

// Alg reconstructs the algebra carried by the message. Messages built in
// this process clone the carried algebra (one copy, no hashing or sorting);
// decoded messages look up each reference's node names and rebuild.
func (m *CDM) Alg() core.Alg {
	if m.src != (core.Alg{}) {
		return m.src.Clone()
	}
	return algFromEntries(m.Entries)
}

// DeleteScion tells the destination that the scion for Ref belongs to a
// detected distributed garbage cycle (BroadcastDelete mode).
type DeleteScion struct {
	Det core.DetectionID
	Ref ids.RefID
}

// Kind implements Message.
func (*DeleteScion) Kind() Kind { return KindDeleteScion }

func (m *DeleteScion) encode(buf []byte) []byte {
	buf = putNode(buf, m.Det.Origin)
	buf = putUint(buf, m.Det.Seq)
	return putRefID(buf, m.Ref)
}

func decodeDeleteScion(r *reader) *DeleteScion {
	return &DeleteScion{
		Det: core.DetectionID{Origin: r.node(), Seq: r.uint()},
		Ref: r.refID(),
	}
}

// ---- baselines -------------------------------------------------------------

// HughesStamp propagates a timestamp from stubs to scions (Hughes 1985
// baseline): the destination must raise the stamps of the listed objects to
// Stamp.
type HughesStamp struct {
	From  ids.NodeID
	Stamp uint64
	Objs  []ids.ObjID
}

// Kind implements Message.
func (*HughesStamp) Kind() Kind { return KindHughesStamp }

func (m *HughesStamp) encode(buf []byte) []byte {
	buf = putNode(buf, m.From)
	buf = putUint(buf, m.Stamp)
	return putObjIDs(buf, m.Objs)
}

func decodeHughesStamp(r *reader) *HughesStamp {
	return &HughesStamp{From: r.node(), Stamp: r.uint(), Objs: r.objIDs()}
}

// HughesThreshold broadcasts the new global minimum redo threshold computed
// by the (consensus-requiring) termination service of the Hughes baseline.
type HughesThreshold struct {
	Threshold uint64
}

// Kind implements Message.
func (*HughesThreshold) Kind() Kind { return KindHughesThreshold }

func (m *HughesThreshold) encode(buf []byte) []byte {
	return putUint(buf, m.Threshold)
}

func decodeHughesThreshold(r *reader) *HughesThreshold {
	return &HughesThreshold{Threshold: r.uint()}
}

// BacktraceRequest asks the destination to report, for its object Obj,
// whether Obj is locally reachable and which incoming references (scions)
// lead to it (Maheshwari–Liskov back-tracing baseline). Visited carries the
// trace's path state — the per-process detection state the paper criticizes.
type BacktraceRequest struct {
	TraceID uint64
	Origin  ids.NodeID
	From    ids.NodeID
	Obj     ids.ObjID
	Visited []ids.RefID
}

// Kind implements Message.
func (*BacktraceRequest) Kind() Kind { return KindBacktraceRequest }

func (m *BacktraceRequest) encode(buf []byte) []byte {
	buf = putUint(buf, m.TraceID)
	buf = putNode(buf, m.Origin)
	buf = putNode(buf, m.From)
	buf = putUint(buf, uint64(m.Obj))
	buf = putUint(buf, uint64(len(m.Visited)))
	for _, v := range m.Visited {
		buf = putRefID(buf, v)
	}
	return buf
}

func decodeBacktraceRequest(r *reader) *BacktraceRequest {
	m := &BacktraceRequest{
		TraceID: r.uint(),
		Origin:  r.node(),
		From:    r.node(),
		Obj:     ids.ObjID(r.uint()),
	}
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Visited = append(m.Visited, r.refID())
	}
	return m
}

// BacktraceReply reports a sub-trace result to the requester: whether a
// local root was found anywhere behind the traced object.
type BacktraceReply struct {
	TraceID   uint64
	From      ids.NodeID
	Obj       ids.ObjID
	RootFound bool
}

// Kind implements Message.
func (*BacktraceReply) Kind() Kind { return KindBacktraceReply }

func (m *BacktraceReply) encode(buf []byte) []byte {
	buf = putUint(buf, m.TraceID)
	buf = putNode(buf, m.From)
	buf = putUint(buf, uint64(m.Obj))
	return putBool(buf, m.RootFound)
}

func decodeBacktraceReply(r *reader) *BacktraceReply {
	return &BacktraceReply{
		TraceID:   r.uint(),
		From:      r.node(),
		Obj:       ids.ObjID(r.uint()),
		RootFound: r.bool(),
	}
}

// Credit carries one cumulative counter and nothing reads it: it was the
// grant of a sender-side flow-control window that has been removed (overload
// is shed at the receiver's mailbox, DESIGN.md §10). The kind stays decodable
// — the wire numbering is positional, and benchmark/probes.go uses it as the
// smallest ping payload — and a node that receives one ignores it.
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
